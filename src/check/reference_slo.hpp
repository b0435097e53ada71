// Naive oracle for windowed SLO evaluation (serve/slo.hpp). It scans
// every task once per window -- O(n * windows), for fuzz-sized inputs
// only -- and shares nothing with the production path except the
// histogram arithmetic: no window ring, no counting pass, no cursors.
// The differential fuzzer requires evaluate_slo to reproduce it bit for
// bit.
#pragma once

#include <span>

#include "core/types.hpp"
#include "serve/slo.hpp"

namespace rdp {
struct Schedule;
}  // namespace rdp

namespace rdp::check {

/// evaluate_slo by definition. Window w reports [t0, t1) with
/// t0 = w * width and t1 = t0 + width, rounded as doubles; a time
/// belongs to the first window whose t1 exceeds it, and the run has
/// exactly enough windows for the makespan to belong to the last one.
/// Each interval's responses feed one obs::Histogram in (finish, id)
/// order, and a window's response summary merges the last
/// max(sustain - 1, 1) intervals oldest first. Queue waits feed one
/// histogram per interval in (start, id) order. The backlog watermark
/// is the largest queue length seen in the window, counting each
/// arrival before any start at the same instant. Publishes no gauges.
/// Throws std::invalid_argument on the same inputs evaluate_slo does.
[[nodiscard]] SloReport reference_evaluate_slo(const Schedule& schedule,
                                               std::span<const Time> arrivals,
                                               const SloSpec& spec);

}  // namespace rdp::check
