// Sliding-window distribution summaries: a ring of per-interval HDR
// histograms (obs/metrics.hpp) over a caller-supplied time axis --
// simulated seconds for the SLO engine. Each sample lands in the
// histogram of its interval; advancing time expires the oldest intervals
// in place (LocalHistogram::reset(), no allocation), and a window rollup
// is a LocalHistogram::merge of the live slots. This is what gives
// response-time telemetry a time axis: per-interval p50/p90/p99 that
// *forget* an old regime within ring-length intervals of a load change,
// instead of one cumulative histogram that averages the burst away.
//
// Single owner: the ring takes no locks. Share one across threads only
// behind the caller's own synchronization.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace rdp::obs {

class WindowedHistogram {
 public:
  using Summary = HistogramSummary;

  /// `interval_seconds` > 0 is the bucketing grain; `num_intervals` >= 1
  /// is the ring length (the window spans num_intervals * interval
  /// seconds). Throws std::invalid_argument on bad geometry.
  WindowedHistogram(double interval_seconds, std::size_t num_intervals);

  /// The edge rule. Interval i reports [start(i), end(i)) with
  /// start(i) = i * interval and end(i) = start(i) + interval, both
  /// rounded as doubles; time t belongs to the first interval whose end
  /// exceeds it. Because end() is computed rather than taken from
  /// start(i + 1), the rounded edges of neighbours can differ by an ulp;
  /// the end edge decides. Times at or below 0 (and NaN) land in
  /// interval 0 -- serve clocks start at 0 and tiny negative jitter
  /// should not drop samples.
  [[nodiscard]] std::int64_t interval_index(double t) const noexcept;
  [[nodiscard]] double interval_start(std::int64_t i) const noexcept {
    return static_cast<double>(i) * interval_;
  }
  [[nodiscard]] double interval_end(std::int64_t i) const noexcept {
    return interval_start(i) + interval_;
  }

  /// Records `value` in interval `interval` (>= 0). Intervals may arrive
  /// out of order within the window; samples older than the window's
  /// trailing edge are dropped and counted (late_dropped()). Advancing
  /// rotates the ring, clearing every interval that fell out of the
  /// window.
  void observe_at(std::int64_t interval, double value) noexcept;
  /// observe_at(interval_index(t), value).
  void observe(double t, double value) noexcept {
    observe_at(interval_index(t), value);
  }

  /// Summary of the single interval containing `t`, empty if it is
  /// outside the window.
  [[nodiscard]] Summary interval_summary(double t) const noexcept;

  /// Rollup of every live interval up to and including `interval`
  /// (advances the window to it first): the sliding-window summary. The
  /// slots merge oldest first into one scratch histogram.
  [[nodiscard]] Summary window_summary_at(std::int64_t interval) noexcept;
  /// window_summary_at(interval_index(t)).
  [[nodiscard]] Summary window_summary(double t) noexcept {
    return window_summary_at(interval_index(t));
  }

  [[nodiscard]] double interval_seconds() const noexcept { return interval_; }
  [[nodiscard]] std::size_t num_intervals() const noexcept { return ring_.size(); }
  /// Samples rejected for arriving behind the trailing edge.
  [[nodiscard]] std::uint64_t late_dropped() const noexcept { return late_dropped_; }

 private:
  /// Rotates so the interval index `idx` is the newest slot.
  void advance_to(std::int64_t idx) noexcept;

  double interval_;
  std::vector<LocalHistogram> ring_;
  LocalHistogram scratch_;     ///< merge target for window_summary_at
  std::int64_t newest_ = -1;   ///< highest interval index seen; -1 = none
  std::uint64_t late_dropped_ = 0;
};

}  // namespace rdp::obs
