// The streaming dispatcher: the paper's phase-2 semi-clairvoyant loop
// lifted from one-shot (all n tasks known at t = 0, dispatch until
// drained) to a long-lived service where tasks are released over time.
//
// A task becomes eligible at its arrival time; whenever a machine is
// idle it takes the highest-priority *admitted* task whose replica set
// contains it, or parks until an arrival makes one eligible. Decisions
// still never look at actual durations -- arrivals only add a second
// source of "now" alongside machine frees.
//
// serve_stream and dispatch_online are two entry points of one loop, the
// phase-2 dispatch kernel (sim/dispatch_kernel.hpp): admission bitmaps
// over priority-sorted replica-set queues, parked-machine wake-up,
// frozen-tail compaction and an equal-time cohort path. All per-run
// state comes from the SimWorkspace arena -- a serve loop that reuses
// one workspace performs zero steady-state allocation. Every arrival at
// time t is admitted before any machine freed at t dispatches, and
// machines freed at the same instant grab work in machine-id order.
//
// Correctness contract (fuzz-checked, see check/fuzz.cpp and
// docs/SERVING.md): schedule, trace and peak backlog are bit-identical
// to a naive event-by-event oracle (check::reference_serve_stream) on
// staggered arrivals, and with every arrival at t = 0 ("drain mode") to
// the pre-rewrite offline dispatcher -- same floating-point arithmetic,
// same tie-breaks, same trace order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;
class SimWorkspace;

/// Result of a streaming run: the timed schedule, the chronological
/// dispatch trace, and the high-water mark of admitted-but-unstarted
/// tasks (the backlog a real queue would have held).
struct StreamingDispatchResult {
  Schedule schedule;
  DispatchTrace trace;
  std::size_t peak_backlog = 0;
};

/// Runs the streaming dispatch loop until every task has been served.
///
/// \param arrivals  per-task release times (finite, >= 0); task j cannot
///                  start before arrivals[j]. Equal-time arrivals are
///                  admitted in task-id order.
/// \param priority / initial_ready / speeds  as in dispatch_online.
[[nodiscard]] StreamingDispatchResult serve_stream(
    const Instance& instance, const Placement& placement,
    const Realization& actual, const std::vector<TaskId>& priority,
    std::span<const Time> arrivals, std::vector<Time> initial_ready = {},
    std::vector<double> speeds = {});

/// Workspace form: per-run state is carved out of `ws`, results reuse
/// `out`'s capacity (zero steady-state allocation across runs).
void serve_stream(const Instance& instance, const Placement& placement,
                  const Realization& actual, const std::vector<TaskId>& priority,
                  std::span<const Time> arrivals,
                  std::span<const Time> initial_ready,
                  std::span<const double> speeds, SimWorkspace& ws,
                  StreamingDispatchResult& out);

/// Response-time decomposition of a streaming schedule: for each task,
///   queue wait = start - arrival   (admission to first byte of work)
///   service    = finish - start    (time on the machine)
///   response   = finish - arrival  (what the caller experienced; sojourn)
/// Built from the schedule after the fact through single-owner
/// obs::LocalHistogram folds (HDR quantiles, <= 0.8% error), so the
/// dispatch loop itself carries no instrumentation. Summaries rather than
/// the histograms themselves: each histogram holds a 32 KB bucket array.
struct ServeStats {
  obs::Histogram::Summary response;
  obs::Histogram::Summary queue_wait;
  obs::Histogram::Summary service;
  Time first_arrival = 0;
  Time last_finish = 0;
};

[[nodiscard]] ServeStats compute_serve_stats(const Schedule& schedule,
                                             std::span<const Time> arrivals);

}  // namespace rdp
