// The phase-2 dispatch kernel. The paper's phase 2 is one rule: an idle
// machine takes the highest-priority waiting task whose replica set
// contains it. This is the one implementation of that rule for identical
// or uniform machines, shared by three entry points:
//
//   * dispatch_online (sim/online_dispatcher.hpp) -- every task released
//     at t = 0: the kernel's equal-time cohort run;
//   * serve_stream (serve/streaming_dispatcher.hpp) -- tasks released
//     over time by an arrival process;
//   * dispatch_with_transfers (sim/transfer_dispatcher.hpp) -- the cohort
//     run plus a remote tier: a machine with no local work left takes the
//     best-ranked waiting task anywhere and pays that task's fetch cost.
//
// Tasks sharing a replica set share one priority-sorted CSR queue;
// machines sit in a (ready time, id) ReadyHeap. Arrivals add admission
// bitmaps, machine parking and a compacted drain tail. A cohort -- every
// task released at one instant no later than the first machine is ready,
// as in every offline call -- builds none of that streaming state and
// runs the tail directly. Every arrival at time t is admitted before any
// machine freed at t dispatches; machines freed at the same instant take
// work in id order. The kernel validates, dispatches and scatters;
// observability (span, metric names, flight-recorder shape) belongs to
// the entry points.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
class Placement;
struct Realization;
class SimWorkspace;

/// Runs the greedy dispatch loop, writing the task-indexed schedule and
/// the chronological trace into `schedule` / `trace` (reusing their
/// capacity). `arrivals` holds per-task release times (finite, >= 0), or
/// is empty to release every task at t = 0; `priority`, `initial_ready`
/// and `speeds` are as documented on dispatch_online. `remote_cost` is
/// empty, or holds per-task fetch costs (>= 0): a machine whose replica
/// sets hold no waiting task then runs the best-ranked waiting task for
/// its realized time plus that cost instead of retiring. Remote costs
/// are offline-only (`arrivals` must be empty). Per-run state is carved
/// out of `ws`. Throws std::invalid_argument, prefixed with `caller`, on
/// malformed input. Returns the peak backlog: the most
/// admitted-but-unstarted tasks at any instant.
std::size_t run_dispatch_kernel(const char* caller, const Instance& instance,
                                const Placement& placement,
                                const Realization& actual,
                                const std::vector<TaskId>& priority,
                                std::span<const Time> arrivals,
                                std::span<const Time> initial_ready,
                                std::span<const double> speeds,
                                std::span<const Time> remote_cost, SimWorkspace& ws,
                                Schedule& schedule, DispatchTrace& trace);

/// Exports a finished run to the installed flight recorder (no-op when
/// none is installed): a kArrive per task when `arrivals` is non-empty,
/// then a kStart per task, then a kFinish per task, each block in task
/// order. One bulk reserve, filled column by column at memory-copy speed.
void record_dispatch_timeline(const Schedule& schedule,
                              std::span<const Time> arrivals);

}  // namespace rdp
