#include "sim/speculative.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::infinity();

enum : std::uint8_t { kWaiting = 0, kRunning = 1, kDone = 2 };

inline void heap_push(std::vector<RankedTask>& heap, RankedTask entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

inline void heap_pop(std::vector<RankedTask>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  heap.pop_back();
}

}  // namespace

SpeculativeResult dispatch_speculative(const Instance& instance,
                                       const Placement& placement,
                                       const Realization& actual,
                                       const std::vector<TaskId>& priority,
                                       const SpeedProfile& speeds,
                                       const SpeculationPolicy& policy) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("dispatch_speculative: size mismatch");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "dispatch_speculative: placement.num_machines must equal the "
        "instance's machine count");
  }
  if (speeds.size() != m) {
    throw std::invalid_argument("dispatch_speculative: speed profile mismatch");
  }
  if (policy.max_copies == 0) {
    throw std::invalid_argument("dispatch_speculative: max_copies must be >= 1");
  }
  if (std::isnan(policy.min_estimated_remaining)) {
    throw std::invalid_argument(
        "dispatch_speculative: min_estimated_remaining must not be NaN");
  }

  SimWorkspace& ws = thread_workspace();
  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  const std::span<std::uint32_t> rank = arena.make_span<std::uint32_t>(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      throw std::invalid_argument("dispatch_speculative: bad priority");
    }
    rank[j] = r;
  }

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::Tracer* const tr = obs::tracer();
  obs::ScopedSpan obs_span(tr, "dispatch_speculative", "sim");

  const std::span<std::uint8_t> state = arena.make_span<std::uint8_t>(n, kWaiting);
  const std::span<std::uint8_t> machine_busy = arena.make_span<std::uint8_t>(m, 0);
  const std::span<std::uint8_t> machine_parked = arena.make_span<std::uint8_t>(m, 0);

  // Copies, struct-of-arrays with a fixed per-task stride. Live copies of
  // one task occupy distinct busy machines and none dies before the task
  // completes, so a task never accumulates more than min(max_copies, m)
  // copies over its whole lifetime.
  const std::size_t stride =
      std::min<std::size_t>(policy.max_copies, static_cast<std::size_t>(m));
  const std::span<std::uint32_t> copy_count = arena.make_span<std::uint32_t>(n, 0);
  const std::span<MachineId> copy_machine = arena.allocate_span<MachineId>(n * stride);
  const std::span<Time> copy_start = arena.allocate_span<Time>(n * stride);
  const std::span<Time> copy_finish = arena.allocate_span<Time>(n * stride);
  const std::span<std::uint8_t> copy_alive =
      arena.make_span<std::uint8_t>(n * stride, 0);

  SpeculativeResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  // Per-machine waiting-task heaps; tasks never return to kWaiting here
  // (no failures), so entries are pushed once and go stale in place.
  for (TaskId j = 0; j < n; ++j) {
    for (MachineId i : placement.machines_for(j)) {
      heap_push(ws.machine_heaps[i], RankedTask{rank[j], j});
    }
  }

  SimEventQueue& events = ws.events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(SimEvent{0, kSimEventFree, i, kNoTask, 0, seq++});
  }

  const bool speculation_on = policy.max_copies >= 2;
  std::size_t remaining = n;

  auto launch = [&](TaskId j, MachineId i, Time now, bool is_backup) {
    const Time duration = actual[j] / speeds.speed(i);
    const std::size_t c = j * stride + copy_count[j];
    copy_machine[c] = i;
    copy_start[c] = now;
    copy_finish[c] = now + duration;
    copy_alive[c] = 1;
    machine_busy[i] = 1;
    state[j] = kRunning;
    if (is_backup) {
      ++result.duplicates_launched;
      if (tr) {
        tr->instant("speculative_copy", "sim",
                    "{\"task\":" + std::to_string(j) +
                        ",\"machine\":" + std::to_string(i) + "}");
      }
    }
    result.trace.events.push_back(DispatchEvent{now, j, i, duration});
    events.push(SimEvent{now + duration, kSimEventFinish, i, j, copy_count[j], seq++});
    ++copy_count[j];
  };

  // Machines idle with no work to take park on an explicit list instead
  // of a parked flag rescan: a completion used to walk all m machines to
  // find the (typically few) parked ones.
  auto wake_parked = [&](Time now) {
    for (MachineId i : ws.parked) {
      machine_parked[i] = 0;
      events.push(SimEvent{now, kSimEventFree, i, kNoTask, 0, seq++});
    }
    ws.parked.clear();
  };

  while (remaining > 0) {
    if (events.empty()) {
      throw std::logic_error("dispatch_speculative: event queue drained early");
    }
    const SimEvent e = events.pop();

    if (e.kind == kSimEventFinish) {
      const TaskId j = e.task;
      const std::size_t c = j * stride + e.aux;
      if (!copy_alive[c] || state[j] == kDone) continue;  // killed/stale
      // Winner.
      copy_alive[c] = 0;
      machine_busy[copy_machine[c]] = 0;
      state[j] = kDone;
      --remaining;
      result.schedule.assignment.machine_of[j] = copy_machine[c];
      result.schedule.start[j] = copy_start[c];
      result.schedule.finish[j] = copy_finish[c];
      if (e.aux > 0) ++result.duplicates_won;
      // Kill every other live copy; their machines free immediately.
      for (std::size_t k = j * stride; k < j * stride + copy_count[j]; ++k) {
        if (k == c || !copy_alive[k]) continue;
        copy_alive[k] = 0;
        machine_busy[copy_machine[k]] = 0;
        result.wasted_time += e.when - copy_start[k];
        events.push(
            SimEvent{e.when, kSimEventFree, copy_machine[k], kNoTask, 0, seq++});
      }
      events.push(SimEvent{e.when, kSimEventFree, copy_machine[c], kNoTask, 0, seq++});
      wake_parked(e.when);
      continue;
    }

    // Machine-free event.
    const MachineId i = e.machine;
    if (machine_busy[i]) continue;  // stale

    // 1. Highest-priority waiting task with a replica here (lazy heap;
    // ranks are a permutation, so the pop matches the former full scan).
    std::vector<RankedTask>& heap = ws.machine_heaps[i];
    while (!heap.empty() && state[heap.front().second] != kWaiting) heap_pop(heap);
    if (!heap.empty()) {
      const TaskId j = heap.front().second;
      heap_pop(heap);
      launch(j, i, e.when, /*is_backup=*/false);
      continue;
    }

    // 2. No waiting work: consider speculating on a running task.
    if (speculation_on) {
      TaskId candidate = kNoTask;
      Time latest_estimate = -kNever;
      for (TaskId j = 0; j < n; ++j) {
        if (state[j] != kRunning || !placement.allows(j, i)) continue;
        std::size_t live = 0;
        Time earliest_est_finish = kNever;
        for (std::size_t k = j * stride; k < j * stride + copy_count[j]; ++k) {
          if (!copy_alive[k]) continue;
          ++live;
          const Time est =
              copy_start[k] + instance.estimate(j) / speeds.speed(copy_machine[k]);
          earliest_est_finish = std::min(earliest_est_finish, est);
        }
        if (live == 0 || live >= policy.max_copies) continue;
        if (earliest_est_finish - e.when < policy.min_estimated_remaining) continue;
        // Don't duplicate onto a machine that wouldn't even beat the
        // current copy's *estimated* completion.
        const Time my_est_finish = e.when + instance.estimate(j) / speeds.speed(i);
        if (my_est_finish >= earliest_est_finish) continue;
        if (earliest_est_finish > latest_estimate) {
          latest_estimate = earliest_est_finish;
          candidate = j;
        }
      }
      if (candidate != kNoTask) {
        launch(candidate, i, e.when, /*is_backup=*/true);
        continue;
      }
    }

    if (!machine_parked[i]) {  // re-woken on the next completion
      machine_parked[i] = 1;
      ws.parked.push_back(i);
    }
  }

  result.makespan = result.schedule.makespan();
  if (mx) {
    mx->counter("sim.speculative.calls").add(1);
    mx->counter("sim.speculative.tasks").add(n);
    mx->counter("sim.speculative.duplicates_launched").add(result.duplicates_launched);
    mx->counter("sim.speculative.duplicates_won").add(result.duplicates_won);
    mx->histogram("sim.speculative.wasted_time").observe(result.wasted_time);
  }
  return result;
}

}  // namespace rdp
