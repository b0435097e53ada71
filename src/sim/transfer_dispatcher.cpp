#include "sim/transfer_dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/ready_heap.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

inline void heap_push(std::vector<RankedTask>& heap, RankedTask entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

inline void heap_pop(std::vector<RankedTask>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  heap.pop_back();
}

}  // namespace

TransferDispatchResult dispatch_with_transfers(const Instance& instance,
                                               const Placement& placement,
                                               const Realization& actual,
                                               const std::vector<TaskId>& priority,
                                               const TransferModel& model) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("dispatch_with_transfers: size mismatch");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "dispatch_with_transfers: placement.num_machines must equal the "
        "instance's machine count");
  }
  if (!(model.bandwidth > 0.0)) {
    throw std::invalid_argument("dispatch_with_transfers: bandwidth must be > 0");
  }
  if (!(model.latency >= 0.0) || !std::isfinite(model.latency)) {
    throw std::invalid_argument(
        "dispatch_with_transfers: latency must be finite and non-negative");
  }

  SimWorkspace& ws = thread_workspace();
  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  const std::span<std::uint32_t> rank = arena.make_span<std::uint32_t>(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      throw std::invalid_argument("dispatch_with_transfers: bad priority");
    }
    rank[j] = r;
  }

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::ScopedSpan span(obs::tracer(), "dispatch_with_transfers", "sim");

  const std::span<std::uint8_t> scheduled = arena.make_span<std::uint8_t>(n, 0);

  // Per-machine *local* candidate heaps (lazily invalidated). The best
  // remote candidate needs no per-machine structure: when a machine has
  // no local waiting task at all, every waiting task is remote for it, so
  // the globally best-ranked waiting task -- found by a cursor over the
  // priority permutation -- is the remote pick. Together these replace
  // the former all-tasks scan per dispatch.
  for (TaskId j = 0; j < n; ++j) {
    for (MachineId i : placement.machines_for(j)) {
      heap_push(ws.machine_heaps[i], RankedTask{rank[j], j});
    }
  }
  std::size_t head = 0;  // first maybe-unscheduled rank in priority order

  ReadyHeap pool;
  pool.init(arena, m, {});

  TransferDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  std::size_t remaining = n;
  while (remaining > 0) {
    if (pool.empty()) {
      throw std::logic_error("dispatch_with_transfers: no machine available");
    }
    const MachineId i = pool.top();

    std::vector<RankedTask>& heap = ws.machine_heaps[i];
    while (!heap.empty() && scheduled[heap.front().second]) heap_pop(heap);
    const bool use_local = !heap.empty();
    TaskId j = kNoTask;
    if (use_local) {
      j = heap.front().second;
      heap_pop(heap);
    } else {
      while (head < n && scheduled[priority[head]]) ++head;
      if (head < n) j = priority[head];
    }
    if (j == kNoTask) {
      throw std::logic_error("dispatch_with_transfers: no waiting task");
    }
    Time duration = actual[j];
    if (!use_local) {
      const Time fetch = model.latency + instance.size(j) / model.bandwidth;
      duration += fetch;
      result.transfer_time += fetch;
      ++result.remote_runs;
      if (mx) {
        mx->counter("sim.transfer.remote_runs").add(1);
        mx->histogram("sim.transfer.fetch_time").observe(fetch);
      }
    }
    const auto [start, finish] = pool.occupy_top(duration);
    scheduled[j] = 1;
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = finish;
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
    --remaining;
  }

  result.makespan = result.schedule.makespan();
  if (mx) {
    mx->counter("sim.transfer.calls").add(1);
    mx->counter("sim.transfer.tasks").add(n);
  }
  return result;
}

}  // namespace rdp
