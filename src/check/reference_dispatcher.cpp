#include "check/reference_dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/instance.hpp"
#include "core/realization.hpp"

namespace rdp::check {

namespace {

// Pre-rewrite MachinePool: lazy binary heap that pushes one entry per
// occupy and discards stale entries at the top. (The production pool now
// compacts; this reference deliberately keeps the original shape.)
class LegacyMachinePool {
 public:
  explicit LegacyMachinePool(MachineId num_machines)
      : LegacyMachinePool(std::vector<Time>(num_machines, 0)) {}

  explicit LegacyMachinePool(std::vector<Time> initial_ready)
      : ready_(std::move(initial_ready)), retired_(ready_.size(), false) {
    for (MachineId i = 0; i < ready_.size(); ++i) heap_.push(Slot{ready_[i], i});
  }

  [[nodiscard]] std::optional<MachineId> next_idle() const {
    refresh();
    if (heap_.empty()) return std::nullopt;
    return heap_.top().id;
  }

  std::pair<Time, Time> occupy(MachineId i, Time duration) {
    const Time start = ready_[i];
    const Time finish = start + duration;
    ready_[i] = finish;
    heap_.push(Slot{finish, i});
    return {start, finish};
  }

  void retire(MachineId i) { retired_[i] = true; }

 private:
  struct Slot {
    Time ready;
    MachineId id;
    bool operator<(const Slot& other) const noexcept {
      if (ready != other.ready) return ready > other.ready;  // min-heap
      return id > other.id;
    }
  };

  void refresh() const {
    while (!heap_.empty()) {
      const Slot& top = heap_.top();
      if (retired_[top.id] || ready_[top.id] != top.ready) {
        heap_.pop();
      } else {
        return;
      }
    }
  }

  std::vector<Time> ready_;
  std::vector<bool> retired_;
  mutable std::priority_queue<Slot> heap_;
};

std::uint64_t hash_set(const std::vector<MachineId>& set) {
  std::uint64_t h = 1469598103934665603ULL;
  for (MachineId i : set) {
    h ^= static_cast<std::uint64_t>(i) + 1;
    h *= 1099511628211ULL;
  }
  return h;
}

struct TaskQueue {
  std::vector<TaskId> tasks;  // sorted by priority rank, consumed from front
  std::size_t head = 0;

  [[nodiscard]] bool exhausted() const noexcept { return head >= tasks.size(); }
  [[nodiscard]] TaskId front() const { return tasks[head]; }
};

}  // namespace

DispatchResult reference_dispatch_online(const Instance& instance,
                                         const Placement& placement,
                                         const Realization& actual,
                                         const std::vector<TaskId>& priority,
                                         std::vector<Time> initial_ready,
                                         std::vector<double> speeds) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || placement.num_machines() != m ||
      actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("reference_dispatch_online: size mismatch");
  }

  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < priority.size(); ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      throw std::invalid_argument(
          "reference_dispatch_online: priority is not a permutation");
    }
    rank[j] = r;
  }

  // Bucket tasks by identical replica sets.
  std::vector<TaskQueue> queues;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  for (TaskId j = 0; j < n; ++j) {
    const auto& set = placement.machines_for(j);
    const std::uint64_t h = hash_set(set);
    std::size_t q = SIZE_MAX;
    for (std::size_t candidate : buckets[h]) {
      const TaskId representative = queues[candidate].tasks.front();
      if (placement.machines_for(representative) == set) {
        q = candidate;
        break;
      }
    }
    if (q == SIZE_MAX) {
      q = queues.size();
      queues.emplace_back();
      buckets[h].push_back(q);
    }
    queues[q].tasks.push_back(j);
  }
  for (auto& queue : queues) {
    std::sort(queue.tasks.begin(), queue.tasks.end(),
              [&](TaskId a, TaskId b) { return rank[a] < rank[b]; });
  }

  std::vector<std::vector<std::size_t>> queues_of_machine(m);
  for (std::size_t q = 0; q < queues.size(); ++q) {
    for (MachineId i : placement.machines_for(queues[q].tasks.front())) {
      queues_of_machine[i].push_back(q);
    }
  }

  LegacyMachinePool pool = initial_ready.empty()
                               ? LegacyMachinePool(m)
                               : LegacyMachinePool(std::move(initial_ready));

  DispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  std::size_t remaining = n;
  while (remaining > 0) {
    const auto idle = pool.next_idle();
    if (!idle) {
      throw std::logic_error("reference_dispatch_online: deadlock");
    }
    const MachineId i = *idle;

    std::size_t best_queue = SIZE_MAX;
    std::uint32_t best_rank = UINT32_MAX;
    for (std::size_t q : queues_of_machine[i]) {
      const TaskQueue& queue = queues[q];
      if (queue.exhausted()) continue;
      const std::uint32_t r = rank[queue.front()];
      if (r < best_rank) {
        best_rank = r;
        best_queue = q;
      }
    }
    if (best_queue == SIZE_MAX) {
      pool.retire(i);
      continue;
    }

    TaskQueue& queue = queues[best_queue];
    const TaskId j = queue.front();
    ++queue.head;
    const Time duration = speeds.empty() ? actual[j] : actual[j] / speeds[i];
    const auto [start, finish] = pool.occupy(i, duration);
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = finish;
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
    --remaining;
  }
  return result;
}

StreamingDispatchResult reference_serve_stream(const Instance& instance,
                                               const Placement& placement,
                                               const Realization& actual,
                                               const std::vector<TaskId>& priority,
                                               std::span<const Time> arrivals,
                                               std::vector<Time> initial_ready,
                                               std::vector<double> speeds) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || placement.num_machines() != m ||
      actual.size() != n || priority.size() != n || arrivals.size() != n ||
      (!initial_ready.empty() && initial_ready.size() != m) ||
      (!speeds.empty() && speeds.size() != m)) {
    throw std::invalid_argument("reference_serve_stream: size mismatch");
  }

  // Admission order: (arrival time, task id).
  std::vector<TaskId> order(n);
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return arrivals[a] < arrivals[b];
  });

  std::vector<Time> ready =
      initial_ready.empty() ? std::vector<Time>(m, 0) : std::move(initial_ready);
  // A machine is idle (out of the running) once it found nothing to do;
  // the next admission of a task it holds a replica of brings it back,
  // ready at that arrival.
  std::vector<bool> idle(m, false);
  std::vector<bool> admitted(n, false);
  std::vector<bool> dispatched(n, false);

  StreamingDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  std::size_t next_arrival = 0;
  std::size_t backlog = 0;
  std::size_t remaining = n;
  while (remaining > 0) {
    MachineId i = kNoMachine;
    for (MachineId k = 0; k < m; ++k) {
      if (!idle[k] && (i == kNoMachine || ready[k] < ready[i])) i = k;
    }
    const Time free_at =
        i == kNoMachine ? std::numeric_limits<Time>::infinity() : ready[i];

    if (next_arrival < n && arrivals[order[next_arrival]] <= free_at) {
      const TaskId j = order[next_arrival++];
      admitted[j] = true;
      result.peak_backlog = std::max(result.peak_backlog, ++backlog);
      for (MachineId k : placement.machines_for(j)) {
        if (idle[k]) {
          idle[k] = false;
          ready[k] = arrivals[j];
        }
      }
      continue;
    }
    if (i == kNoMachine) {
      throw std::logic_error("reference_serve_stream: deadlock");
    }

    TaskId j = kNoTask;
    for (TaskId candidate : priority) {
      if (admitted[candidate] && !dispatched[candidate] &&
          placement.allows(candidate, i)) {
        j = candidate;
        break;
      }
    }
    if (j == kNoTask) {
      idle[i] = true;
      continue;
    }
    const Time duration = speeds.empty() ? actual[j] : actual[j] / speeds[i];
    const Time start = ready[i];
    ready[i] = start + duration;
    dispatched[j] = true;
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = ready[i];
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
    --backlog;
    --remaining;
  }
  return result;
}

TransferDispatchResult reference_dispatch_with_transfers(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const TransferModel& model) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || placement.num_machines() != m ||
      actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("reference_dispatch_with_transfers: size mismatch");
  }
  std::vector<Time> ready(m, 0);
  std::vector<bool> started(n, false);
  TransferDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    // min_element returns the first minimum: the lowest id among ties.
    const auto i = static_cast<MachineId>(
        std::min_element(ready.begin(), ready.end()) - ready.begin());
    auto it = std::find_if(priority.begin(), priority.end(), [&](TaskId t) {
      return !started[t] && placement.allows(t, i);
    });
    const bool remote = it == priority.end();
    if (remote) {
      it = std::find_if(priority.begin(), priority.end(),
                        [&](TaskId t) { return !started[t]; });
    }
    const TaskId j = *it;
    Time duration = actual[j];
    if (remote) {
      const Time fetch = model.latency + instance.size(j) / model.bandwidth;
      duration += fetch;
      result.transfer_time += fetch;
      ++result.remote_runs;
    }
    const Time start = ready[i];
    ready[i] = start + duration;
    started[j] = true;
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = ready[i];
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
  }
  result.makespan = result.schedule.makespan();
  return result;
}

}  // namespace rdp::check
