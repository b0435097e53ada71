#include "sim/dispatch_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "sim/ready_heap.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

/// 64^6 slots -- more than any addressable task count.
constexpr std::uint32_t kMaxLevels = 6;

/// Hierarchical bitmaps over each queue's rank slots (slot s = position
/// in the queue's priority-sorted CSR slice). Admission sets bit s;
/// "highest-priority admitted task" is the cached minimum slot, repaired
/// on pop by a find-first-set walk over ceil(log64) summary levels
/// instead of a comparison heap's log2 sift. Level 0 has one bit per
/// slot; bit w of level l+1 is the OR of word w of level l, so the top
/// level of every queue is a single word.
struct QueueBitmaps {
  std::uint64_t* words = nullptr;        ///< all queues' levels, zeroed
  const std::uint32_t* level_off = nullptr;  ///< [q * kMaxLevels + l] word offset
  const std::uint8_t* num_levels = nullptr;  ///< per queue
  std::uint32_t* min_slot = nullptr;  ///< lowest set slot; ~0u = queue empty

  /// Carves empty bitmaps for every queue of `placement` out of `arena`:
  /// per queue, level word counts shrink by 64x until a single word
  /// covers the whole slice.
  static QueueBitmaps build(MonotonicArena& arena, const Placement& placement) {
    const std::uint32_t num_queues = placement.num_distinct_sets();
    const std::span<std::uint32_t> offsets =
        arena.allocate_span<std::uint32_t>(num_queues * kMaxLevels);
    const std::span<std::uint8_t> levels = arena.allocate_span<std::uint8_t>(num_queues);
    std::uint32_t total_words = 0;
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      std::uint32_t count =
          std::max<std::uint32_t>(1, (placement.set_population(q) + 63) / 64);
      std::uint32_t level = 0;
      while (true) {
        offsets[q * kMaxLevels + level] = total_words;
        total_words += count;
        ++level;
        if (count == 1) break;
        count = (count + 63) / 64;
      }
      levels[q] = static_cast<std::uint8_t>(level);
    }
    return QueueBitmaps{arena.make_span<std::uint64_t>(total_words, 0).data(),
                        offsets.data(), levels.data(),
                        arena.make_span<std::uint32_t>(num_queues, UINT32_MAX).data()};
  }

  void set(std::uint32_t q, std::uint32_t slot) noexcept {
    if (slot < min_slot[q]) min_slot[q] = slot;  // ~0u sentinel when empty
    const std::uint32_t* off = level_off + q * kMaxLevels;
    const std::uint32_t levels = num_levels[q];
    std::uint32_t idx = slot;
    for (std::uint32_t l = 0;;) {
      std::uint64_t& w = words[off[l] + (idx >> 6)];
      const std::uint64_t prev = w;
      w = prev | (std::uint64_t{1} << (idx & 63));
      // A previously nonempty word means its ancestor bit -- and by
      // induction every higher one -- is already set, so dense backlogs
      // make admission a single read-modify-write with no upward probe.
      if (prev != 0 || ++l == levels) break;
      idx >>= 6;
    }
  }

  /// Clears the minimum slot and repairs the cache with its successor.
  /// Queue must be non-empty; returns the popped slot. The popped slot is
  /// the minimum, so within every touched word no bit below it is set --
  /// the successor is the word's new lowest bit, found without masking.
  /// Common case (a sibling in the same level-0 word, which dense
  /// backlogs hit almost always): one read-modify-write and one ctz.
  std::uint32_t pop_min(std::uint32_t q) noexcept {
    const std::uint32_t slot = min_slot[q];
    const std::uint32_t* off = level_off + q * kMaxLevels;
    const std::uint32_t levels = num_levels[q];
    std::uint32_t idx = slot;
    std::uint32_t l = 0;
    while (true) {
      std::uint64_t& w = words[off[l] + (idx >> 6)];
      w &= ~(std::uint64_t{1} << (idx & 63));
      if (w != 0) {
        std::uint32_t next =
            (idx & ~63u) + static_cast<std::uint32_t>(std::countr_zero(w));
        for (std::uint32_t l2 = l; l2-- > 0;) {
          next = (next << 6) + static_cast<std::uint32_t>(
                                   std::countr_zero(words[off[l2] + next]));
        }
        min_slot[q] = next;
        return slot;
      }
      if (++l == levels) {
        min_slot[q] = UINT32_MAX;
        return slot;
      }
      idx >>= 6;
    }
  }
};

[[noreturn]] void reject(const char* caller, const char* what) {
  throw std::invalid_argument(std::string(caller) + ": " + what);
}

}  // namespace

std::size_t run_dispatch_kernel(const char* caller, const Instance& instance,
                                const Placement& placement,
                                const Realization& actual,
                                const std::vector<TaskId>& priority,
                                std::span<const Time> arrivals,
                                std::span<const Time> initial_ready,
                                std::span<const double> speeds,
                                std::span<const Time> remote_cost, SimWorkspace& ws,
                                Schedule& schedule, DispatchTrace& trace) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n) reject(caller, "placement size mismatch");
  if (placement.num_machines() != m) {
    reject(caller, "placement built for a different machine count");
  }
  if (actual.size() != n) reject(caller, "realization size mismatch");
  if (priority.size() != n) reject(caller, "priority must cover every task");
  // Validation fused with the sortedness probe: generated arrival
  // streams are already non-decreasing, in which case ascending id IS
  // the (time, id) admission order and no sort is needed.
  bool arrivals_sorted = true;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    const Time t = arrivals[j];
    if (!(t >= 0.0) || !std::isfinite(t)) {
      reject(caller, "arrival times must be finite and non-negative");
    }
    arrivals_sorted &= (j == 0 || arrivals[j - 1] <= t);
  }
  Time min_initial = 0;
  if (!initial_ready.empty()) {
    if (initial_ready.size() != m) reject(caller, "initial_ready size mismatch");
    min_initial = initial_ready[0];
    for (Time t : initial_ready) {
      if (!(t >= 0.0) || !std::isfinite(t)) {
        reject(caller, "initial_ready times must be finite and non-negative");
      }
      min_initial = std::min(min_initial, t);
    }
  }
  if (!speeds.empty()) {
    if (speeds.size() != m) reject(caller, "speeds size mismatch");
    for (double s : speeds) {
      if (!(s > 0.0)) reject(caller, "speeds must be positive");
    }
  }
  if (!remote_cost.empty() && (!arrivals.empty() || remote_cost.size() != n)) {
    reject(caller, "remote costs need an offline run and one cost per task");
  }
  for (Time c : remote_cost) {
    if (!(c >= 0.0)) reject(caller, "remote costs must be non-negative");
  }

  // Equal-time cohort, decided before the build passes: every task is
  // released at one instant no later than the first machine's ready
  // time, so the stream is exhausted before anything dispatches. Offline
  // dispatch (no arrivals) always is one.
  const bool cohort = arrivals.empty() || (arrivals_sorted &&
                                           arrivals.front() == arrivals.back() &&
                                           arrivals.front() <= min_initial);

  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  // CSR layout of the replica-set queues (sizes precomputed by the
  // interning). Filling in priority order makes each queue's slice
  // already rank-sorted -- no comparison sort needed.
  const std::uint32_t num_queues = placement.num_distinct_sets();
  const std::span<std::uint32_t> queue_begin =
      arena.allocate_span<std::uint32_t>(num_queues + 1);
  queue_begin[0] = 0;
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    queue_begin[q + 1] = queue_begin[q] + placement.set_population(q);
  }

  // CSR of which queues each machine serves.
  const std::span<std::uint32_t> machine_degree =
      arena.make_span<std::uint32_t>(m, 0);
  std::uint32_t max_degree = 0;
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    for (MachineId i : placement.distinct_set(q)) {
      max_degree = std::max(max_degree, ++machine_degree[i]);
    }
  }
  const std::span<std::uint32_t> machine_begin =
      arena.allocate_span<std::uint32_t>(m + 1);
  machine_begin[0] = 0;
  for (MachineId i = 0; i < m; ++i) {
    machine_begin[i + 1] = machine_begin[i] + machine_degree[i];
  }
  const std::span<std::uint32_t> machine_fill = machine_degree;  // spent counts
  std::copy_n(machine_begin.begin(), m, machine_fill.begin());
  const std::span<std::uint32_t> machine_queues =
      arena.allocate_span<std::uint32_t>(machine_begin[m]);
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    for (MachineId i : placement.distinct_set(q)) {
      machine_queues[machine_fill[i]++] = q;
    }
  }
  // Disjoint replica sets need no rank comparisons (see pick below), so
  // queue_ranks is only materialized when some machine serves two queues.
  const bool single_queue_machines = max_degree <= 1;
  const std::span<std::uint32_t> machine_queue_of =
      arena.allocate_span<std::uint32_t>(m);
  for (MachineId i = 0; i < m; ++i) {
    machine_queue_of[i] = machine_begin[i] < machine_begin[i + 1]
                              ? machine_queues[machine_begin[i]]
                              : UINT32_MAX;
  }

  // Single pass over the priority order: permutation validation (a seen-
  // bitset -- n bits, not an n-word rank array) fused with the queue
  // fill. queue_ranks / queue_durations are position-indexed companions
  // to queue_tasks: the dispatch loop reads the front task's rank and
  // duration at its CSR position, a streaming access per queue. Looking
  // up rank[...] / actual[...] inside the loop instead would be a
  // serialized random cache miss per event; here the misses overlap
  // across independent iterations. queue_slot_of packs (queue << 32 |
  // slot) per task, so admission reads one word; cohort runs never admit.
  const std::span<std::uint64_t> seen =
      arena.make_span<std::uint64_t>((n + 63) / 64, 0);
  const std::span<TaskId> queue_tasks = arena.allocate_span<TaskId>(n);
  const std::span<std::uint64_t> queue_slot_of =
      cohort ? std::span<std::uint64_t>{} : arena.allocate_span<std::uint64_t>(n);
  const std::span<std::uint32_t> queue_ranks =
      single_queue_machines ? std::span<std::uint32_t>{}
                            : arena.allocate_span<std::uint32_t>(n);
  const std::span<Time> queue_durations = arena.allocate_span<Time>(n);
  // Fill cursors; each ends at queue_begin[q + 1].
  const std::span<std::uint32_t> queue_fill =
      arena.allocate_span<std::uint32_t>(num_queues);
  for (std::uint32_t q = 0; q < num_queues; ++q) queue_fill[q] = queue_begin[q];
  for (std::uint32_t r = 0; r < n; ++r) {
    const TaskId j = priority[r];
    if (j >= n || ((seen[j / 64] >> (j % 64)) & 1u) != 0) {
      reject(caller, "priority is not a permutation");
    }
    seen[j / 64] |= std::uint64_t{1} << (j % 64);
    const std::uint32_t q = placement.set_id(j);
    const std::uint32_t pos = queue_fill[q]++;
    queue_tasks[pos] = j;
    if (!cohort) queue_slot_of[j] = (std::uint64_t{q} << 32) | (pos - queue_begin[q]);
    if (!single_queue_machines) queue_ranks[pos] = r;
    queue_durations[pos] = actual[j];
  }

  // Drain-tail ranges: [tail_head[q], tail_end[q]) indexes tail_pos, the
  // compacted CSR positions of each queue's admitted, unstarted tasks.
  // A cohort's tail is every queue's full slice, so tail_pos is the
  // identity and is never materialized; the spent fill cursors already
  // hold each slice's end. Streaming runs overwrite both at compaction.
  const std::span<std::uint32_t> tail_head =
      arena.allocate_span<std::uint32_t>(num_queues);
  const std::span<std::uint32_t> tail_end = queue_fill;
  for (std::uint32_t q = 0; q < num_queues; ++q) tail_head[q] = queue_begin[q];

  // Streaming-only state.
  QueueBitmaps bitmaps;
  std::span<std::uint32_t> tail_pos;
  std::span<TaskId> order;  ///< admission order (time, id); empty = id order
  /// 1 while the machine is out of the pool, idle with no admitted work
  /// but more arrivals possible on its queues; an admission to one of
  /// those queues may re-insert it ready at the arrival time (see wake).
  std::span<std::uint8_t> parked;
  /// Queue a woken machine was woken for, ~0u once it has dispatched.
  std::span<std::uint32_t> woken_for;
  /// CSR of each queue's members (its replica set, ascending id), the
  /// transpose of machine_queues.
  std::span<std::uint32_t> member_begin;
  std::span<MachineId> members;
  if (!cohort) {
    bitmaps = QueueBitmaps::build(arena, placement);
    tail_pos = arena.allocate_span<std::uint32_t>(n);
    parked = arena.make_span<std::uint8_t>(m, 0);
    woken_for = arena.make_span<std::uint32_t>(m, UINT32_MAX);
    member_begin = arena.allocate_span<std::uint32_t>(num_queues + 1);
    members = arena.allocate_span<MachineId>(machine_begin[m]);
    member_begin[0] = 0;
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      const std::vector<MachineId>& set = placement.distinct_set(q);
      std::copy(set.begin(), set.end(), members.begin() + member_begin[q]);
      member_begin[q + 1] = member_begin[q] + static_cast<std::uint32_t>(set.size());
    }
    if (!arrivals_sorted) {
      order = arena.allocate_span<TaskId>(n);
      std::iota(order.begin(), order.end(), TaskId{0});
      std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
        if (arrivals[a] != arrivals[b]) return arrivals[a] < arrivals[b];
        return a < b;
      });
    }
  }
  std::uint32_t parked_count = 0;

  schedule.assignment.machine_of.resize(n);
  schedule.start.resize(n);
  schedule.finish.resize(n);
  // The chronological trace is written with raw indexed stores into a
  // pre-sized vector (exactly n events are produced -- every task is
  // dispatched once), skipping push_back's per-event capacity check.
  trace.events.resize(n);
  DispatchEvent* const trace_out = trace.events.data();
  std::size_t emitted = 0;

  ReadyHeap pool;
  pool.init(arena, m, initial_ready);

  // Two sources of "now": the next arrival (cursor into the admission
  // order) and the next machine to come free (pool top). Ties go to the
  // arrival -- every task arriving at time t is admitted before any
  // machine freed at t dispatches, so a batch of simultaneous arrivals is
  // fully visible to every machine. Machines freed or woken at the same
  // instant leave the pool in id order.
  //
  // The loop runs in batches: admit every arrival due by the time the
  // next machine frees, then dispatch every machine freeing before the
  // next arrival. A cohort is the stream exhausted up front: it starts
  // in tail mode with everything admitted, and the dispatch phase is one
  // uninterrupted run.
  const Time kNever = std::numeric_limits<Time>::infinity();
  bool tail_mode = cohort;
  std::size_t cursor = cohort ? n : 0;
  std::size_t backlog = cursor;
  std::size_t peak_backlog = cursor;
  TaskId next_task = 0;
  Time next_when = kNever;
  if (!cohort) {
    next_task = order.empty() ? TaskId{0} : order[0];
    next_when = arrivals[next_task];
  }
  std::size_t remaining = n;

  // Greedy selection, shared by both dispatch loops below. `front(q)` is
  // the CSR position of queue q's highest-priority eligible task, ~0u when
  // it has none: a head pointer in the frozen tail, the cached minimum
  // admitted slot while arrivals flow. With every machine serving at most
  // one queue (disjoint replica sets -- the group-replication regime) a
  // machine's next task is its sole queue's front, read through the
  // direct machine -> queue map with no rank comparison; otherwise it is
  // the lowest-rank front among the machine's queues. Returns
  // (queue, position), queue ~0u when the machine has nothing to run.
  const auto pick = [&](MachineId i, const auto& front) {
    std::uint32_t best_queue = UINT32_MAX;
    std::uint32_t best_pos = UINT32_MAX;
    if (single_queue_machines) {
      const std::uint32_t q = machine_queue_of[i];
      if (q != UINT32_MAX) best_pos = front(q);
      if (best_pos != UINT32_MAX) best_queue = q;
      return std::pair{best_queue, best_pos};
    }
    std::uint32_t best_rank = UINT32_MAX;
    for (std::uint32_t k = machine_begin[i]; k < machine_begin[i + 1]; ++k) {
      const std::uint32_t q = machine_queues[k];
      const std::uint32_t pos = front(q);
      if (pos == UINT32_MAX) continue;
      if (queue_ranks[pos] < best_rank) {
        best_rank = queue_ranks[pos];
        best_queue = q;
        best_pos = pos;
      }
    }
    return std::pair{best_queue, best_pos};
  };
  const auto tail_front = [&](std::uint32_t q) {
    const std::uint32_t h = tail_head[q];
    if (h == tail_end[q]) return UINT32_MAX;
    return cohort ? h : tail_pos[h];
  };
  const auto admitted_front = [&](std::uint32_t q) {
    const std::uint32_t slot = bitmaps.min_slot[q];
    return slot == UINT32_MAX ? UINT32_MAX : queue_begin[q] + slot;
  };
  // Records machine i starting task j, of realized time `work`, at time
  // `start`; returns the task's duration on i.
  const auto record_start = [&](MachineId i, TaskId j, Time work, Time start) {
    const Time duration = speeds.empty() ? work : work / speeds[i];
    trace_out[emitted++] = DispatchEvent{start, j, i, duration};
    --remaining;
    return duration;
  };
  // Runs the task at CSR position `pos` on machine i, the pool's top.
  const auto run_top = [&](MachineId i, std::uint32_t pos) {
    pool.occupy_top(record_start(i, queue_tasks[pos], queue_durations[pos],
                                 pool.top_ready()));
    --backlog;
  };
  // Remote tier (cohort runs only). Machine i, the pool's top, has no
  // local work: it runs the best-ranked unstarted task anywhere, plus its
  // remote cost. Every better-ranked task has started, so that task is
  // its queue's front; the cursor skips tasks that are not (started).
  std::size_t remote_cursor = 0;
  const auto run_remote = [&](MachineId i) {
    TaskId j = priority[remote_cursor];
    std::uint32_t q = placement.set_id(j);
    std::uint32_t pos = tail_front(q);
    while (pos == UINT32_MAX || queue_tasks[pos] != j) {
      j = priority[++remote_cursor];
      q = placement.set_id(j);
      pos = tail_front(q);
    }
    ++tail_head[q];
    pool.occupy_top(
        record_start(i, j, queue_durations[pos] + remote_cost[j], pool.top_ready()));
    --backlog;
  };

  // Wake one. An admission to queue q at time t re-inserts only the
  // lowest-id parked member of q, ready at t. Waking every parked member
  // would change nothing: all of them would pop at t in id order, the
  // lowest would take the task, and the rest would find every queue they
  // serve empty and park again. The one exception is a woken machine
  // that serves a second queue holding a better-ranked task: it takes
  // that instead (see hand_off). Each admission wakes one more member, so
  // a queue with k new tasks has its k lowest parked members in the pool.
  std::uint32_t woken_pending = 0;  ///< machines with woken_for set
  const auto lowest_parked = [&](std::uint32_t q) {
    for (std::uint32_t k = member_begin[q]; k < member_begin[q + 1]; ++k) {
      if (parked[members[k]] != 0) return members[k];
    }
    return kNoMachine;
  };
  const auto unpark = [&](MachineId i) {
    parked[i] = 0;
    --parked_count;
  };
  const auto wake = [&](MachineId i, std::uint32_t q, Time t) {
    unpark(i);
    woken_for[i] = q;
    ++woken_pending;
    pool.push(t, i);
  };
  // Hand-off. Machine i, the pool's top at time t, has picked queue
  // `took` (~0u: nothing). If it was woken for another queue that still
  // holds admitted tasks, the wake passes to that queue's next parked
  // member at t, which waking all would have let take the task. Its id
  // exceeds i's (wakes go lowest id first), so it pops after i at t,
  // exactly where it would have popped had it been woken at admission.
  const auto hand_off = [&](MachineId i, std::uint32_t took, Time t,
                            const auto& front) {
    const std::uint32_t w = woken_for[i];
    if (w == UINT32_MAX) return;
    woken_for[i] = UINT32_MAX;
    --woken_pending;
    if (took == w || front(w) == UINT32_MAX) return;
    const MachineId next = lowest_parked(w);
    if (next != kNoMachine) wake(next, w, t);
  };
  // True when a machine ready at (t, i) would leave the pool before
  // every machine now in it.
  const auto precedes_pool = [&](Time t, MachineId i) {
    return pool.empty() || pool.top_ready() > t ||
           (pool.top_ready() == t && pool.top() > i);
  };

  while (remaining > 0) {
    // --- admission phase -------------------------------------------------
    // Backlog accounting is batched: within one admission burst backlog
    // only rises (dispatches happen in the other phase), so the peak
    // check runs once per burst instead of once per task.
    Time next_free = pool.empty() ? kNever : pool.top_ready();
    if (cursor < n && next_when <= next_free) {
      const std::size_t burst_start = cursor;
      bool started_directly = false;
      do {
        const TaskId j = next_task;
        const Time t = next_when;
        const std::uint64_t qs = queue_slot_of[j];
        const auto q = static_cast<std::uint32_t>(qs >> 32);
        const auto slot = static_cast<std::uint32_t>(qs);
        if (++cursor >= n) {
          next_when = kNever;
        } else {
          next_task = order.empty() ? static_cast<TaskId>(cursor) : order[cursor];
          next_when = arrivals[next_task];
        }
        const MachineId p = parked_count > 0 ? lowest_parked(q) : kNoMachine;
        if (p != kNoMachine && next_when > t && precedes_pool(t, p)) {
          // Direct start. With no other arrival at t, the machine woken
          // here would be the next to leave the pool, and it would take
          // this task: p parked with every queue it serves empty, and an
          // earlier admission at t to any of them would have woken p or
          // a lower id. So start the task now -- one push at its finish
          // time instead of a push at t, a pop and an admission bit. The
          // burst ends here, as it would after a wake, so the backlog
          // peak counts the task exactly as the two-phase order does. The
          // realized time is read by task id, in arrival order, rather
          // than at the task's scattered queue position.
          unpark(p);
          pool.push(t + record_start(p, j, actual.actual[j], t), p);
          started_directly = true;
          break;
        }
        bitmaps.set(q, slot);
        if (p != kNoMachine) {
          wake(p, q, t);
          // A woken machine may now free before later arrivals in this
          // batch; re-read the horizon so it dispatches in between.
          next_free = t;
        }
      } while (cursor < n && next_when <= next_free);
      backlog += cursor - burst_start;
      peak_backlog = std::max(peak_backlog, backlog);
      if (started_directly) --backlog;
    }
    if (!tail_mode && cursor >= n) {
      // Stream exhausted: freeze the admitted set. Every pop from here
      // on takes each queue's set bits in ascending slot order, so one
      // O(n/64) word walk compacts the survivors into tail_pos and the
      // bitmaps retire -- the (usually long) drain tail runs on head
      // pointers instead of a read-modify-write per dispatch.
      for (std::uint32_t q = 0; q < num_queues; ++q) {
        const std::uint64_t* w = bitmaps.words + bitmaps.level_off[q * kMaxLevels];
        const std::uint32_t base = queue_begin[q];
        const std::uint32_t nw = (queue_begin[q + 1] - base + 63) / 64;
        std::uint32_t write = base;
        tail_head[q] = base;
        for (std::uint32_t k = 0; k < nw; ++k) {
          std::uint64_t bits = w[k];
          const std::uint32_t word_base = base + k * 64;
          while (bits != 0) {
            tail_pos[write++] =
                word_base + static_cast<std::uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
          }
        }
        tail_end[q] = write;
      }
      tail_mode = true;
    }
    if (pool.empty()) {
      // Unreachable for a valid placement: machines only stop (neither
      // busy nor parked) once their queues are drained AND fully arrived.
      throw std::logic_error(std::string(caller) +
                             ": deadlock (all machines stopped)");
    }

    // --- dispatch phase --------------------------------------------------
    if (tail_mode) {
      // Frozen tail: the stream is exhausted (next_when is infinite, so
      // no time guard), fronts are head pointers, and machines out of
      // work retire for good. Machines woken by the last admissions pop
      // first, at the last arrival time, and may still hand off; the rest
      // of the tail (all of a cohort run) skips the hand-off check. A
      // machine out of local work retires, or with remote costs (cohort
      // only) takes the remote tier: a separate instantiation, so the
      // plain tail loop is unchanged.
      const auto retire = [&](MachineId) { pool.retire_top(); };
      const auto tail_dispatch = [&](auto may_hand_off, const auto& out_of_work) {
        const MachineId i = pool.top();
        const auto [q, pos] = pick(i, tail_front);
        if constexpr (decltype(may_hand_off)::value) {
          hand_off(i, q, pool.top_ready(), tail_front);
        }
        if (q == UINT32_MAX) {
          out_of_work(i);
          return;
        }
        ++tail_head[q];
        run_top(i, pos);
      };
      while (woken_pending > 0 && remaining > 0) tail_dispatch(std::true_type{}, retire);
      if (remote_cost.empty()) {
        while (remaining > 0 && !pool.empty()) tail_dispatch(std::false_type{}, retire);
      } else {
        while (remaining > 0) tail_dispatch(std::false_type{}, run_remote);
      }
      continue;
    }
    while (remaining > 0 && !pool.empty() && pool.top_ready() < next_when) {
      const MachineId i = pool.top();
      const auto [q, pos] = pick(i, admitted_front);
      if (woken_pending > 0) hand_off(i, q, pool.top_ready(), admitted_front);
      if (q == UINT32_MAX) {
        // Nothing admitted but arrivals are still flowing: park until an
        // admission to one of this machine's queues wakes it (wake,
        // hand_off). A machine parked on queues that never refill simply
        // sleeps until the run ends.
        pool.retire_top();
        parked[i] = 1;
        ++parked_count;
        continue;
      }
      bitmaps.pop_min(q);
      run_top(i, pos);
    }
  }

  // Scatter the chronological trace into the task-indexed schedule. Every
  // task appears exactly once (the loop above runs to remaining == 0), so
  // no pre-fill is needed; finish = start + duration reproduces
  // ReadyHeap::occupy_top's arithmetic bit-for-bit. One pass per output
  // array: each pass's random stores then span one array's pages instead
  // of three, which measures ~20% faster than a fused scatter.
  for (const DispatchEvent& e : trace.events) {
    schedule.assignment.machine_of[e.task] = e.machine;
  }
  for (const DispatchEvent& e : trace.events) {
    schedule.start[e.task] = e.when;
  }
  for (const DispatchEvent& e : trace.events) {
    schedule.finish[e.task] = e.when + e.actual;
  }
  return peak_backlog;
}

void record_dispatch_timeline(const Schedule& schedule,
                              std::span<const Time> arrivals) {
  obs::TimelineRecorder* const tl = obs::timeline();
  if (tl == nullptr) return;
  const std::size_t n = schedule.num_tasks();
  const std::size_t arrive_events = arrivals.empty() ? 0 : n;
  const auto block = tl->reserve(arrive_events + 2 * n);
  // Capacity may clamp the block; truncate segment by segment.
  const std::size_t na = std::min(arrive_events, block.count);
  const std::size_t ns = std::min(n, block.count - na);
  const std::size_t nf = std::min(n, block.count - na - ns);
  std::copy_n(arrivals.data(), na, block.when);
  std::copy_n(schedule.start.data(), ns, block.when + na);
  std::copy_n(schedule.finish.data(), nf, block.when + na + ns);
  std::iota(block.task, block.task + na, TaskId{0});
  std::iota(block.task + na, block.task + na + ns, TaskId{0});
  std::iota(block.task + na + ns, block.task + na + ns + nf, TaskId{0});
  const MachineId* const machine_of = schedule.assignment.machine_of.data();
  std::fill_n(block.machine, na, obs::kTimelineNone);
  std::copy_n(machine_of, ns, block.machine + na);
  std::copy_n(machine_of, nf, block.machine + na + ns);
  // kArrive doubles as admission: the streaming service admits at arrival.
  std::memset(block.kind, static_cast<int>(obs::TimelineEventKind::kArrive), na);
  std::memset(block.kind + na, static_cast<int>(obs::TimelineEventKind::kStart),
              ns);
  std::memset(block.kind + na + ns,
              static_cast<int>(obs::TimelineEventKind::kFinish), nf);
}

}  // namespace rdp
