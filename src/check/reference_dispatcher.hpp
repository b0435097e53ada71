// The pre-rewrite simulator core, retained verbatim as an oracle. When
// the hot path moved to the calendar queue + struct-of-arrays workspace,
// the old implementation (binary-heap event queues, AoS state, per-run
// allocation) was kept here so that
//
//  * the differential fuzzer can assert the rewritten dispatcher is
//    bit-exact against it on every fuzzed case, and
//  * the ext_sim_throughput bench can measure the speedup honestly: both
//    cores run in the same binary on the same instance.
//
// Nothing here is used by production code paths.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "core/types.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp {
class Instance;
struct Realization;
}  // namespace rdp

namespace rdp::check {

/// Pre-rewrite dispatch_online: hash-map replica-set bucketing, per-queue
/// comparison sorts, and a lazily-invalidated binary-heap machine pool
/// that pushes a fresh entry per occupy. Semantically identical to
/// rdp::dispatch_online; kept as the bit-exactness reference.
[[nodiscard]] DispatchResult reference_dispatch_online(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, std::vector<Time> initial_ready = {},
    std::vector<double> speeds = {});

/// Naive streaming dispatch: serve_stream's semantics written as the
/// plainest event-by-event loop -- no bitmaps, no parking list, no tail
/// compaction, no equal-time cohort path. Each step is one event: either
/// the next arrival in (time, id) order is admitted (arrivals win ties
/// against machine frees) and wakes every idle machine holding a replica
/// of it, or the idle machine with the smallest (ready, id) scans the
/// priority order for its first admitted, waiting, eligible task, going
/// idle when there is none. O(n + m) work per event, O(n (n + m)) per
/// run. The streaming kernel must reproduce its schedule, trace and peak
/// backlog bit for bit.
[[nodiscard]] StreamingDispatchResult reference_serve_stream(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, std::span<const Time> arrivals,
    std::vector<Time> initial_ready = {}, std::vector<double> speeds = {});

/// Naive dispatch_with_transfers: per step, the (ready, id)-least machine
/// by linear scan runs the first unstarted task in priority order it
/// holds a replica of, else the first unstarted task, paying latency +
/// size / bandwidth extra. O(n (n + m)) per run. The kernel's remote
/// tier must match its schedule, trace, remote_runs and transfer_time
/// bit for bit.
[[nodiscard]] TransferDispatchResult reference_dispatch_with_transfers(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const TransferModel& model);

/// Pre-rewrite EventQueue: std::priority_queue with a (time, seq) wrapper
/// and a *copy-out* pop -- the shape the production queue had before the
/// calendar-queue rewrite. The throughput bench drives both with the same
/// event stream to measure the core speedup.
template <typename Payload>
class LegacyEventQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    Payload payload;

    bool operator<(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;  // min-heap
      return seq > other.seq;
    }
  };

  void push(Time time, Payload payload) {
    queue_.push(Event{time, next_seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] const Event& top() const { return queue_.top(); }

  Event pop() {
    Event out = queue_.top();  // copy: priority_queue::top is const
    queue_.pop();
    return out;
  }

 private:
  std::priority_queue<Event> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rdp::check
