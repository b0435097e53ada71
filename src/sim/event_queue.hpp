// A time-ordered discrete-event queue with FIFO tie-breaking. The
// phase-2 dispatch kernel uses the specialized ReadyHeap instead; this
// general queue is what the simulator-core benches (ext_sim_throughput,
// perf_algorithms) measure against the pre-rewrite binary heap.
//
// Since the hot-path rewrite the queue is a bucketed calendar queue
// (sim/calendar_queue.hpp) instead of a binary heap, and pop() *moves*
// the event out -- the old copy-out pop paid a heap allocation per event
// for any payload with out-of-line state and required payloads to be
// copyable at all.
#pragma once

#include <cstdint>
#include <utility>

#include "core/types.hpp"
#include "sim/calendar_queue.hpp"

namespace rdp {

/// Priority queue of (time, payload) with deterministic FIFO order among
/// equal-time events (insertion sequence breaks ties). Payloads only need
/// to be movable.
template <typename Payload>
class EventQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    Payload payload;
  };

  void push(Time time, Payload payload) {
    queue_.push(Event{time, next_seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] const Event& top() { return queue_.top(); }

  Event pop() { return queue_.pop(); }

 private:
  struct TimeOf {
    Time operator()(const Event& e) const noexcept { return e.time; }
  };
  struct Before {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  CalendarQueue<Event, TimeOf, Before> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rdp
