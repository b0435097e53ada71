// Minimal discrete-event-simulation core: a time-ordered event queue with
// FIFO tie-breaking, and a Simulator driving std::function events. The
// phase-2 dispatch kernel uses the specialized ReadyHeap instead for
// speed, but examples and tests exercise this general engine directly.
//
// Since the hot-path rewrite the queue is a bucketed calendar queue
// (sim/calendar_queue.hpp) instead of a binary heap, and pop() *moves*
// the event out -- the old copy-out pop paid a heap allocation per event
// for any payload with out-of-line state (std::function handlers being
// the canonical case) and required payloads to be copyable at all.
#pragma once

#include <cstdint>
#include <functional>
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

/// Callback-driven simulator. Events may schedule further events; run()
/// processes until the queue drains and returns the final clock value.
class Simulator {
 public:
  using Handler = std::function<void(Simulator&)>;

  /// Schedules `handler` at absolute time `when` (must be >= now()).
  void schedule_at(Time when, Handler handler);

  /// Schedules `handler` `delay` time units after now().
  void schedule_in(Time delay, Handler handler);

  /// Current simulation clock.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of events processed so far.
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Runs to completion; returns the time of the last processed event.
  Time run();

 private:
  EventQueue<Handler> queue_;
  Time now_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace rdp
