// Tests for the DES event queue (EventQueue), the ReadyHeap machine
// heap, and the online semi-clairvoyant dispatcher.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "sim/event_queue.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/ready_heap.hpp"
#include "sim/trace.hpp"

namespace rdp {
namespace {

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue<int> q;
  q.push(2.0, 10);
  q.push(1.0, 20);
  q.push(1.0, 30);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);  // FIFO among equal times
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_TRUE(q.empty());
}

TEST(ReadyHeap, NextIdlePrefersEarliestThenLowestId) {
  MonotonicArena arena;
  ReadyHeap heap;
  const std::vector<Time> initial = {3.0, 1.0, 1.0};
  heap.init(arena, 3, initial);
  EXPECT_EQ(heap.top(), MachineId{1});
  EXPECT_DOUBLE_EQ(heap.top_ready(), 1.0);
  heap.occupy_top(5.0);  // machine 1 busy until 6
  EXPECT_EQ(heap.top(), MachineId{2});
  heap.occupy_top(1.0);  // machine 2 busy until 2
  EXPECT_EQ(heap.top(), MachineId{2});
  heap.occupy_top(1.0);  // machine 2 busy until 3: ties machine 0, lower id wins
  EXPECT_EQ(heap.top(), MachineId{0});
}

TEST(ReadyHeap, OccupyReturnsInterval) {
  MonotonicArena arena;
  ReadyHeap heap;
  heap.init(arena, 2, {});
  ASSERT_EQ(heap.top(), MachineId{0});
  const auto [s, f] = heap.occupy_top(2.5);
  EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(f, 2.5);
  ASSERT_EQ(heap.top(), MachineId{1});
  const auto [s1, f1] = heap.occupy_top(4.0);
  EXPECT_DOUBLE_EQ(s1, 0.0);
  EXPECT_DOUBLE_EQ(f1, 4.0);
  ASSERT_EQ(heap.top(), MachineId{0});
  const auto [s2, f2] = heap.occupy_top(1.0);
  EXPECT_DOUBLE_EQ(s2, 2.5);
  EXPECT_DOUBLE_EQ(f2, 3.5);
}

TEST(ReadyHeap, RetiredMachinesAreSkipped) {
  MonotonicArena arena;
  ReadyHeap heap;
  heap.init(arena, 2, {});
  heap.retire_top();  // machine 0
  ASSERT_FALSE(heap.empty());
  EXPECT_EQ(heap.top(), MachineId{1});
  heap.retire_top();
  EXPECT_TRUE(heap.empty());
  // A retired machine comes back only through push (a parked machine
  // woken by an arrival).
  heap.push(7.0, 0);
  ASSERT_FALSE(heap.empty());
  EXPECT_EQ(heap.top(), MachineId{0});
  EXPECT_DOUBLE_EQ(heap.top_ready(), 7.0);
}

TEST(ReadyHeap, SelectionOrderMatchesLinearScanOracle) {
  // Long churn with occasional retire + re-push (the streaming park/wake
  // cycle); every pick is checked against a naive min-(ready, id) scan
  // over the same state.
  constexpr MachineId kMachines = 5;
  MonotonicArena arena;
  ReadyHeap heap;
  const std::vector<Time> initial = {2.0, 0.0, 2.0, 1.0, 0.0};
  heap.init(arena, kMachines, initial);
  std::vector<Time> ready = initial;
  for (int step = 0; step < 2000; ++step) {
    MachineId expected = 0;
    for (MachineId i = 1; i < kMachines; ++i) {
      if (ready[i] < ready[expected]) expected = i;
    }
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(heap.top(), expected) << "divergence at step " << step;
    ASSERT_EQ(heap.top_ready(), ready[expected]) << "at step " << step;
    if (step % 7 == 3) {
      heap.retire_top();
      ready[expected] += 1.0;
      heap.push(ready[expected], expected);
      continue;
    }
    const Time d = static_cast<double>(1 + (step * 7) % 5);
    heap.occupy_top(d);
    ready[expected] += d;
  }
}

Instance five_tasks(MachineId m, double alpha = 1.5) {
  return Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0}, m, alpha);
}

TEST(Dispatcher, SingletonPlacementIsStatic) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::singleton({0, 1, 0, 1, 0}, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, make_priority(inst, PriorityRule::kInputOrder));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  EXPECT_EQ(check_schedule(inst, r, d.schedule, /*require_no_idle=*/true), "");
  EXPECT_DOUBLE_EQ(d.schedule.makespan(), 9.0);  // 5+3+1 on machine 0
}

TEST(Dispatcher, EverywherePlacementMatchesOnlineLptLoads) {
  // With exact realization, online LPT dispatch over full replication
  // produces the same machine loads as offline LPT.
  const Instance inst = five_tasks(3);
  const Placement p = Placement::everywhere(5, 3);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  const GreedyScheduleResult offline = lpt_schedule(inst.estimates(), 3);
  EXPECT_DOUBLE_EQ(d.schedule.makespan(), offline.makespan);
}

TEST(Dispatcher, GroupPlacementKeepsTasksInTheirGroup) {
  const Instance inst = five_tasks(4);
  const Placement p = Placement::in_groups({0, 1, 0, 1, 0}, 2, 4);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, make_priority(inst, PriorityRule::kInputOrder));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  // Tasks 0,2,4 only on machines {0,1}; tasks 1,3 only on {2,3}.
  EXPECT_LT(d.schedule.assignment[0], 2u);
  EXPECT_GE(d.schedule.assignment[1], 2u);
}

TEST(Dispatcher, ReactsToActualTimesNotEstimates) {
  // Two machines, both idle at 0. Task 0 (estimate 10) runs on m0, task 1
  // (estimate 9) on m1. Task 2 should go to whichever finishes first --
  // under the realization, m1's task is slow, so m0 takes task 2.
  Instance inst = Instance::from_estimates({10.0, 9.0, 1.0}, 2, 2.0);
  const Placement p = Placement::everywhere(3, 2);
  Realization r{{5.0, 18.0, 1.0}};
  ASSERT_TRUE(respects_uncertainty(inst, r));
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(d.schedule.assignment[0], 0u);
  EXPECT_EQ(d.schedule.assignment[1], 1u);
  EXPECT_EQ(d.schedule.assignment[2], 0u);  // m0 idle at 5 < m1 at 18
  EXPECT_DOUBLE_EQ(d.schedule.start[2], 5.0);
}

TEST(Dispatcher, InitialReadyDelaysDispatch) {
  Instance inst = Instance::from_estimates({1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(1, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, {0}, std::vector<Time>{4.0, 7.0});
  EXPECT_EQ(d.schedule.assignment[0], 0u);
  EXPECT_DOUBLE_EQ(d.schedule.start[0], 4.0);
}

TEST(Dispatcher, RejectsWrongSizedInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  // Too short and too long both die at the seam instead of corrupting the
  // machine heap.
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)dispatch_online(inst, p, r, priority, std::vector<Time>{1.0, 2.0, 3.0}),
      std::invalid_argument);
}

TEST(Dispatcher, RejectsNegativeOrNonFiniteInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  EXPECT_THROW(
      (void)dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, -1.0}),
      std::invalid_argument);
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, nan}),
               std::invalid_argument);
  const Time inf = std::numeric_limits<Time>::infinity();
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{inf, 0.0}),
               std::invalid_argument);
}

TEST(Dispatcher, AcceptsZeroInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  const DispatchResult d =
      dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, 0.0});
  EXPECT_DOUBLE_EQ(d.schedule.start[0], 0.0);
}

TEST(Dispatcher, TraceRecordsEveryDispatch) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::everywhere(5, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(d.trace.size(), 5u);
  // First two dispatches happen at time 0 on machines 0 and 1.
  EXPECT_DOUBLE_EQ(d.trace.events[0].when, 0.0);
  EXPECT_DOUBLE_EQ(d.trace.events[1].when, 0.0);
  const std::string text = render_trace(d.trace);
  EXPECT_NE(text.find("task 0"), std::string::npos);
}

TEST(Dispatcher, RejectsMachineCountMismatch) {
  // A placement built for more machines than the instance has would
  // otherwise index out of the dispatcher's per-machine tables.
  const Instance inst = five_tasks(2);
  const Placement wide = Placement::everywhere(5, 4);
  const Realization r = exact_realization(inst);
  EXPECT_THROW((void)dispatch_online(inst, wide, r,
                                     make_priority(inst, PriorityRule::kInputOrder)),
               std::invalid_argument);
}

TEST(Dispatcher, RejectsBadPriority) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::everywhere(5, 2);
  const Realization r = exact_realization(inst);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0, 0, 1, 2, 3}),
               std::invalid_argument);
}

TEST(Dispatcher, GanttRendersOneRowPerMachine) {
  const Instance inst = five_tasks(3);
  const Placement p = Placement::everywhere(5, 3);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  const std::string gantt = render_gantt(inst, d.schedule, 40);
  EXPECT_NE(gantt.find("m0 |"), std::string::npos);
  EXPECT_NE(gantt.find("m2 |"), std::string::npos);
}

// Property: for every placement shape, the dispatched schedule is feasible
// (assignment within M_j, no overlap, no idling) and its makespan equals
// the analytic max machine load.
class DispatcherFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(DispatcherFeasibility, ScheduleFeasibleAndLoadConsistent) {
  const int shape = GetParam();
  const Instance inst = Instance::from_estimates(
      {9.0, 7.0, 5.0, 5.0, 4.0, 3.0, 3.0, 2.0, 1.0, 1.0, 1.0, 0.5}, 4, 2.0);
  Placement p = [&] {
    switch (shape) {
      case 0: return Placement::singleton({0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, 4);
      case 1: return Placement::everywhere(12, 4);
      default: return Placement::in_groups({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2, 4);
    }
  }();
  Realization r{{18.0, 3.5, 10.0, 2.5, 8.0, 1.5, 6.0, 1.0, 2.0, 0.5, 0.5, 1.0}};
  ASSERT_TRUE(respects_uncertainty(inst, r));
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  EXPECT_EQ(check_schedule(inst, r, d.schedule, /*require_no_idle=*/true), "");
  EXPECT_DOUBLE_EQ(d.schedule.makespan(),
                   makespan(d.schedule.assignment, r, inst.num_machines()));
}

INSTANTIATE_TEST_SUITE_P(PlacementShapes, DispatcherFeasibility,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace rdp
