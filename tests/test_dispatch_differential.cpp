// Differential test: the production dispatcher (shared queues per replica
// set, lazy machine heap) against a deliberately naive reference
// implementation of the same semi-clairvoyant semantics. Random
// placements, priorities, and realizations must produce *identical*
// schedules.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "algo/overlap.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "hetero/uniform_machines.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp {
namespace {

// Naive O(n^2 m) reference: repeatedly take the earliest-idle non-retired
// machine (ties toward the smaller id), give it the highest-priority
// unscheduled task whose replica set contains it, retiring machines that
// have no eligible tasks left.
Schedule reference_dispatch(const Instance& instance, const Placement& placement,
                            const Realization& actual,
                            const std::vector<TaskId>& priority) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;

  std::vector<Time> ready(m, 0);
  std::vector<bool> retired(m, false);
  std::vector<bool> done(n, false);

  Schedule s;
  s.assignment = Assignment(n);
  s.start.assign(n, 0);
  s.finish.assign(n, 0);

  std::size_t remaining = n;
  while (remaining > 0) {
    // Earliest-idle live machine.
    MachineId machine = kNoMachine;
    for (MachineId i = 0; i < m; ++i) {
      if (retired[i]) continue;
      if (machine == kNoMachine || ready[i] < ready[machine]) machine = i;
    }
    if (machine == kNoMachine) {
      ADD_FAILURE() << "reference deadlocked";
      return s;
    }
    // Highest-priority eligible task.
    TaskId best = kNoTask;
    std::uint32_t best_rank = std::numeric_limits<std::uint32_t>::max();
    for (TaskId j = 0; j < n; ++j) {
      if (done[j] || !placement.allows(j, machine)) continue;
      if (rank[j] < best_rank) {
        best_rank = rank[j];
        best = j;
      }
    }
    if (best == kNoTask) {
      retired[machine] = true;
      continue;
    }
    done[best] = true;
    s.assignment.machine_of[best] = machine;
    s.start[best] = ready[machine];
    s.finish[best] = ready[machine] + actual[best];
    ready[machine] = s.finish[best];
    --remaining;
  }
  return s;
}

void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (TaskId j = 0; j < a.num_tasks(); ++j) {
    EXPECT_EQ(a.assignment[j], b.assignment[j]) << "task " << j;
    EXPECT_DOUBLE_EQ(a.start[j], b.start[j]) << "task " << j;
    EXPECT_DOUBLE_EQ(a.finish[j], b.finish[j]) << "task " << j;
  }
}

struct FuzzCase {
  std::uint64_t seed;
  std::size_t n;
  MachineId m;
};

class DispatchDifferential : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DispatchDifferential, RandomSubsetPlacementsAgree) {
  const auto [seed, n, m] = GetParam();
  Xoshiro256 rng(seed);

  std::vector<Time> estimates;
  for (std::size_t j = 0; j < n; ++j) {
    estimates.push_back(sample_uniform(rng, 1.0, 10.0));
  }
  const Instance inst = Instance::from_estimates(estimates, m, 2.0);

  // Fully random replica sets with random sizes in [1, m].
  std::vector<std::vector<MachineId>> sets(n);
  for (auto& set : sets) {
    const auto degree = 1 + static_cast<MachineId>(rng.next_below(m));
    std::vector<MachineId> pool(m);
    for (MachineId i = 0; i < m; ++i) pool[i] = i;
    shuffle(rng, pool);
    set.assign(pool.begin(), pool.begin() + degree);
  }
  const Placement placement(std::move(sets), m);

  // Random priority permutation.
  std::vector<TaskId> priority(n);
  for (TaskId j = 0; j < n; ++j) priority[j] = j;
  shuffle(rng, priority);

  // Random realization within the band.
  Realization actual;
  for (std::size_t j = 0; j < n; ++j) {
    actual.actual.push_back(estimates[j] * sample_uniform(rng, 0.5, 2.0));
  }
  ASSERT_TRUE(respects_uncertainty(inst, actual));

  const DispatchResult fast = dispatch_online(inst, placement, actual, priority);
  const Schedule reference = reference_dispatch(inst, placement, actual, priority);
  expect_identical(fast.schedule, reference);
}

std::vector<FuzzCase> fuzz_grid() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1;
  for (std::size_t n : {1u, 5u, 20u, 57u}) {
    for (MachineId m : {1u, 3u, 7u}) {
      for (int rep = 0; rep < 3; ++rep) {
        cases.push_back({seed++, n, m});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DispatchDifferential, ::testing::ValuesIn(fuzz_grid()));

// The specialized dispatchers must collapse to the plain one when their
// extra machinery is inert: failures with an empty plan, transfers with
// full replication (no fetches), speculation disabled. Run over the same
// random grid.
class DispatcherFamilyEquivalence : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DispatcherFamilyEquivalence, DegenerateConfigsMatchPlain) {
  const auto [seed, n, m] = GetParam();
  Xoshiro256 rng(seed * 31 + 5);
  std::vector<Time> estimates;
  for (std::size_t j = 0; j < n; ++j) {
    estimates.push_back(sample_uniform(rng, 1.0, 10.0));
  }
  const Instance inst = Instance::from_estimates(estimates, m, 2.0);
  const Placement placement = Placement::everywhere(n, m);
  std::vector<TaskId> priority(n);
  for (TaskId j = 0; j < n; ++j) priority[j] = j;
  shuffle(rng, priority);
  Realization actual;
  for (std::size_t j = 0; j < n; ++j) {
    actual.actual.push_back(estimates[j] * sample_uniform(rng, 0.5, 2.0));
  }

  const DispatchResult plain = dispatch_online(inst, placement, actual, priority);

  const FailureDispatchResult no_failures =
      dispatch_with_failures(inst, placement, actual, priority, FailurePlan{});
  expect_identical(plain.schedule, no_failures.schedule);

  TransferModel model;  // full replication: bandwidth irrelevant
  model.bandwidth = 1e-3;
  const TransferDispatchResult transfers =
      dispatch_with_transfers(inst, placement, actual, priority, model);
  expect_identical(plain.schedule, transfers.schedule);
  EXPECT_EQ(transfers.remote_runs, 0u);

  SpeculationPolicy off;
  off.max_copies = 1;
  const SpeculativeResult spec = dispatch_speculative(
      inst, placement, actual, priority, SpeedProfile::identical(m), off);
  expect_identical(plain.schedule, spec.schedule);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DispatcherFamilyEquivalence,
                         ::testing::ValuesIn(fuzz_grid()));

// Speed-scaled reference: same greedy semantics with durations divided
// by machine speed.
Schedule reference_dispatch_uniform(const Instance& instance,
                                    const Placement& placement,
                                    const Realization& actual,
                                    const std::vector<TaskId>& priority,
                                    const std::vector<double>& speeds) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;
  std::vector<Time> ready(m, 0);
  std::vector<bool> retired(m, false);
  std::vector<bool> done(n, false);
  Schedule s;
  s.assignment = Assignment(n);
  s.start.assign(n, 0);
  s.finish.assign(n, 0);
  std::size_t remaining = n;
  while (remaining > 0) {
    MachineId machine = kNoMachine;
    for (MachineId i = 0; i < m; ++i) {
      if (retired[i]) continue;
      if (machine == kNoMachine || ready[i] < ready[machine]) machine = i;
    }
    if (machine == kNoMachine) {
      ADD_FAILURE() << "uniform reference deadlocked";
      return s;
    }
    TaskId best = kNoTask;
    std::uint32_t best_rank = std::numeric_limits<std::uint32_t>::max();
    for (TaskId j = 0; j < n; ++j) {
      if (done[j] || !placement.allows(j, machine)) continue;
      if (rank[j] < best_rank) {
        best_rank = rank[j];
        best = j;
      }
    }
    if (best == kNoTask) {
      retired[machine] = true;
      continue;
    }
    done[best] = true;
    s.assignment.machine_of[best] = machine;
    s.start[best] = ready[machine];
    s.finish[best] = ready[machine] + actual[best] / speeds[machine];
    ready[machine] = s.finish[best];
    --remaining;
  }
  return s;
}

class DispatchDifferentialUniform : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DispatchDifferentialUniform, SpeedScaledPathAgrees) {
  const auto [seed, n, m] = GetParam();
  Xoshiro256 rng(seed * 17 + 3);
  std::vector<Time> estimates;
  for (std::size_t j = 0; j < n; ++j) {
    estimates.push_back(sample_uniform(rng, 1.0, 10.0));
  }
  const Instance inst = Instance::from_estimates(estimates, m, 2.0);
  const Placement placement = Placement::everywhere(n, m);
  std::vector<TaskId> priority(n);
  for (TaskId j = 0; j < n; ++j) priority[j] = j;
  shuffle(rng, priority);
  Realization actual;
  for (std::size_t j = 0; j < n; ++j) {
    actual.actual.push_back(estimates[j] * sample_uniform(rng, 0.5, 2.0));
  }
  std::vector<double> speeds;
  for (MachineId i = 0; i < m; ++i) speeds.push_back(sample_uniform(rng, 0.25, 4.0));

  const DispatchResult fast =
      dispatch_online(inst, placement, actual, priority, {}, speeds);
  const Schedule reference =
      reference_dispatch_uniform(inst, placement, actual, priority, speeds);
  expect_identical(fast.schedule, reference);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DispatchDifferentialUniform,
                         ::testing::ValuesIn(fuzz_grid()));

TEST(DispatchDifferential, SlidingWindowPlacementsAgree) {
  Xoshiro256 rng(99);
  std::vector<Time> estimates;
  for (int j = 0; j < 40; ++j) estimates.push_back(sample_uniform(rng, 1.0, 5.0));
  const Instance inst = Instance::from_estimates(estimates, 6, 1.5);
  const Placement placement = SlidingWindowPlacement(4).place(inst);
  std::vector<TaskId> priority(40);
  for (TaskId j = 0; j < 40; ++j) priority[j] = j;
  Realization actual;
  for (int j = 0; j < 40; ++j) {
    actual.actual.push_back(estimates[static_cast<std::size_t>(j)] *
                            sample_uniform(rng, 1.0 / 1.5, 1.5));
  }
  const DispatchResult fast = dispatch_online(inst, placement, actual, priority);
  const Schedule reference = reference_dispatch(inst, placement, actual, priority);
  expect_identical(fast.schedule, reference);
}

}  // namespace
}  // namespace rdp
