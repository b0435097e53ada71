// Golden regression values for the extension dispatchers and solvers
// (companion to test_golden.cpp, which pins the core pipelines).
#include <gtest/gtest.h>

#include "rdp.hpp"

namespace rdp {
namespace {

struct Fixture {
  Instance inst;
  Realization actual;
  std::vector<TaskId> priority;
};

Fixture make_fixture() {
  WorkloadParams params;
  params.num_tasks = 24;
  params.num_machines = 6;
  params.alpha = 1.6;
  params.seed = 4242;
  Instance inst = uniform_workload(params, 1.0, 10.0);
  Realization actual = realize(inst, NoiseModel::kUniform, 555);
  auto priority = make_priority(inst, PriorityRule::kInputOrder);
  return {std::move(inst), std::move(actual), std::move(priority)};
}

TEST(GoldenExtensions, FailureDispatcher) {
  const Fixture f = make_fixture();
  const Placement grouped = LsGroupPlacement(3).place(f.inst);
  FailurePlan plan;
  plan.failures = {{1, 5.0}};
  plan.refetch_penalty = 10.0;
  const FailureDispatchResult r =
      dispatch_with_failures(f.inst, grouped, f.actual, f.priority, plan);
  EXPECT_DOUBLE_EQ(r.makespan, 46.855328260358611);
  EXPECT_EQ(r.restarts, 1u);
  EXPECT_EQ(r.refetches, 0u);  // group partner absorbs the failure
}

TEST(GoldenExtensions, TransferDispatcher) {
  const Fixture f = make_fixture();
  const Placement pinned = LptNoChoicePlacement().place(f.inst);
  TransferModel model;
  model.bandwidth = 0.5;
  model.latency = 0.25;
  const TransferDispatchResult r =
      dispatch_with_transfers(f.inst, pinned, f.actual, f.priority, model);
  EXPECT_DOUBLE_EQ(r.makespan, 28.000230709668678);
  // The balanced pinned plan never leaves a machine idle while work
  // waits, so no fetch happens at this noise level.
  EXPECT_EQ(r.remote_runs, 0u);
  EXPECT_DOUBLE_EQ(r.transfer_time, 0.0);
}

TEST(GoldenExtensions, SpeculativeDispatcher) {
  const Fixture f = make_fixture();
  const Placement grouped = LsGroupPlacement(3).place(f.inst);
  const SpeedProfile speeds = SpeedProfile::with_stragglers(6, 3, 0.4);
  const SpeculativeResult r = dispatch_speculative(
      f.inst, grouped, f.actual, f.priority, speeds, SpeculationPolicy{});
  EXPECT_DOUBLE_EQ(r.makespan, 61.744827697254031);
  // Groups stay saturated until the tail here: no backup ever launches.
  EXPECT_EQ(r.duplicates_launched, 0u);
  EXPECT_DOUBLE_EQ(r.wasted_time, 0.0);
}

TEST(GoldenExtensions, PtasAndPartition) {
  const Fixture f = make_fixture();
  HsCertifyOptions hs;
  hs.precision_k = 3;
  const CertifiedCmax ptas = hs_certified_cmax(f.actual.actual, 6, hs);
  EXPECT_DOUBLE_EQ(ptas.lower, 25.727420021717464);
  EXPECT_DOUBLE_EQ(ptas.upper, 27.957896264025702);

  const std::vector<Time> p = {7, 3, 3, 5, 4, 6, 2, 8};
  const PartitionResult dp = partition_cmax(p, 1.0);
  EXPECT_DOUBLE_EQ(dp.makespan, 19.0);
  EXPECT_TRUE(dp.exact);
}

}  // namespace
}  // namespace rdp
