// Tests for the Hochbaum-Shmoys dual-approximation scheme behind
// hs_certified_cmax: the certified bracket lower <= OPT <= upper, the
// (1 + 1/k) width, and a schedule that really achieves `upper`.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exact/branch_and_bound.hpp"
#include "exact/certify_scale.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace rdp {
namespace {

Time assignment_makespan(const Assignment& a, std::span<const Time> p, MachineId m) {
  std::vector<Time> loads(m, 0);
  for (TaskId j = 0; j < p.size(); ++j) loads[a[j]] += p[j];
  return *std::max_element(loads.begin(), loads.end());
}

CertifiedCmax hs(std::span<const Time> p, MachineId m, unsigned k,
                 HsCertifyStats* stats = nullptr) {
  HsCertifyOptions options;
  options.precision_k = k;
  return hs_certified_cmax(p, m, options, stats);
}

std::vector<Time> uniform(std::uint64_t seed, std::size_t n, double lo, double hi) {
  Xoshiro256 rng(seed);
  std::vector<Time> p;
  for (std::size_t i = 0; i < n; ++i) p.push_back(sample_uniform(rng, lo, hi));
  return p;
}

TEST(Ptas, EmptyAndTrivialInstances) {
  const std::vector<Time> empty;
  const CertifiedCmax r = hs(empty, 3, 3);
  EXPECT_DOUBLE_EQ(r.upper, 0.0);
  EXPECT_DOUBLE_EQ(r.lower, 0.0);

  const std::vector<Time> one = {5.0};
  const CertifiedCmax r1 = hs(one, 3, 3);
  EXPECT_DOUBLE_EQ(r1.upper, 5.0);
  EXPECT_DOUBLE_EQ(r1.lower, 5.0);
}

TEST(Ptas, ParameterValidation) {
  const std::vector<Time> p = {1.0};
  EXPECT_THROW((void)hs(p, 0, 3), std::invalid_argument);
  EXPECT_THROW((void)hs(p, 2, 1), std::invalid_argument);
}

TEST(Ptas, BeatsLptOnItsWorstCase) {
  // Graham's LPT worst case for m=2: {3,3,2,2,2}; LPT = 7, OPT = 6.
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  HsCertifyStats stats;
  const CertifiedCmax r = hs(p, 2, 4, &stats);
  EXPECT_EQ(stats.dp_exhaustions, 0);
  EXPECT_DOUBLE_EQ(r.upper, 6.0);
  EXPECT_LE(r.lower, 6.0);
  EXPECT_DOUBLE_EQ(assignment_makespan(r.assignment, p, 2), 6.0);
}

TEST(Ptas, AssignmentConsistentWithReportedMakespan) {
  const std::vector<Time> p = uniform(5, 20, 0.5, 10.0);
  const CertifiedCmax r = hs(p, 4, 3);
  EXPECT_NEAR(assignment_makespan(r.assignment, p, 4), r.upper, 1e-9);
}

TEST(Ptas, BracketContainsTheOptimum) {
  const std::vector<Time> p = uniform(7, 14, 0.5, 10.0);
  const CertifiedCmax r = hs(p, 3, 3);
  const BnbResult opt = branch_and_bound_cmax(p, 3);
  ASSERT_TRUE(opt.proven);
  EXPECT_LE(r.lower, opt.best + 1e-9);
  EXPECT_GE(r.upper, opt.best - 1e-9);
}

// Property: for k in {2,3,4}, the schedule is within 1 + 1/k of the exact
// optimum and the lower bound never exceeds it.
struct PtasCase {
  std::uint64_t seed;
  std::size_t n;
  MachineId m;
  unsigned k;
};

class PtasGuarantee : public ::testing::TestWithParam<PtasCase> {};

TEST_P(PtasGuarantee, WithinOnePlusOneOverK) {
  const auto [seed, n, m, k] = GetParam();
  const std::vector<Time> p = uniform(seed, n, 0.5, 10.0);

  HsCertifyStats stats;
  const CertifiedCmax r = hs(p, m, k, &stats);
  ASSERT_EQ(stats.dp_exhaustions, 0);

  const BnbResult opt = branch_and_bound_cmax(p, m);
  ASSERT_TRUE(opt.proven);
  const double bound = hs_guarantee(k) + 1e-6;
  EXPECT_LE(r.upper, bound * opt.best) << "k=" << k;
  EXPECT_GE(r.upper, opt.best - 1e-9);
  EXPECT_LE(r.lower, opt.best + 1e-9);
}

std::vector<PtasCase> ptas_grid() {
  std::vector<PtasCase> cases;
  std::uint64_t seed = 11;
  for (unsigned k : {2u, 3u, 4u}) {
    for (MachineId m : {2u, 3u, 4u}) {
      cases.push_back({seed++, 12, m, k});
      cases.push_back({seed++, 18, m, k});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, PtasGuarantee, ::testing::ValuesIn(ptas_grid()));

// A zero DP budget degrades probes to feasible-unproven: the bracket may
// widen, but it stays sound and the schedule stays real.
TEST(Ptas, ZeroDpBudgetStaysSound) {
  const std::vector<Time> p = uniform(17, 12, 0.5, 10.0);
  HsCertifyOptions options;
  options.precision_k = 4;
  options.dp_state_budget = 0;
  HsCertifyStats stats;
  const CertifiedCmax r = hs_certified_cmax(p, 4, options, &stats);
  EXPECT_GT(stats.dp_exhaustions, 0) << "the budget must actually bind";
  const BnbResult opt = branch_and_bound_cmax(p, 4);
  ASSERT_TRUE(opt.proven);
  EXPECT_GT(r.upper, 0.0);
  EXPECT_LE(r.lower, opt.best + 1e-9);
  EXPECT_GE(r.upper, opt.best - 1e-9);
  EXPECT_NEAR(assignment_makespan(r.assignment, p, 4), r.upper, 1e-9);
}

TEST(Ptas, HigherPrecisionNeverWorse) {
  const std::vector<Time> p = uniform(13, 16, 1.0, 8.0);
  const CertifiedCmax coarse = hs(p, 3, 2);
  const CertifiedCmax fine = hs(p, 3, 5);
  EXPECT_LE(fine.upper, coarse.upper + 1e-9);
}

TEST(Ptas, UnitTasksSolvedExactly) {
  const std::vector<Time> p(12, 1.0);
  const CertifiedCmax r = hs(p, 4, 3);
  EXPECT_DOUBLE_EQ(r.upper, 3.0);
  EXPECT_DOUBLE_EQ(r.lower, 3.0);
}

}  // namespace
}  // namespace rdp
