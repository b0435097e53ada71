// Extension experiment I: quality/cost of the optimum-certification stack
// (LPT, MULTIFIT, Hochbaum-Shmoys PTAS at several precisions, exact
// branch-and-bound) on random instances. Justifies the experiment
// harness's choice of denominators and reproduces the classic
// quality-vs-effort ladder the paper's related work points at.
//
// Usage: ext_solver_quality [--n=16] [--m=4] [--reps=10]
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "algo/lpt.hpp"
#include "cli/args.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/certify_scale.hpp"
#include "exact/dual_approx.hpp"
#include "io/table.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "stats/welford.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 16, 1, "tasks");
  const auto m = args.integer<MachineId>("m", 4, 1, "machines");
  const auto reps = args.integer<std::size_t>("reps", 10, 1, "random instances");
  args.finish_or_exit();

  std::cout << "=== Ext-I: solver quality ladder (n=" << n << ", m=" << m << ", "
            << reps << " random instances) ===\n\n";

  Welford lpt_ratio, mf_ratio, ptas2_ratio, ptas4_ratio;
  double lpt_time = 0, mf_time = 0, ptas2_time = 0, ptas4_time = 0, bnb_time = 0;

  for (std::size_t rep = 0; rep < reps; ++rep) {
    Xoshiro256 rng(100 + rep);
    std::vector<Time> p;
    for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 10.0));

    auto t0 = Clock::now();
    const BnbResult opt = branch_and_bound_cmax(p, m);
    bnb_time += seconds_since(t0);
    if (!opt.proven || opt.best <= 0) continue;

    t0 = Clock::now();
    const GreedyScheduleResult lpt = lpt_schedule(p, m);
    lpt_time += seconds_since(t0);
    lpt_ratio.add(lpt.makespan / opt.best);

    t0 = Clock::now();
    const MultifitResult mf = multifit_cmax(p, m);
    mf_time += seconds_since(t0);
    mf_ratio.add(mf.makespan / opt.best);

    HsCertifyOptions hs;
    hs.precision_k = 2;
    t0 = Clock::now();
    const CertifiedCmax p2 = hs_certified_cmax(p, m, hs);
    ptas2_time += seconds_since(t0);
    ptas2_ratio.add(p2.upper / opt.best);

    hs.precision_k = 4;
    t0 = Clock::now();
    const CertifiedCmax p4 = hs_certified_cmax(p, m, hs);
    ptas4_time += seconds_since(t0);
    ptas4_ratio.add(p4.upper / opt.best);
  }

  const double dreps = static_cast<double>(reps);
  TextTable table({"solver", "worst-case bound", "mean ratio", "max ratio",
                   "mean time (ms)"});
  table.add_row({"LPT", fmt(lpt_guarantee(m)), fmt(lpt_ratio.mean()),
                 fmt(lpt_ratio.max()), fmt(1e3 * lpt_time / dreps, 3)});
  table.add_row({"MULTIFIT", fmt(multifit_guarantee()), fmt(mf_ratio.mean()),
                 fmt(mf_ratio.max()), fmt(1e3 * mf_time / dreps, 3)});
  table.add_row({"HS-PTAS k=2", fmt(1.5), fmt(ptas2_ratio.mean()),
                 fmt(ptas2_ratio.max()), fmt(1e3 * ptas2_time / dreps, 3)});
  table.add_row({"HS-PTAS k=4", fmt(1.25), fmt(ptas4_ratio.mean()),
                 fmt(ptas4_ratio.max()), fmt(1e3 * ptas4_time / dreps, 3)});
  table.add_row({"B&B (exact)", fmt(1.0), fmt(1.0), fmt(1.0),
                 fmt(1e3 * bnb_time / dreps, 3)});
  std::cout << table.render()
            << "\nShape: every rung's max ratio sits below its worst-case bound.\n"
               "Note the classic practice-vs-theory inversion: MULTIFIT's\n"
               "*measured* quality beats the PTAS rungs (whose schedules may be\n"
               "a full (1+1/k) above the search target), even though the PTAS\n"
               "has the stronger guarantee as k grows -- the reason the harness\n"
               "uses MULTIFIT + B&B rather than the PTAS for denominators.\n";
  return EXIT_SUCCESS;
}
