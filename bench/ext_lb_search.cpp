// Extension experiment P: the paper's open problem -- "better lower
// bounds might help understanding the problem better". For the
// no-replication model we squeeze the gap between Theorem 1's lower
// bound and Theorem 2's upper bound empirically: over many small random
// instances we run the EXHAUSTIVE two-point adversary against
// LPT-NoChoice (every 2^n realization, exact optima) and record the
// worst ratio ever achieved. The maximum over instances is a certified
// lower bound on LPT-NoChoice's true competitive ratio at that (m,
// alpha) -- sandwiching the truth between it and Theorem 2.
//
// Usage: ext_lb_search [--n=9] [--instances=12]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "core/placement.hpp"
#include "io/table.hpp"
#include "perturb/adversary.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 9, 1, "tasks");
  const auto instances = args.integer<std::size_t>("instances", 12, 1, "per cell");
  args.finish_or_exit();

  std::cout << "=== Ext-P: empirical approximability gap, no-replication model ===\n"
            << "(worst exhaustive two-point ratio over " << instances
            << " random instances of n=" << n << ", exact optima)\n\n";

  TextTable table({"m", "alpha", "Thm1 LB", "worst found", "Thm2 UB",
                   "gap closed"});
  for (MachineId m : {2u, 3u}) {
    for (double alpha : {1.25, 1.5, 2.0}) {
      double worst = 0;
      for (std::size_t trial = 0; trial < instances; ++trial) {
        WorkloadParams params;
        params.num_tasks = n;
        params.num_machines = m;
        params.alpha = alpha;
        params.seed = 100 + trial;
        // Mix of shapes: unit tasks are the adversary's classic choice.
        const Instance inst = (trial % 3 == 0)
                                  ? unit_tasks(n, m, alpha)
                                  : uniform_workload(params, 1.0, 4.0);
        const Placement placement = make_lpt_no_choice().place(inst);
        Assignment assignment;
        for (TaskId j = 0; j < inst.num_tasks(); ++j) {
          assignment.machine_of.push_back(placement.machines_for(j).front());
        }
        const ExhaustiveAdversaryResult ex =
            exhaustive_two_point_adversary(inst, assignment, n);
        worst = std::max(worst, ex.ratio);
      }
      const double lb = thm1_no_replication_lower_bound(alpha, m);
      const double ub = thm2_lpt_no_choice(alpha, m);
      const double gap = ub > lb ? (worst - lb) / (ub - lb) : 1.0;
      table.add_row({std::to_string(m), fmt(alpha, 2), fmt(lb), fmt(worst),
                     fmt(ub), fmt(100.0 * std::max(0.0, gap), 1) + "%"});
    }
  }
  std::cout << table.render()
            << "\nReading: 'worst found' certifies LPT-NoChoice's competitive\n"
               "ratio is at least that value (a schedule-specific lower bound\n"
               "stronger than Thm 1 whenever positive gap is closed). Small\n"
               "instances cannot reach the asymptotic bounds (Thm 1 needs\n"
               "lambda -> infinity), so the remaining gap is expected; the\n"
               "trend across alpha mirrors the analytic curves.\n";
  return EXIT_SUCCESS;
}
