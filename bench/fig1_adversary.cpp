// Reproduces Figure 1: the Theorem 1 adversary construction. Prints the
// online schedule vs. the offline optimal for the paper's illustration
// (lambda=3, m=6) and then sweeps lambda to show the measured ratio
// converging to the alpha^2 m/(alpha^2+m-1) lower bound from below.
//
// Usage: fig1_adversary [--m=6] [--lambda=3] [--alpha=2.0] [--sweep=64]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "core/metrics.hpp"
#include "exact/branch_and_bound.hpp"
#include "io/table.hpp"
#include "perturb/adversary.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 6, 1, "machines");
  const auto lambda = args.integer<std::size_t>("lambda", 3, 1, "tasks per machine");
  const double alpha = args.real("alpha", 2.0, "uncertainty factor alpha");
  const auto sweep_max = args.integer<std::size_t>("sweep", 64, 1, "largest swept size");
  args.finish_or_exit();

  std::cout << "=== Figure 1: Theorem 1 adversary (lambda=" << lambda << ", m=" << m
            << ", alpha=" << alpha << ") ===\n\n";

  // The illustration instance: lambda*m unit tasks, singleton placement.
  const Instance inst = thm1_instance(lambda, m, alpha);
  const TwoPhaseStrategy strategy = make_lpt_no_choice();
  const Placement placement = strategy.place(inst);
  const Realization worst = thm1_realization(inst, placement);

  const StrategyResult online = strategy.run(inst, worst);
  std::cout << "Online schedule after the adversary move (tasks of the most\n"
            << "loaded machine slowed x" << alpha << ", the rest sped up x1/" << alpha
            << "):\n"
            << render_gantt(inst, online.schedule, 60) << "\n";

  const BnbResult offline = branch_and_bound_cmax(worst.actual, m);
  std::cout << "Online C_max  = " << online.makespan << "\n"
            << "Offline OPT   = " << offline.best
            << (offline.proven ? " (exact)" : " (bound)") << "\n"
            << "Proof's OPT upper bound = "
            << thm1_offline_optimal_upper(lambda, m, alpha, lambda) << "\n"
            << "Ratio online/OPT = " << fmt(online.makespan / offline.best) << "\n"
            << "Theorem 1 bound  = " << fmt(thm1_no_replication_lower_bound(alpha, m))
            << "\n\n";

  std::cout << "--- lambda sweep: ratio converges to the bound from below ---\n";
  TextTable table({"lambda", "online_Cmax", "OPT_upper", "ratio", "thm1_bound"});
  for (std::size_t l = 1; l <= sweep_max; l *= 2) {
    const Instance sweep_inst = thm1_instance(l, m, alpha);
    const Placement sweep_placement = strategy.place(sweep_inst);
    const Realization sweep_worst = thm1_realization(sweep_inst, sweep_placement);
    const StrategyResult run = strategy.run(sweep_inst, sweep_worst);
    const Time opt_upper = thm1_offline_optimal_upper(l, m, alpha, l);
    table.add_row({std::to_string(l), fmt(run.makespan, 2), fmt(opt_upper, 2),
                   fmt(run.makespan / opt_upper),
                   fmt(thm1_no_replication_lower_bound(alpha, m))});
  }
  std::cout << table.render()
            << "\nShape check: the ratio column is non-decreasing and approaches\n"
            << "the thm1_bound column as lambda grows.\n";
  return EXIT_SUCCESS;
}
