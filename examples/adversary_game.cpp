// The adversary game: pit any placement policy against the Theorem 1
// adversary and watch the lower-bound machinery in action. For small
// instances it also runs the exhaustive two-point adversary to show how
// close the constructive move comes to the true worst case.
//
//   $ ./adversary_game [--m=4] [--lambda=4] [--alpha=2.0]
//   $ ./adversary_game --policy=random --seed=5
#include <cstdlib>
#include <iostream>
#include <memory>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "exact/branch_and_bound.hpp"
#include "io/table.hpp"
#include "perturb/adversary.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 4, 1, "machines");
  const auto lambda = args.integer<std::size_t>("lambda", 4, 1, "tasks per machine");
  const double alpha = args.real("alpha", 2.0, "uncertainty factor alpha");
  const std::string policy = args.text("policy", "lpt", "lpt|random|round-robin");
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "random seed");
  args.finish_or_exit();

  const TwoPhaseStrategy strategy = [&] {
    if (policy == "random") return make_random_no_choice(seed);
    if (policy == "round-robin") return make_round_robin_no_choice();
    return make_lpt_no_choice();
  }();

  std::cout << "=== Adversary game: " << strategy.name() << " vs Theorem 1 ("
            << "m=" << m << ", lambda=" << lambda << ", alpha=" << alpha << ") ===\n\n";

  const Instance inst = thm1_instance(lambda, m, alpha);
  const Placement placement = strategy.place(inst);

  std::cout << "You placed " << inst.num_tasks() << " unit-estimate tasks.\n"
            << "The adversary looks at your placement and slows every task on\n"
            << "your most loaded machine by x" << alpha << ", speeding up the rest.\n\n";

  const Realization worst = thm1_realization(inst, placement);
  const StrategyResult run = strategy.run(inst, worst);
  const BnbResult opt = branch_and_bound_cmax(worst.actual, m);

  std::cout << render_gantt(inst, run.schedule, 56) << "\n";
  TextTable table({"quantity", "value"});
  table.add_row({"your C_max", fmt(run.makespan, 3)});
  table.add_row({"offline OPT", fmt(opt.best, 3) + (opt.proven ? "" : " (ub)")});
  table.add_row({"your ratio", fmt(run.makespan / opt.best, 4)});
  table.add_row({"Theorem 1 bound (no algorithm beats this)",
                 fmt(thm1_no_replication_lower_bound(alpha, m), 4)});
  std::cout << table.render() << "\n";

  if (inst.num_tasks() <= 12) {
    std::cout << "Exhaustive two-point adversary (all 2^" << inst.num_tasks()
              << " realizations):\n";
    std::vector<MachineId> machine_of;
    for (TaskId j = 0; j < inst.num_tasks(); ++j) {
      machine_of.push_back(placement.machines_for(j).front());
    }
    Assignment a;
    a.machine_of = machine_of;
    const ExhaustiveAdversaryResult ex = exhaustive_two_point_adversary(inst, a);
    std::cout << "  worst ratio found: " << fmt(ex.ratio, 4)
              << " (constructive move achieved " << fmt(run.makespan / opt.best, 4)
              << ")\n";
  }
  std::cout << "\nEscape route: replication. Re-run the quickstart example to\n"
            << "see how |M_j| > 1 defeats this adversary.\n";
  return EXIT_SUCCESS;
}
