// The "system designer" workflow from the paper's memory-aware section:
// given a memory budget (a multiple of the optimal memory footprint),
// pick the algorithm (SABO vs ABO) and the Delta knob that give the best
// *guaranteed* makespan under that budget, then run it.
//
//   $ ./memory_budget [--budget=3.0] [--m=5] [--alpha=1.7] [--n=15]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "bounds/memaware_bounds.hpp"
#include "cli/args.hpp"
#include "exp/memaware_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const double budget = args.real("budget", 3.0, "memory budget (x optimal)");
  const auto m = args.integer<MachineId>("m", 5, 1, "machines");
  const double alpha = args.real("alpha", 1.7, "uncertainty factor alpha");
  const auto n = args.integer<std::size_t>("n", 15, 1, "tasks");
  args.finish_or_exit();

  const double rho = 4.0 / 3.0 - 1.0 / (3.0 * static_cast<double>(m));

  std::cout << "=== Memory-budgeted scheduling: accept Mem_max <= " << budget
            << " x optimal ===\n\n";

  // Pick, per algorithm, the Delta whose memory guarantee meets the
  // budget and whose makespan guarantee is minimal. Memory guarantees are
  // decreasing in Delta, makespan guarantees increasing -> the best legal
  // Delta is the *smallest* one meeting the budget.
  auto best_delta = [&](MemAwareAlgorithm algo) -> std::optional<double> {
    std::optional<double> best;
    for (const auto& pt :
         guarantee_curve(algo, alpha, m, rho, rho, 0.01, 100.0, 400)) {
      if (pt.guarantee.memory <= budget) {
        best = pt.delta;
        break;  // first (smallest) Delta under budget = best makespan
      }
    }
    return best;
  };

  TextTable table({"algorithm", "Delta*", "makespan guar.", "memory guar."});
  std::optional<double> sabo_delta = best_delta(MemAwareAlgorithm::kSabo);
  std::optional<double> abo_delta = best_delta(MemAwareAlgorithm::kAbo);
  double sabo_mk = 1e300, abo_mk = 1e300;
  if (sabo_delta) {
    const BiObjectiveGuarantee g = sabo_guarantee(*sabo_delta, alpha, rho, rho);
    sabo_mk = g.makespan;
    table.add_row({"SABO", fmt(*sabo_delta, 3), fmt(g.makespan), fmt(g.memory)});
  } else {
    table.add_row({"SABO", "-", "budget infeasible", "-"});
  }
  if (abo_delta) {
    const BiObjectiveGuarantee g = abo_guarantee(*abo_delta, alpha, m, rho, rho);
    abo_mk = g.makespan;
    table.add_row({"ABO", fmt(*abo_delta, 3), fmt(g.makespan), fmt(g.memory)});
  } else {
    table.add_row({"ABO", "-", "budget infeasible", "-"});
  }
  std::cout << table.render() << "\n";

  if (!sabo_delta && !abo_delta) {
    std::cout << "No algorithm meets this memory budget; raise it.\n";
    return EXIT_SUCCESS;
  }
  const bool use_abo = abo_delta && (!sabo_delta || abo_mk < sabo_mk);
  const double delta = use_abo ? *abo_delta : *sabo_delta;
  std::cout << "Chosen: " << (use_abo ? "ABO" : "SABO") << " with Delta = "
            << fmt(delta, 3) << "\n\n";

  // Run the chosen algorithm on a workload and report measured behaviour.
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 3;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 8);
  const MemAwareTrial trial = use_abo ? measure_abo(inst, actual, delta)
                                      : measure_sabo(inst, actual, delta);
  std::cout << "Measured on a real workload (n=" << n << "):\n"
            << "  makespan ratio " << fmt(trial.makespan_ratio, 3)
            << " (guarantee " << fmt(trial.makespan_guarantee, 3) << ")\n"
            << "  memory ratio   " << fmt(trial.memory_ratio, 3) << " (guarantee "
            << fmt(trial.memory_guarantee, 3) << ", budget " << fmt(budget, 3)
            << ")\n";
  return EXIT_SUCCESS;
}
