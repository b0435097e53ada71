// Reproduces Table 2: the SABO/ABO bi-objective guarantees, plus an
// empirical validation column pair: measured makespan and memory ratios
// (against certified optima) that must sit below the guarantees.
//
// Usage: table2_memaware [--m=5] [--n=14] [--deltas=0.5,1.0,2.0]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bounds/memaware_bounds.hpp"
#include "cli/args.hpp"
#include "exp/memaware_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 5, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 14, 1, "tasks");
  const std::vector<double> deltas = args.reals("deltas", "0.1,0.5,2.0,8.0", "Deltas");
  const double alpha = args.real("alpha", 1.5, "uncertainty factor alpha");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 11;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 99);

  std::cout << "=== Table 2: memory-aware guarantees (m=" << m << ", alpha=" << alpha
            << ", rho1=rho2=4/3-1/(3m)) ===\n"
            << "Measured columns use one uniform-noise realization on an\n"
            << "independent-sizes workload (n=" << n << ") with exact optima.\n\n";

  TextTable table({"algorithm", "Delta", "makespan guar.", "measured",
                   "memory guar.", "measured "});
  for (double delta : deltas) {
    const MemAwareTrial sabo = measure_sabo(inst, actual, delta);
    table.add_row({"SABO", fmt(delta, 2), fmt(sabo.makespan_guarantee),
                   fmt(sabo.makespan_ratio), fmt(sabo.memory_guarantee),
                   fmt(sabo.memory_ratio)});
  }
  for (double delta : deltas) {
    const MemAwareTrial abo = measure_abo(inst, actual, delta);
    table.add_row({"ABO", fmt(delta, 2), fmt(abo.makespan_guarantee),
                   fmt(abo.makespan_ratio), fmt(abo.memory_guarantee),
                   fmt(abo.memory_ratio)});
  }
  std::cout << table.render() << "\n"
            << "Shape check: every measured column <= its guarantee column;\n"
            << "SABO's memory guarantee beats ABO's at equal Delta, ABO's\n"
            << "makespan guarantee has the lower floor (2 - 1/m as Delta->0).\n";
  return EXIT_SUCCESS;
}
