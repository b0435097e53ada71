// Extension experiment B: empirical memory/makespan behaviour of SABO and
// ABO across Delta and workload correlation structures, against certified
// optima, with the theorem guarantees alongside.
//
// Usage: ext_memaware_empirical [--n=14] [--m=4]
#include <cstdlib>
#include <iostream>
#include <string>

#include "cli/args.hpp"
#include "exp/memaware_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 14, 1, "tasks");
  const auto m = args.integer<MachineId>("m", 4, 1, "machines");
  args.finish_or_exit();

  MemAwareConfig config;
  config.exact_node_budget = 300'000;

  std::cout << "=== Ext-B: memory-aware algorithms across workload shapes ===\n\n";

  struct Shape {
    const char* label;
    Instance instance;
  };
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 13;
  const Shape shapes[] = {
      {"correlated time/size", correlated_sizes_workload(params)},
      {"anti-correlated", anti_correlated_sizes_workload(params)},
      {"independent", independent_sizes_workload(params)},
  };

  for (const Shape& shape : shapes) {
    std::cout << "workload: " << shape.label << " (n=" << n << ", m=" << m
              << ", alpha=1.5)\n";
    TextTable table({"algo", "Delta", "Cmax ratio", "guar.", "Mem ratio",
                     "guar. "});
    for (double delta : {0.25, 1.0, 4.0}) {
      const Realization actual = realize(shape.instance, NoiseModel::kUniform, 71);
      const MemAwareTrial sabo = measure_sabo(shape.instance, actual, delta, config);
      table.add_row({"SABO", fmt(delta, 2), fmt(sabo.makespan_ratio),
                     fmt(sabo.makespan_guarantee), fmt(sabo.memory_ratio),
                     fmt(sabo.memory_guarantee)});
      const MemAwareTrial abo = measure_abo(shape.instance, actual, delta, config);
      table.add_row({"ABO", fmt(delta, 2), fmt(abo.makespan_ratio),
                     fmt(abo.makespan_guarantee), fmt(abo.memory_ratio),
                     fmt(abo.memory_guarantee)});
    }
    std::cout << table.render() << "\n";
  }
  std::cout << "Shape check: ratios <= guarantees everywhere; ABO's memory\n"
            << "ratio exceeds SABO's (replication cost) while its makespan\n"
            << "ratio is competitive; the anti-correlated workload stresses\n"
            << "the bi-objective tension hardest.\n";
  return EXIT_SUCCESS;
}
