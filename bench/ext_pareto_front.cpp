// Extension experiment N: the *measured* memory-makespan Pareto front --
// the empirical counterpart of Figure 6's guarantee curves. Sweeps Delta
// for SABO and ABO against one realization and prints the non-dominated
// points, labelled with the algorithm that owns each front segment.
//
// Usage: ext_pareto_front [--m=4] [--n=24] [--alpha=1.8] [--points=17]
#include <cstdlib>
#include <iostream>

#include "cli/args.hpp"
#include "core/realization.hpp"
#include "io/table.hpp"
#include "memaware/pareto.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 4, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 24, 1, "tasks");
  const double alpha = args.real("alpha", 1.8, "uncertainty factor alpha");
  const int points = args.integer<int>("points", 17, 1, "Delta grid points");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 59;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 60);

  std::cout << "=== Ext-N: measured memory-makespan Pareto front (m=" << m
            << ", n=" << n << ", alpha=" << alpha << ") ===\n\n";

  const auto sweep = measure_tradeoff_sweep(inst, actual, 0.05, 20.0, points);
  const auto front = pareto_filter(sweep);

  TextTable table({"algorithm", "Delta", "C_max", "Mem_max"});
  for (const ParetoPoint& pt : front) {
    table.add_row({pt.algorithm, fmt(pt.delta, 3), fmt(pt.makespan, 2),
                   fmt(pt.memory, 1)});
  }
  std::cout << table.render() << "\n"
            << sweep.size() << " measured points, " << front.size()
            << " on the front.\n"
            << "Shape (the measured version of Figure 6): ABO occupies the\n"
            << "fast/heavy end (replication buys makespan with memory), SABO\n"
            << "the lean end; the front is strictly monotone by construction.\n";
  return EXIT_SUCCESS;
}
