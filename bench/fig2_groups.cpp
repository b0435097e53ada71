// Reproduces Figure 2: the two-phase group-replication construction with
// m=6 machines and k=2 groups. Prints the phase-1 group assignment, the
// phase-2 per-machine schedule, and the dispatch trace.
//
// Usage: fig2_groups [--m=6] [--k=2] [--n=10] [--alpha=1.5] [--seed=3]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "core/metrics.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "sim/trace.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 6, 1, "machines");
  const auto k = args.integer<MachineId>("k", 2, 1, "replication groups k");
  const auto n = args.integer<std::size_t>("n", 10, 1, "tasks");
  const double alpha = args.real("alpha", 1.5, "uncertainty factor alpha");
  const auto seed = args.integer<std::uint64_t>("seed", 3, 0, "random seed");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = seed;
  const Instance inst = uniform_workload(params, 1.0, 9.0);

  std::cout << "=== Figure 2: replication in groups (m=" << m << ", k=" << k
            << ") ===\n\n";

  const TwoPhaseStrategy strategy = make_ls_group(k);
  const Placement placement = strategy.place(inst);

  std::cout << "Phase 1 -- data of each task replicated on one group:\n";
  TextTable phase1({"task", "estimate", "replica machines"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    std::string machines;
    for (MachineId i : placement.machines_for(j)) {
      machines += (machines.empty() ? "" : ",") + std::to_string(i);
    }
    phase1.add_row({std::to_string(j), fmt(inst.estimate(j), 2), machines});
  }
  std::cout << phase1.render() << "\n";

  const Realization actual = realize(inst, NoiseModel::kUniform, seed + 1);
  const StrategyResult run = strategy.run(inst, actual);

  std::cout << "Phase 2 -- online List Scheduling within each group (actual\n"
            << "times drawn uniformly inside the alpha band):\n"
            << render_gantt(inst, run.schedule, 60) << "\n"
            << "Dispatch trace:\n"
            << render_trace(run.trace) << "\n"
            << "C_max = " << run.makespan
            << "  max replication degree = " << run.max_replication << "\n";
  return EXIT_SUCCESS;
}
