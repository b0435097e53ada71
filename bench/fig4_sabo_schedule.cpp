// Reproduces Figure 4: an example SABO_Delta schedule. Prints the pi1/pi2
// reference schedules, the S1/S2 split, and the merged static schedule.
//
// Usage: fig4_sabo_schedule [--m=4] [--n=10] [--delta=1.0] [--seed=5] [--svg=F]
#include <cstdlib>
#include <iostream>

#include "cli/args.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "memaware/sabo.hpp"
#include "perturb/stochastic.hpp"
#include "sim/trace.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 4, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 10, 1, "tasks");
  const double delta = args.real("delta", 1.0, "memory/makespan trade-off Delta");
  const auto seed = args.integer<std::uint64_t>("seed", 5, 0, "random seed");
  const std::string svg_path = args.text("svg", "", "write the schedule as SVG");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = seed;
  const Instance inst = independent_sizes_workload(params);

  std::cout << "=== Figure 4: SABO_Delta schedule (Delta=" << delta << ", m=" << m
            << ") ===\n\n";

  const SaboResult sabo = run_sabo(inst, delta);
  TextTable split({"task", "estimate", "size", "set", "machine"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    split.add_row({std::to_string(j), fmt(inst.estimate(j), 2),
                   fmt(inst.size(j), 2), sabo.in_s2[j] ? "S2 (memory)" : "S1 (time)",
                   std::to_string(sabo.assignment[j])});
  }
  std::cout << split.render() << "\n"
            << "pi1 estimated makespan = " << sabo.pi.pi1_makespan << "\n"
            << "pi2 max memory         = " << sabo.pi.pi2_memory << "\n\n";

  const Realization actual = realize(inst, NoiseModel::kUniform, seed + 7);
  const Schedule schedule =
      sequence_assignment(sabo.assignment, actual, inst.num_machines());
  std::cout << "Static phase-2 schedule under a uniform-noise realization\n"
            << "(colored parts of the paper's figure = S1 tasks):\n"
            << render_gantt(inst, schedule, 60) << "\n"
            << "C_max   = " << schedule.makespan() << "\n"
            << "Mem_max = " << sabo.max_memory << " (no replication)\n";

  if (!svg_path.empty()) {
    SvgOptions options;
    options.hollow = sabo.in_s2;  // S2 hollow, like the paper's uncolored blocks
    save_svg(svg_path, inst, schedule, options);
    std::cout << "SVG written to " << svg_path << "\n";
  }
  return EXIT_SUCCESS;
}
