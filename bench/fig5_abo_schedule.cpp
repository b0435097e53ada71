// Reproduces Figure 5: an example ABO_Delta schedule. Memory-intensive
// tasks (S2, the paper's uncolored blocks) are pinned to their pi2
// machines; time-intensive tasks (S1, colored) are replicated everywhere
// and dispatched by online List Scheduling once machines drain their
// pinned load.
//
// Usage: fig5_abo_schedule [--m=4] [--n=10] [--delta=1.0] [--seed=5] [--svg=F]
#include <cstdlib>
#include <iostream>

#include "cli/args.hpp"
#include "core/realization.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "memaware/abo.hpp"
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
  const Realization actual = realize(inst, NoiseModel::kUniform, seed + 7);

  std::cout << "=== Figure 5: ABO_Delta schedule (Delta=" << delta << ", m=" << m
            << ") ===\n\n";

  const AboResult abo = run_abo(inst, actual, delta);
  TextTable split({"task", "estimate", "size", "set", "replicas", "ran on"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    split.add_row({std::to_string(j), fmt(inst.estimate(j), 2), fmt(inst.size(j), 2),
                   abo.in_s2[j] ? "S2 (pinned)" : "S1 (replicated)",
                   std::to_string(abo.placement.replication_degree(j)),
                   std::to_string(abo.schedule.assignment[j])});
  }
  std::cout << split.render() << "\n"
            << "Phase-2 schedule (S1 tasks flow to whichever machine idles\n"
            << "first -- the adaptation replication buys):\n"
            << render_gantt(inst, abo.schedule, 60) << "\n"
            << "Dispatch trace:\n"
            << render_trace(abo.trace) << "\n"
            << "C_max   = " << abo.makespan << "\n"
            << "Mem_max = " << abo.max_memory << " (every S1 replica counted)\n";

  if (!svg_path.empty()) {
    SvgOptions options;
    options.hollow = abo.in_s2;  // pinned S2 hollow, replicated S1 solid
    save_svg(svg_path, inst, abo.schedule, options);
    std::cout << "SVG written to " << svg_path << "\n";
  }
  return EXIT_SUCCESS;
}
