// Extension experiment F: fail-stop machine failures (the Hadoop
// motivation for replication in the paper's introduction). Compares
// placement strategies when machines die mid-run: restarts, refetch
// penalties, and makespan degradation.
//
// Usage: ext_fault_tolerance [--m=8] [--n=64] [--jobs=20] [--penalty=25]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "rng/rng.hpp"
#include "sim/failures.hpp"
#include "stats/descriptive.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 64, 1, "tasks");
  const auto jobs = args.integer<std::size_t>("jobs", 20, 1, "jobs (one failure each)");
  const double penalty = args.real("penalty", 25.0, "refetch penalty");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 23;
  const Instance inst = uniform_workload(params, 1.0, 10.0);

  std::cout << "=== Ext-F: fail-stop failures (m=" << m << ", n=" << n
            << ", one random failure per job, refetch penalty " << penalty
            << ") ===\n\n";

  TextTable table({"strategy", "mean C_max", "max C_max", "restarts/job",
                   "refetches/job"});
  for (const TwoPhaseStrategy& s :
       {make_lpt_no_choice(), make_ls_group(4), make_ls_group(2),
        make_lpt_no_restriction()}) {
    const Placement placement = s.place(inst);
    const auto priority = make_priority(inst, s.rule());
    std::vector<double> makespans;
    std::size_t restarts = 0, refetches = 0;
    Xoshiro256 rng(77);
    for (std::size_t job = 0; job < jobs; ++job) {
      const Realization actual = realize(inst, NoiseModel::kUniform, 900 + job);
      FailurePlan plan;
      plan.refetch_penalty = penalty;
      // One machine dies at a random moment in the first half of an
      // (estimated) run.
      const auto victim = static_cast<MachineId>(rng.next_below(m));
      const Time when =
          (0.1 + 0.4 * Xoshiro256(job).next_double()) * inst.total_estimate() /
          static_cast<double>(m);
      plan.failures = {{victim, when}};
      const FailureDispatchResult run =
          dispatch_with_failures(inst, placement, actual, priority, plan);
      makespans.push_back(run.makespan);
      restarts += run.restarts;
      refetches += run.refetches;
    }
    const Summary summary = summarize(makespans);
    table.add_row({s.name(), fmt(summary.mean, 2), fmt(summary.max, 2),
                   fmt(static_cast<double>(restarts) / static_cast<double>(jobs), 2),
                   fmt(static_cast<double>(refetches) / static_cast<double>(jobs),
                       2)});
  }
  std::cout << table.render()
            << "\nShape: pinning (|M_j|=1) pays refetch penalties every time its\n"
               "machine dies; any replication absorbs the failure with cheap\n"
               "restarts, and the makespan gap widens with the penalty.\n";
  return EXIT_SUCCESS;
}
