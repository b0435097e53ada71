// Hadoop-style cluster scenario (cf. the paper's discussion of HDFS
// replication): data blocks are replicated with a small factor (HDFS
// default: 3) across racks; task runtimes are uncertain because of
// stragglers. This example compares replication factors under a
// straggler-heavy noise model and reports tail behaviour across many
// job executions.
//
//   $ ./cluster_replication [--m=12] [--n=96] [--jobs=25] [--alpha=2.0]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "core/metrics.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "stats/descriptive.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 12, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 96, 1, "tasks");
  const auto jobs = args.integer<std::size_t>("jobs", 25, 1, "jobs");
  const double alpha = args.real("alpha", 2.0, "uncertainty factor alpha");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 7;
  const Instance inst = bimodal_workload(params, 1.0, 8.0, 0.15);

  std::cout << "=== Cluster block replication: " << n << " map tasks on " << m
            << " nodes, straggler factor up to x" << alpha << " ===\n\n";

  struct Config {
    const char* label;
    TwoPhaseStrategy strategy;
  };
  std::vector<Config> configs;
  configs.push_back({"replication 1 (pin to node)", make_lpt_no_choice()});
  if (m % 4 == 0) configs.push_back({"replication 3-ish (m/4 racks)",
                                     make_ls_group(m / 4)});
  if (m % 2 == 0) configs.push_back({"replication m/2", make_ls_group(2)});
  configs.push_back({"replication m (full)", make_lpt_no_restriction()});

  TextTable table({"configuration", "mean C_max", "p90", "max", "Mem_max"});
  for (const Config& c : configs) {
    const Placement placement = c.strategy.place(inst);
    std::vector<double> makespans;
    makespans.reserve(jobs);
    for (std::size_t job = 0; job < jobs; ++job) {
      // Two-point noise: a task either runs clean (x1/alpha) or straggles
      // (x alpha) -- the bimodal behaviour MapReduce papers report.
      const Realization actual = realize(inst, NoiseModel::kTwoPoint, 500 + job);
      const DispatchResult run =
          dispatch_with_rule(inst, placement, actual, c.strategy.rule());
      makespans.push_back(run.schedule.makespan());
    }
    const Summary s = summarize(makespans);
    table.add_row({c.label, fmt(s.mean, 2), fmt(s.p90, 2), fmt(s.max, 2),
                   fmt(max_memory(placement, inst), 0)});
  }
  std::cout << table.render() << "\n"
            << "Even rack-level replication (a few replicas per block) pulls\n"
            << "the straggler tail (p90/max) most of the way toward full\n"
            << "replication -- the paper's 'few replications already help'.\n";
  return EXIT_SUCCESS;
}
