// Extension experiment M: speculative execution (the paper's intro cites
// task duplication as the runtime-side alternative to data replication,
// "but increases resource usage"). On a straggler cluster, measures how
// makespan and wasted machine-time trade off across replication degrees,
// with and without backup copies -- replication *enables* speculation,
// since a backup can only launch where the data already lives.
//
// Usage: ext_speculative [--m=8] [--n=40] [--trials=8] [--slow=0.3]
#include <cstdlib>
#include <iostream>

#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "sim/speculative.hpp"
#include "stats/welford.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 40, 1, "tasks");
  const auto trials = args.integer<std::size_t>("trials", 8, 1, "trials per point");
  const double slow = args.real("slow", 0.3, "straggler speed");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 47;
  const Instance inst = uniform_workload(params, 1.0, 10.0);
  const SpeedProfile speeds = SpeedProfile::with_stragglers(m, 2, slow);

  std::cout << "=== Ext-M: speculative execution on a straggler cluster (m=" << m
            << ", 2 machines at speed " << slow << ") ===\n\n";

  TextTable table({"placement", "C_max (no spec)", "C_max (spec)", "improvement",
                   "backups/job", "waste/job"});
  struct Config {
    const char* label;
    TwoPhaseStrategy strategy;
  };
  const Config configs[] = {
      {"no replication", make_lpt_no_choice()},
      {"group k=4", make_ls_group(4)},
      {"group k=2", make_ls_group(2)},
      {"full replication", make_lpt_no_restriction()},
  };
  for (const Config& c : configs) {
    const Placement placement = c.strategy.place(inst);
    const auto priority = make_priority(inst, c.strategy.rule());
    Welford base, spec, backups, waste;
    for (std::size_t t = 0; t < trials; ++t) {
      const Realization actual = realize(inst, NoiseModel::kUniform, 600 + t);
      SpeculationPolicy off;
      off.max_copies = 1;
      base.add(dispatch_speculative(inst, placement, actual, priority, speeds, off)
                   .makespan);
      const SpeculativeResult on = dispatch_speculative(
          inst, placement, actual, priority, speeds, SpeculationPolicy{});
      spec.add(on.makespan);
      backups.add(static_cast<double>(on.duplicates_launched));
      waste.add(on.wasted_time);
    }
    const double improvement = (base.mean() - spec.mean()) / base.mean();
    table.add_row({c.label, fmt(base.mean(), 2), fmt(spec.mean(), 2),
                   fmt(100.0 * improvement, 1) + "%", fmt(backups.mean(), 1),
                   fmt(waste.mean(), 1)});
  }
  std::cout << table.render()
            << "\nShape: without replication backups cannot launch (improvement\n"
               "~0, zero waste); replication both adapts placement *and* opens\n"
               "the door to speculation, which buys extra makespan at the cost\n"
               "of wasted machine time -- the resource-usage tradeoff the\n"
               "paper's citation describes.\n";
  return EXIT_SUCCESS;
}
