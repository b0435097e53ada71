// Extension experiment K: uniform (speed-scaled) machines -- machine-side
// uncertainty. Stragglers run at a fraction of nominal speed; placement
// is computed from estimates, so only online adaptation (replication) can
// route around slow machines. Sweeps the straggler slowdown and compares
// speed-oblivious pinning, speed-aware pinning, group replication, and
// full replication.
//
// Usage: ext_heterogeneous [--m=8] [--n=48] [--stragglers=2] [--trials=8]
#include <cstdlib>
#include <iostream>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "cli/args.hpp"
#include "hetero/uniform_machines.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "stats/welford.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 48, 1, "tasks");
  const auto stragglers = args.integer<MachineId>("stragglers", 2, 0, "slow machines");
  const auto trials = args.integer<std::size_t>("trials", 8, 1, "trials per point");
  args.finish_or_exit();

  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 37;
  const Instance inst = uniform_workload(params, 1.0, 10.0);

  std::cout << "=== Ext-K: stragglers as machine-side uncertainty (m=" << m
            << ", " << stragglers << " slow machines, n=" << n << ") ===\n\n";

  TextTable table({"slowdown", "oblivious pin", "speed-aware pin", "group k=2",
                   "full replication", "LB"});
  for (double slow : {1.0, 0.75, 0.5, 0.25}) {
    const SpeedProfile profile =
        SpeedProfile::with_stragglers(m, stragglers, slow);
    Welford oblivious, aware, grouped, full;
    for (std::size_t t = 0; t < trials; ++t) {
      const Realization actual = realize(inst, NoiseModel::kUniform, 700 + t);
      // Speed-oblivious pinning: identical-machine LPT run on the real
      // (heterogeneous) cluster.
      const Placement naive = Placement::singleton(
          lpt_schedule(inst.estimates(), m).assignment.machine_of, m);
      oblivious.add(dispatch_online(inst, naive, actual,
                                    make_priority(inst, PriorityRule::kInputOrder),
                                    {}, profile.speeds())
                        .schedule.makespan());
      aware.add(run_no_choice_uniform(inst, actual, profile).makespan);
      grouped.add(run_group_uniform(inst, actual, profile, 2).makespan);
      full.add(run_no_restriction_uniform(inst, actual, profile).makespan);
    }
    table.add_row({fmt(slow, 2), fmt(oblivious.mean(), 2), fmt(aware.mean(), 2),
                   fmt(grouped.mean(), 2), fmt(full.mean(), 2),
                   fmt(makespan_lower_bound_uniform(inst.estimates(), profile), 2)});
  }
  std::cout << table.render()
            << "\nShape: at slowdown 1.0 all columns agree; as stragglers get\n"
               "slower, oblivious pinning degrades fastest (unbounded in the\n"
               "slowdown) while replication stays near the lower bound. At\n"
               "extreme slowdowns speed-aware pinning can edge out greedy\n"
               "replication: first-idle dispatch sometimes hands a long task\n"
               "to a slow machine -- the classic weakness of plain list\n"
               "scheduling on uniform machines.\n";
  return EXIT_SUCCESS;
}
