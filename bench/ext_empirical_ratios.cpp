// Extension experiment A (beyond the paper, which has no system
// evaluation): measured competitive ratios of all three strategies over a
// grid of (m, alpha) x noise models, against certified optima. Shows how
// far typical behaviour sits below the worst-case guarantees and that the
// adversary is what actually stresses them.
//
// Usage: ext_empirical_ratios [--n=20] [--trials=5] [--threads=0]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "exp/ratio_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto n_per_machine = args.integer<std::size_t>("n", 5, 1, "tasks per machine");
  const auto trials = args.integer<std::size_t>("trials", 5, 1, "trials per point");
  args.finish_or_exit();

  RatioExperimentConfig config;
  config.exact_node_budget = 300'000;

  std::cout << "=== Ext-A: measured competitive ratios vs guarantees ===\n"
            << "(mean/max over " << trials
            << " stochastic trials + one adversary trial; denominators are\n"
            << "certified optimum lower bounds, so columns over-estimate the\n"
            << "true ratio)\n\n";

  for (MachineId m : {2u, 4u, 8u}) {
    for (double alpha : {1.1, 1.5, 2.0}) {
      WorkloadParams params;
      params.num_tasks = n_per_machine * m;
      params.num_machines = m;
      params.alpha = alpha;
      params.seed = 31;
      const Instance inst = uniform_workload(params, 1.0, 10.0);

      TextTable table({"strategy", "guarantee", "adversary", "mean(unif)",
                       "max(unif)", "max(2pt)"});
      for (const TwoPhaseStrategy& s : paper_strategy_family(m)) {
        double guarantee = 0;
        if (s.name() == "LPT-NoChoice") {
          guarantee = thm2_lpt_no_choice(alpha, m);
        } else if (s.name() == "LPT-NoRestriction") {
          guarantee = thm3_lpt_no_restriction(alpha, m);
        } else {
          // LS-Group(k=...)
          const auto pos = s.name().find("k=");
          const MachineId k =
              static_cast<MachineId>(std::stoul(s.name().substr(pos + 2)));
          guarantee = thm4_ls_group(alpha, m, k);
        }
        const RatioTrial adv = measure_adversarial_ratio(s, inst, config);
        const RatioAggregate unif =
            measure_ratio_batch(s, inst, NoiseModel::kUniform, trials, 7, config);
        const RatioAggregate twopt =
            measure_ratio_batch(s, inst, NoiseModel::kTwoPoint, trials, 8, config);
        table.add_row({s.name(), fmt(guarantee), fmt(adv.ratio),
                       fmt(unif.ratios.mean()), fmt(unif.ratios.max()),
                       fmt(twopt.ratios.max())});
      }
      std::cout << "m=" << m << " alpha=" << alpha << " n=" << params.num_tasks
                << "\n"
                << table.render() << "\n";
    }
  }
  std::cout << "Shape check: every measured column <= guarantee; adversary\n"
            << "column dominates the stochastic ones; replication reduces the\n"
            << "adversary column monotonically.\n";
  return EXIT_SUCCESS;
}
