// Extension experiment G (the paper's future work: "more general
// replication policies can certainly lead to better guarantees"):
// partition groups vs sliding windows vs random subsets at matched
// replication degree, under adversarial and stochastic noise.
//
// Usage: ext_general_policies [--m=12] [--n=48] [--trials=6]
#include <cstdlib>
#include <iostream>

#include "algo/overlap.hpp"
#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "exp/ratio_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 12, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 48, 1, "tasks");
  const auto trials = args.integer<std::size_t>("trials", 6, 1, "trials per point");
  args.finish_or_exit();

  RatioExperimentConfig config;
  config.exact_node_budget = 0;  // LB denominators: consistent comparison

  std::cout << "=== Ext-G: general replication policies at matched degree ===\n"
            << "(m=" << m << ", n=" << n << ", ratios vs analytic LB, "
            << trials << " two-point trials)\n\n";

  for (double alpha : {1.5, 2.0}) {
    WorkloadParams params;
    params.num_tasks = n;
    params.num_machines = m;
    params.alpha = alpha;
    params.seed = 41;
    const Instance inst = uniform_workload(params, 1.0, 10.0);

    TextTable table({"degree r", "partition (LS-Group)", "sliding window",
                     "random subset"});
    for (MachineId r : {2u, 3u, 4u, 5u, 6u, 8u}) {
      auto mean_of = [&](const TwoPhaseStrategy& s) {
        return measure_ratio_batch(s, inst, NoiseModel::kTwoPoint, trials, 19,
                                   config)
            .ratios.mean();
      };
      const double partition =
          (m % r == 0) ? mean_of(make_ls_group(m / r)) : -1.0;
      const double window = mean_of(make_sliding_window(r));
      const double random = mean_of(make_random_subset(r, 7));
      table.add_row({std::to_string(r),
                     partition < 0 ? std::string("n/a") : fmt(partition),
                     fmt(window), fmt(random)});
    }
    std::cout << "alpha = " << alpha << "\n" << table.render() << "\n";
  }
  std::cout << "Shape: for divisor degrees the greedy window anchoring tiles the\n"
            << "machine ring, so sliding windows *reduce exactly* to LS-Group\n"
            << "(identical columns); their added value is the non-divisor\n"
            << "degrees (r=5, r=8 on m=12) partition groups cannot express.\n"
            << "Random subsets are competitive on average but lack the\n"
            << "worst-case structure.\n";
  return EXIT_SUCCESS;
}
