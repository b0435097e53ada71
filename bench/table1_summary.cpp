// Reproduces Table 1: the guarantee formulas of the replication-bound
// model, tabulated over (m, alpha), together with an empirical column --
// the worst measured ratio of each algorithm under its placement-aware
// adversary and stochastic noise (certified optimum denominators).
//
// Usage: table1_summary [--m=8] [--alphas=1.1,1.5,2.0] [--n=24] [--trials=5]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "cli/args.hpp"
#include "exp/ratio_experiment.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace {

double worst_measured(const rdp::TwoPhaseStrategy& strategy,
                      const rdp::Instance& inst, std::size_t trials) {
  using namespace rdp;
  RatioExperimentConfig config;
  config.exact_node_budget = 500'000;
  double worst = measure_adversarial_ratio(strategy, inst, config).ratio;
  for (NoiseModel noise : {NoiseModel::kUniform, NoiseModel::kTwoPoint}) {
    const RatioAggregate agg =
        measure_ratio_batch(strategy, inst, noise, trials, 1234, config);
    worst = std::max(worst, agg.worst.ratio);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 24, 1, "tasks");
  const auto trials = args.integer<std::size_t>("trials", 5, 1, "trials per point");
  const std::vector<double> alphas = args.reals("alphas", "1.1,1.5,2.0", "alphas");
  args.finish_or_exit();

  std::cout << "=== Table 1: replication-bound model guarantees (m=" << m << ") ===\n"
            << "Rows: replication regime. Guarantee columns are the paper's\n"
            << "closed forms; 'measured' is the worst ratio seen across the\n"
            << "placement-aware adversary and " << trials
            << " stochastic trials (n=" << n << ", certified optima).\n\n";

  for (double alpha : alphas) {
    WorkloadParams params;
    params.num_tasks = n;
    params.num_machines = m;
    params.alpha = alpha;
    params.seed = 7;
    const Instance inst = uniform_workload(params, 1.0, 10.0);

    TextTable table({"replication", "guarantee", "lower-bound", "measured",
                     "algorithm"});
    {
      std::vector<std::string> row = {
          "|M_j|=1", fmt(thm2_lpt_no_choice(alpha, m)),
          fmt(thm1_no_replication_lower_bound(alpha, m)),
          fmt(worst_measured(make_lpt_no_choice(), inst, trials)), "LPT-NoChoice"};
      table.add_row(row);
    }
    for (MachineId k : {m / 2, m / 4}) {
      if (k < 2 || m % k != 0) continue;
      std::vector<std::string> row = {
          "|M_j|=" + std::to_string(m / k), fmt(thm4_ls_group(alpha, m, k)), "-",
          fmt(worst_measured(make_ls_group(k), inst, trials)),
          "LS-Group(k=" + std::to_string(k) + ")"};
      table.add_row(row);
    }
    {
      std::vector<std::string> row = {
          "|M_j|=m", fmt(thm3_lpt_no_restriction(alpha, m)), "-",
          fmt(worst_measured(make_lpt_no_restriction(), inst, trials)),
          "LPT-NoRestriction"};
      table.add_row(row);
    }
    {
      std::vector<std::string> row = {
          "|M_j|=m", fmt(graham_list_scheduling(m)), "-",
          fmt(worst_measured(make_ls_no_restriction(), inst, trials)),
          "LS (Graham baseline)"};
      table.add_row(row);
    }
    std::cout << "alpha = " << alpha << "\n" << table.render() << "\n";
  }
  std::cout << "Shape check: measured <= guarantee on every row; guarantees\n"
            << "shrink monotonically with replication degree.\n";
  return EXIT_SUCCESS;
}
