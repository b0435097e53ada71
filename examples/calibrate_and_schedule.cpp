// End-to-end production workflow: calibrate alpha from execution history,
// decide a replication strategy with scenario analysis under the fitted
// alpha, then run the schedule and write an SVG Gantt of the result.
//
//   $ ./calibrate_and_schedule [--history=500] [--m=6] [--n=30]
//       [--svg=/tmp/schedule.svg]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "core/realization.hpp"
#include "exp/scenario.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "perturb/alpha_fit.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto history_size = args.integer<std::size_t>("history", 500, 1, "history tasks");
  const auto m = args.integer<MachineId>("m", 6, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 30, 1, "tasks");
  const std::string svg_path = args.text("svg", "", "write the schedule as SVG");
  args.finish_or_exit();

  // ---- Step 1: calibrate alpha from history. -------------------------
  // Synthetic history: the "true" system perturbs estimates log-uniformly
  // within a factor 1.7 (unknown to us).
  WorkloadParams hist_params;
  hist_params.num_tasks = history_size;
  hist_params.num_machines = m;
  hist_params.alpha = 1.7;
  hist_params.seed = 61;
  const Instance hist_inst = uniform_workload(hist_params, 1.0, 50.0);
  const Realization hist_actual = realize(hist_inst, NoiseModel::kLogUniform, 62);
  std::vector<Observation> history;
  for (TaskId j = 0; j < hist_inst.num_tasks(); ++j) {
    history.push_back({hist_inst.estimate(j), hist_actual[j]});
  }
  const CalibrationReport report = calibrate(history);
  std::cout << "Step 1 -- calibration from " << report.samples << " runs:\n"
            << "  alpha_max (covers all)  = " << fmt(report.alpha_max, 3) << "\n"
            << "  alpha_p95               = " << fmt(report.alpha_p95, 3) << "\n"
            << "  bias (geo-mean act/est) = " << fmt(report.bias, 3) << "\n\n";
  const double alpha = report.alpha_max;

  // ---- Step 2: pick the strategy by scenario analysis. ---------------
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 63;
  const Instance inst = uniform_workload(params, 1.0, 10.0);
  const ScenarioSet scenarios = make_mixed_scenarios(inst, 10, 64);
  std::vector<TwoPhaseStrategy> candidates;
  candidates.push_back(make_lpt_no_choice());
  for (MachineId k = 2; k <= m; ++k) {
    if (m % k == 0) candidates.push_back(make_ls_group(k));
  }
  candidates.push_back(make_lpt_no_restriction());
  const std::size_t pick = select_min_max(candidates, inst, scenarios);
  std::cout << "Step 2 -- min-max scenario selection over " << candidates.size()
            << " strategies: " << candidates[pick].name() << "\n\n";

  // ---- Step 3: run it against "today's" realization. -----------------
  const Realization today = realize(inst, NoiseModel::kLogUniform, 65);
  const StrategyResult result = candidates[pick].run(inst, today);
  std::cout << "Step 3 -- executed: C_max = " << fmt(result.makespan, 2)
            << ", Mem_max = " << fmt(result.max_memory, 0)
            << ", max replicas = " << result.max_replication << "\n";

  if (!svg_path.empty()) {
    save_svg(svg_path, inst, result.schedule);
    std::cout << "SVG Gantt written to " << svg_path << "\n";
  }
  return EXIT_SUCCESS;
}
