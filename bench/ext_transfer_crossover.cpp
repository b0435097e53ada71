// Extension experiment L: when does replication stop mattering? The
// paper treats remote execution as impossible; here the fetch overhead is
// a bandwidth parameter. For each bandwidth we measure the makespan of
// no-replication vs group vs full replication under locality-aware
// dispatch. At tiny bandwidth the paper's regime holds (placement is
// destiny); at infinite bandwidth all placements converge -- the
// crossover maps the modeling assumption's validity region.
//
// Usage: ext_transfer_crossover [--m=8] [--n=48] [--trials=6] [--json=path]
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "exp/report.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "sim/transfer_dispatcher.hpp"
#include "stats/welford.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto n = args.integer<std::size_t>("n", 48, 1, "tasks");
  const auto trials = args.integer<std::size_t>("trials", 6, 1, "trials per point");
  const std::string json_path = args.text("json", "", "write a JSON report");
  args.finish_or_exit();

  // Sizes correlate with times (out-of-core blocks): fetching a big task
  // costs time comparable to running it at bandwidth ~1.
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.8;
  params.seed = 43;
  const Instance inst = correlated_sizes_workload(params, 1.0, 0.2);

  ExperimentReport report("ext-transfer-crossover",
                          "replication value vs fetch bandwidth");
  report.set_param("m", static_cast<double>(m));
  report.set_param("n", static_cast<double>(n));
  report.set_param("alpha", 1.8);
  Series& series = report.series(
      "crossover", {"bandwidth", "no_replication", "group_k2", "full",
                    "remote_runs_no_repl"});

  std::cout << "=== Ext-L: replication vs fetch bandwidth (m=" << m << ", n=" << n
            << ") ===\n\n";
  TextTable table({"bandwidth", "no replication", "group k=2", "full replication",
                   "remote runs (no-repl)"});
  for (double bandwidth : {0.05, 0.2, 1.0, 5.0, 25.0, 1e6}) {
    TransferModel model;
    model.bandwidth = bandwidth;

    Welford none, grouped, full;
    double remote = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const Realization actual = realize(inst, NoiseModel::kUniform, 800 + t);
      auto run = [&](const TwoPhaseStrategy& s) {
        const Placement placement = s.place(inst);
        return dispatch_with_transfers(inst, placement, actual,
                                       make_priority(inst, s.rule()), model);
      };
      const TransferDispatchResult r_none = run(make_lpt_no_choice());
      none.add(r_none.makespan);
      remote += static_cast<double>(r_none.remote_runs);
      grouped.add(run(make_ls_group(2)).makespan);
      full.add(run(make_lpt_no_restriction()).makespan);
    }
    table.add_row({fmt(bandwidth, 2), fmt(none.mean(), 2), fmt(grouped.mean(), 2),
                   fmt(full.mean(), 2),
                   fmt(remote / static_cast<double>(trials), 1)});
    series.add_row({bandwidth, none.mean(), grouped.mean(), full.mean(),
                    remote / static_cast<double>(trials)});
  }
  std::cout << table.render()
            << "\nShape: at low bandwidth the columns separate exactly like the\n"
               "paper's model predicts (placement decides everything, ~3x gap);\n"
               "as bandwidth grows, work stealing shrinks the gap to a few\n"
               "percent. A residual gap remains even at infinite bandwidth:\n"
               "the locality-first rule still follows the pinned plan while\n"
               "full replication dispatches pure online LPT -- replication's\n"
               "value is the area between the curves.\n";
  if (!json_path.empty()) {
    report.save_json(json_path);
    std::cout << "JSON report written to " << json_path << "\n";
  }
  return EXIT_SUCCESS;
}
