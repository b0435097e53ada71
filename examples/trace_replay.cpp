// Trace replay: evaluate replication strategies against *recorded*
// executions instead of synthetic noise. The example synthesizes a
// cluster-style trace (or loads one you pass with --trace=<path>),
// calibrates alpha from it, replays every strategy against the recorded
// actual runtimes, and reports makespans plus schedule diagnostics.
//
//   $ ./trace_replay                       # synthesized demo trace
//   $ ./trace_replay --trace=mytrace.csv --m=8
#include <cstdlib>
#include <iostream>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "stats/schedule_stats.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  Args args(argc, argv);
  const auto m = args.integer<MachineId>("m", 6, 1, "machines");
  const std::string trace_path = args.text("trace", "", "trace CSV (default: a demo)");
  args.finish_or_exit();

  Trace trace;
  if (trace_path.empty()) {
    // Synthesize a demo trace: bimodal tasks perturbed log-uniformly.
    WorkloadParams params;
    params.num_tasks = 48;
    params.num_machines = m;
    params.alpha = 1.9;
    params.seed = 55;
    const Instance source = bimodal_workload(params, 2.0, 30.0, 0.2);
    const Realization actual = realize(source, NoiseModel::kLogUniform, 56);
    trace = make_synthetic_trace(source, actual);
    std::cout << "(no --trace given; synthesized a demo trace of " << trace.size()
              << " records)\n\n";
  } else {
    trace = load_trace(trace_path);
    std::cout << "Loaded " << trace.size() << " records from " << trace_path
              << "\n\n";
  }

  const ReplayableWorkload workload = workload_from_trace(trace, m);
  std::cout << "Calibrated instance: " << workload.instance.summary()
            << " (alpha fitted from the trace)\n\n";

  TextTable table({"strategy", "C_max", "replicas", "diagnostics"});
  for (const TwoPhaseStrategy& s : paper_strategy_family(m)) {
    const StrategyResult result = s.run(workload.instance, workload.actual);
    const ScheduleStats stats =
        compute_schedule_stats(workload.instance, result.schedule);
    table.add_row({s.name(), fmt(result.makespan, 2),
                   std::to_string(result.max_replication), to_string(stats)});
  }
  std::cout << table.render()
            << "\nReplay reading: utilization rises and makespan falls with the\n"
            << "replication degree -- on the *recorded* runtimes, not a model.\n";
  return EXIT_SUCCESS;
}
