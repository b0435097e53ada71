// Streaming-dispatch throughput: serve_stream vs the offline hot path
// (dispatch_online) on the same workload and the group-k=8 placement.
// Three measurements, min over --reps repetitions:
//
//   offline -- dispatch_online; the events/sec yardstick. Each task is
//     one scheduling event.
//
//   drain -- serve_stream with every arrival at t = 0. Doubles as the
//     equivalence check: the schedule AND trace of both the drain and the
//     offline run must match the pre-rewrite offline dispatcher
//     (check::reference_dispatch_online) bit-for-bit -- the bench
//     hard-fails otherwise -- so the measured gap is pure entry-point
//     overhead, not a different algorithm.
//
//   serve -- serve_stream under a saturating Poisson stream. The default
//     rate is deep heavy-traffic (~17x the machines' service capacity of
//     ~11.6 tasks/s at m=64), so the dispatcher is permanently backlogged
//     and events/sec measures the dispatch hot path rather than
//     phase-alternation overhead; lighter overloads spend a growing share
//     of time switching between the admission and dispatch phases (see
//     docs/SERVING.md). serve_vs_offline_ratio = serve / offline
//     events/sec -- the acceptance floor is 0.80 on this placement.
//
// Also reported: drain parity counters (always 0 in a recorded file;
// gated "exact" so a parity break trips the perf gate even if the hard
// failure is ever relaxed) and the Poisson run's simulated response-time
// percentiles (deterministic; also gated "exact").
//
// Usage: ext_serve_throughput [--n=500000] [--m=64] [--groups=8]
//        [--rate=200] [--reps=3] [--seed=1] [--out=BENCH_serve_throughput.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "check/reference_dispatcher.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "perturb/stochastic.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Bit-exact schedule + trace comparison; returns the mismatch count.
std::size_t count_mismatches(const Schedule& a, const DispatchTrace& ta,
                             const Schedule& b, const DispatchTrace& tb) {
  std::size_t mismatches = 0;
  const std::size_t n = a.num_tasks();
  if (b.num_tasks() != n || ta.size() != tb.size()) return n + 1;
  for (TaskId j = 0; j < n; ++j) {
    if (a.assignment.machine_of[j] != b.assignment.machine_of[j] ||
        a.start[j] != b.start[j] || a.finish[j] != b.finish[j]) {
      ++mismatches;
    }
  }
  for (std::size_t k = 0; k < ta.size(); ++k) {
    const DispatchEvent& ea = ta.events[k];
    const DispatchEvent& eb = tb.events[k];
    if (ea.when != eb.when || ea.task != eb.task || ea.machine != eb.machine ||
        ea.actual != eb.actual) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 500000, 1, "tasks");
  const auto m = args.integer<MachineId>("m", 64, 1, "machines");
  const auto groups = args.integer<MachineId>("groups", 8, 1, "groups (divides m)");
  const double rate = args.real("rate", 200.0, "arrival rate (tasks per sim s)", 0.0);
  const auto reps = args.integer<std::size_t>("reps", 3, 1, "timed repetitions");
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "random seed");
  const std::string out_path = args.text("out", "", "write the JSON record here");
  args.finish_or_exit();
  if (m % groups != 0) {
    std::cerr << "ext_serve_throughput: need groups | m\n";
    return EXIT_FAILURE;
  }

  // The group-k=8 regime from the acceptance criterion: m machines in
  // `groups` groups, tasks striped across them. Same workload shape as
  // ext_sim_throughput so the two benches are comparable.
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = seed;
  const Instance instance = uniform_workload(params, 1.0, 10.0);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % groups;
  const Placement placement = Placement::in_groups(group_of, groups, m);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  const Realization actual = realize(instance, NoiseModel::kUniform, seed + 1);

  const std::vector<Time> drain_arrivals(n, Time{0});
  const std::vector<Time> poisson_arrivals = [&] {
    ArrivalParams arrival_params;
    arrival_params.model = ArrivalModel::kPoisson;
    arrival_params.rate = rate;
    arrival_params.seed = seed + 2;
    return generate_arrivals(arrival_params, n);
  }();

  double offline_seconds = std::numeric_limits<double>::infinity();
  double drain_seconds = std::numeric_limits<double>::infinity();
  double serve_seconds = std::numeric_limits<double>::infinity();
  DispatchResult offline;
  StreamingDispatchResult drained;
  StreamingDispatchResult served;
  SimWorkspace& ws = thread_workspace();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto offline_start = Clock::now();
    dispatch_online(instance, placement, actual, priority, {}, {}, ws, offline);
    offline_seconds = std::min(offline_seconds, seconds_since(offline_start));

    const auto drain_start = Clock::now();
    serve_stream(instance, placement, actual, priority, drain_arrivals, {}, {},
                 ws, drained);
    drain_seconds = std::min(drain_seconds, seconds_since(drain_start));

    const auto serve_start = Clock::now();
    serve_stream(instance, placement, actual, priority, poisson_arrivals, {},
                 {}, ws, served);
    serve_seconds = std::min(serve_seconds, seconds_since(serve_start));
  }

  // Both runs go through the same dispatch kernel, so each is held to the
  // independent oracle rather than to the other.
  const DispatchResult reference =
      check::reference_dispatch_online(instance, placement, actual, priority);
  const std::size_t parity =
      count_mismatches(drained.schedule, drained.trace, reference.schedule,
                       reference.trace) +
      count_mismatches(offline.schedule, offline.trace, reference.schedule,
                       reference.trace);
  if (parity != 0 || drained.peak_backlog != n) {
    std::cerr << "ext_serve_throughput: DRAIN PARITY FAILURE -- " << parity
              << " mismatches, peak backlog " << drained.peak_backlog << "/"
              << n << "\n";
    return EXIT_FAILURE;
  }

  const ServeStats stats =
      compute_serve_stats(served.schedule, poisson_arrivals);
  const double nd = static_cast<double>(n);
  const double offline_eps = nd / offline_seconds;
  const double drain_eps = nd / drain_seconds;
  const double serve_eps = nd / serve_seconds;
  const double serve_ratio = serve_eps / offline_eps;
  const double drain_ratio = drain_eps / offline_eps;

  TextTable table({"core", "seconds", "events/sec", "vs offline"});
  table.add_row({"offline dispatch_online", fmt(offline_seconds, 3),
                 fmt(offline_eps, 0), "1.00"});
  table.add_row({"serve drain (t=0)", fmt(drain_seconds, 3), fmt(drain_eps, 0),
                 fmt(drain_ratio, 2)});
  table.add_row({"serve poisson", fmt(serve_seconds, 3), fmt(serve_eps, 0),
                 fmt(serve_ratio, 2)});
  std::cout << "ext_serve_throughput: n=" << n << " m=" << m
            << " groups=" << groups << " rate=" << rate << " reps=" << reps
            << " (drain and offline bit-exact vs the reference)\n"
            << table.render()
            << "response p50/p90/p99 (sim s): " << fmt(stats.response.p50, 2)
            << " / " << fmt(stats.response.p90, 2) << " / "
            << fmt(stats.response.p99, 2)
            << "  peak backlog: " << served.peak_backlog << "\n";

  if (!out_path.empty()) {
    JsonObject obj;
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(n));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(m));
    obj["groups"] = JsonValue(static_cast<unsigned long long>(groups));
    obj["reps"] = JsonValue(static_cast<unsigned long long>(reps));
    obj["rate"] = JsonValue(rate);
    obj["offline_seconds"] = JsonValue(offline_seconds);
    obj["drain_seconds"] = JsonValue(drain_seconds);
    obj["serve_seconds"] = JsonValue(serve_seconds);
    obj["offline_events_per_sec"] = JsonValue(offline_eps);
    obj["drain_events_per_sec"] = JsonValue(drain_eps);
    obj["serve_events_per_sec"] = JsonValue(serve_eps);
    obj["serve_vs_offline_ratio"] = JsonValue(serve_ratio);
    obj["drain_vs_offline_ratio"] = JsonValue(drain_ratio);
    obj["drain_parity_mismatches"] =
        JsonValue(static_cast<unsigned long long>(parity));
    obj["peak_backlog"] =
        JsonValue(static_cast<unsigned long long>(served.peak_backlog));
    obj["response_p50"] = JsonValue(stats.response.p50);
    obj["response_p90"] = JsonValue(stats.response.p90);
    obj["response_p99"] = JsonValue(stats.response.p99);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return EXIT_FAILURE;
    }
    out << JsonValue(std::move(obj)).dump(2) << "\n";
  }
  return EXIT_SUCCESS;
}
