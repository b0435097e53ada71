// Simulator-core throughput: the hot-path rewrite (struct-of-arrays
// workspace, calendar event queue, arena allocation) vs the retained
// pre-rewrite core (check/reference_dispatcher.*). Both cores run in the
// same binary on the same instance, so the speedup is apples-to-apples
// and the outputs double as a bit-exactness check.
//
// Two measurements:
//
//   dispatch -- dispatch_online vs reference_dispatch_online on the three
//     canonical placements of one big workload: full replication
//     (Placement::everywhere, the paper's replication upper bound and the
//     headline instance), group replication, and singleton pinning. Each
//     task is one scheduling event, so events/sec = n / seconds. The
//     schedules must match bit-for-bit on every placement.
//
//   queue -- the classic hold model on the event queues alone: prime with
//     q events, then ops times (pop the minimum, push it back at a later
//     time). CalendarQueue vs the old std::priority_queue wrapper, same
//     deterministic event stream, popped-time checksums compared.
//
// The min over --reps repetitions is reported (steady-state figure; the
// first rep pays page faults and arena growth).
//
// Usage: ext_sim_throughput [--n=1000000] [--m=64] [--groups=8]
//        [--reps=3] [--hold-size=4096] [--hold-ops=2000000] [--seed=1]
//        [--out=BENCH_sim_throughput.json]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
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
#include "sim/event_queue.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: cheap deterministic stream for the hold-model increments.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Runs the hold model on any queue with push(time, payload) / pop()
/// returning {time, seq, payload}. Returns an order-sensitive checksum of
/// the popped (time, payload) stream so both queues can be diffed.
template <typename Queue>
std::uint64_t run_hold(Queue& queue, std::size_t size, std::size_t ops,
                       std::uint64_t seed) {
  std::uint64_t rng = seed;
  for (std::size_t i = 0; i < size; ++i) {
    const double t =
        static_cast<double>(mix64(rng) >> 11) * 0x1.0p-53 * 1000.0;
    queue.push(t, static_cast<std::uint64_t>(i));
  }
  std::uint64_t checksum = 14695981039346656037ull;
  for (std::size_t i = 0; i < ops; ++i) {
    auto event = queue.pop();
    checksum = (checksum ^ event.payload) * 1099511628211ull;
    checksum = (checksum ^ std::bit_cast<std::uint64_t>(event.time)) *
               1099511628211ull;
    const double step =
        static_cast<double>(mix64(rng) >> 11) * 0x1.0p-53 * 10.0;
    queue.push(event.time + step, event.payload);
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 1000000, 1, "tasks");
  const auto m = args.integer<MachineId>("m", 64, 1, "machines");
  const auto groups = args.integer<MachineId>("groups", 8, 1, "groups (divides m)");
  const auto reps = args.integer<std::size_t>("reps", 3, 1, "timed repetitions");
  const auto hold_size = args.integer<std::size_t>("hold-size", 4096, 1, "hold size");
  const auto hold_ops = args.integer<std::size_t>("hold-ops", 2000000, 1, "hold ops");
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "random seed");
  const std::string out_path = args.text("out", "", "write the JSON record here");
  args.finish_or_exit();
  if (m % groups != 0) {
    std::cerr << "ext_sim_throughput: need groups | m\n";
    return EXIT_FAILURE;
  }

  // One workload, the paper's three canonical placements. Full
  // replication is the headline instance: it exposes everything the
  // rewrite removed from the pre-rewrite core (per-dispatch replica-set
  // hashing, an n-entry comparison sort of the queue, AoS state).
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = seed;
  const Instance instance = uniform_workload(params, 1.0, 10.0);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % groups;
  std::vector<MachineId> pin_of(n);
  for (TaskId j = 0; j < n; ++j) pin_of[j] = static_cast<MachineId>(j % m);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  const Realization actual = realize(instance, NoiseModel::kUniform, seed + 1);

  struct DispatchCase {
    const char* name;
    Placement placement;
    double ref_seconds = std::numeric_limits<double>::infinity();
    double soa_seconds = std::numeric_limits<double>::infinity();
  };
  DispatchCase cases[] = {
      {"full replication", Placement::everywhere(n, m)},
      {"group replication", Placement::in_groups(group_of, groups, m)},
      {"singleton", Placement::singleton(pin_of, m)},
  };

  // --- dispatch: reference (pre-rewrite) vs SoA core --------------------
  std::size_t mismatches = 0;
  double max_abs_diff = 0;
  DispatchResult reference;
  DispatchResult rewritten;
  for (DispatchCase& c : cases) {
    for (std::size_t r = 0; r < reps; ++r) {
      const auto ref_start = Clock::now();
      reference = check::reference_dispatch_online(instance, c.placement,
                                                   actual, priority);
      c.ref_seconds = std::min(c.ref_seconds, seconds_since(ref_start));

      const auto soa_start = Clock::now();
      dispatch_online(instance, c.placement, actual, priority, {}, {},
                      thread_workspace(), rewritten);
      c.soa_seconds = std::min(c.soa_seconds, seconds_since(soa_start));
    }
    // Bit-exactness: the bench refuses to report a speedup for a core
    // that schedules differently.
    for (TaskId j = 0; j < n; ++j) {
      if (reference.schedule.assignment.machine_of[j] !=
          rewritten.schedule.assignment.machine_of[j]) {
        ++mismatches;
      }
      max_abs_diff = std::max(
          max_abs_diff, std::fabs(reference.schedule.finish[j] -
                                  rewritten.schedule.finish[j]));
      max_abs_diff = std::max(
          max_abs_diff,
          std::fabs(reference.schedule.start[j] - rewritten.schedule.start[j]));
    }
    if (mismatches != 0 || max_abs_diff != 0) {
      std::cerr << "ext_sim_throughput: PARITY FAILURE (" << c.name << ") -- "
                << mismatches << " assignment mismatches, max |dt| = "
                << max_abs_diff << "\n";
      return EXIT_FAILURE;
    }
  }

  // --- queue: hold model, legacy binary heap vs calendar queue ----------
  double legacy_seconds = std::numeric_limits<double>::infinity();
  double calendar_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t legacy_sum = 0;
  std::uint64_t calendar_sum = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    check::LegacyEventQueue<std::uint64_t> legacy;
    const auto legacy_start = Clock::now();
    legacy_sum = run_hold(legacy, hold_size, hold_ops, seed);
    legacy_seconds = std::min(legacy_seconds, seconds_since(legacy_start));

    EventQueue<std::uint64_t> calendar;
    const auto calendar_start = Clock::now();
    calendar_sum = run_hold(calendar, hold_size, hold_ops, seed);
    calendar_seconds = std::min(calendar_seconds, seconds_since(calendar_start));
  }
  if (legacy_sum != calendar_sum) {
    std::cerr << "ext_sim_throughput: QUEUE DIVERGENCE -- hold-model "
                 "checksums differ (legacy "
              << legacy_sum << " vs calendar " << calendar_sum << ")\n";
    return EXIT_FAILURE;
  }

  const double nd = static_cast<double>(n);
  const DispatchCase& headline = cases[0];  // full replication
  const double ref_eps = nd / headline.ref_seconds;
  const double soa_eps = nd / headline.soa_seconds;
  const double dispatch_speedup = headline.ref_seconds / headline.soa_seconds;
  const double od = static_cast<double>(hold_ops);
  const double queue_speedup = legacy_seconds / calendar_seconds;

  TextTable table({"core", "seconds", "events/sec", "speedup"});
  for (const DispatchCase& c : cases) {
    table.add_row({std::string(c.name) + " reference", fmt(c.ref_seconds, 3),
                   fmt(nd / c.ref_seconds, 0), "1.00"});
    table.add_row({std::string(c.name) + " SoA", fmt(c.soa_seconds, 3),
                   fmt(nd / c.soa_seconds, 0),
                   fmt(c.ref_seconds / c.soa_seconds, 2)});
  }
  table.add_row({"queue legacy heap", fmt(legacy_seconds, 3),
                 fmt(od / legacy_seconds, 0), "1.00"});
  table.add_row({"queue calendar", fmt(calendar_seconds, 3),
                 fmt(od / calendar_seconds, 0), fmt(queue_speedup, 2)});
  std::cout << "ext_sim_throughput: n=" << n << " m=" << m
            << " groups=" << groups << " reps=" << reps
            << " hold=" << hold_size << "x" << hold_ops
            << " (schedules bit-exact)\n"
            << table.render();

  if (!out_path.empty()) {
    JsonObject obj;
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(n));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(m));
    obj["groups"] = JsonValue(static_cast<unsigned long long>(groups));
    obj["reps"] = JsonValue(static_cast<unsigned long long>(reps));
    obj["hold_size"] = JsonValue(static_cast<unsigned long long>(hold_size));
    obj["hold_ops"] = JsonValue(static_cast<unsigned long long>(hold_ops));
    // Headline metrics: the full-replication instance.
    obj["reference_dispatch_seconds"] = JsonValue(headline.ref_seconds);
    obj["soa_dispatch_seconds"] = JsonValue(headline.soa_seconds);
    obj["reference_events_per_sec"] = JsonValue(ref_eps);
    obj["soa_events_per_sec"] = JsonValue(soa_eps);
    obj["dispatch_speedup"] = JsonValue(dispatch_speedup);
    // The other two canonical placements, same workload.
    obj["group_reference_seconds"] = JsonValue(cases[1].ref_seconds);
    obj["group_soa_seconds"] = JsonValue(cases[1].soa_seconds);
    obj["group_dispatch_speedup"] =
        JsonValue(cases[1].ref_seconds / cases[1].soa_seconds);
    obj["singleton_reference_seconds"] = JsonValue(cases[2].ref_seconds);
    obj["singleton_soa_seconds"] = JsonValue(cases[2].soa_seconds);
    obj["singleton_dispatch_speedup"] =
        JsonValue(cases[2].ref_seconds / cases[2].soa_seconds);
    obj["queue_legacy_seconds"] = JsonValue(legacy_seconds);
    obj["queue_calendar_seconds"] = JsonValue(calendar_seconds);
    obj["queue_speedup"] = JsonValue(queue_speedup);
    obj["parity_mismatches"] =
        JsonValue(static_cast<unsigned long long>(mismatches));
    obj["parity_max_abs_diff"] = JsonValue(max_abs_diff);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return EXIT_FAILURE;
    }
    out << JsonValue(std::move(obj)).dump(2) << "\n";
  }
  return EXIT_SUCCESS;
}
