#include "check/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <queue>
#include <stdexcept>
#include <utility>

#include "adapt/adaptive_strategy.hpp"
#include "check/invariants.hpp"
#include "check/reference_dispatcher.hpp"
#include "check/reference_slo.hpp"
#include "exact/certify_scale.hpp"
#include "exact/optimal.hpp"
#include "hetero/uniform_machines.hpp"
#include "io/json.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "serve/arrivals.hpp"
#include "serve/slo.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/trace.hpp"

namespace rdp::check {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::infinity();

// ---------------------------------------------------------------------
// Naive reference for the failure-aware dispatcher. This is deliberately
// the textbook O(n) rescan-per-event algorithm (the shape the production
// dispatcher had before it grew per-machine eligibility heaps), kept as
// an independent oracle: the optimized dispatcher must reproduce it
// bit-for-bit on every fuzzed failure plan.

enum class RefEventKind : int { kTaskFinish = 0, kFailure = 1, kMachineFree = 2 };

struct RefEvent {
  Time when;
  RefEventKind kind;
  MachineId machine;
  TaskId task;
  std::uint64_t epoch;
  std::uint64_t seq;

  bool operator<(const RefEvent& other) const noexcept {
    if (when != other.when) return when > other.when;
    if (kind != other.kind) return static_cast<int>(kind) > static_cast<int>(other.kind);
    if (kind == RefEventKind::kMachineFree && machine != other.machine) {
      return machine > other.machine;
    }
    return seq > other.seq;
  }
};

enum class RefStatus { kWaiting, kRunning, kDone };

FailureDispatchResult reference_dispatch_with_failures(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const FailurePlan& plan) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();

  std::vector<Time> fail_time(m, kNever);
  for (const MachineFailure& f : plan.failures) {
    fail_time[f.machine] = std::min(fail_time[f.machine], f.when);
  }
  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;

  std::vector<RefStatus> status(n, RefStatus::kWaiting);
  std::vector<bool> refetch(n, false);
  std::vector<Time> earliest(n, 0);
  std::vector<std::uint64_t> epoch(n, 0);
  std::vector<bool> failed(m, false);
  std::vector<bool> machine_idle(m, false);
  std::vector<TaskId> running_on(m, kNoTask);

  FailureDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);

  std::priority_queue<RefEvent> events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(RefEvent{0, RefEventKind::kMachineFree, i, kNoTask, 0, seq++});
    if (fail_time[i] < kNever) {
      events.push(RefEvent{fail_time[i], RefEventKind::kFailure, i, kNoTask, 0,
                           seq++});
    }
  }

  std::size_t remaining = n;
  auto eligible = [&](TaskId j, MachineId i) {
    if (failed[i]) return false;
    return refetch[j] ? true : placement.allows(j, i);
  };
  auto duration_of = [&](TaskId j) {
    return actual[j] + (refetch[j] ? plan.refetch_penalty : Time{0});
  };
  auto wake_idle_machines = [&](Time t) {
    for (MachineId i = 0; i < m; ++i) {
      if (machine_idle[i] && !failed[i]) {
        machine_idle[i] = false;
        events.push(RefEvent{t, RefEventKind::kMachineFree, i, kNoTask, 0, seq++});
      }
    }
  };

  while (remaining > 0) {
    if (events.empty()) {
      throw std::invalid_argument("reference_dispatch_with_failures: deadlock");
    }
    const RefEvent e = events.top();
    events.pop();
    switch (e.kind) {
      case RefEventKind::kTaskFinish: {
        const TaskId j = e.task;
        if (status[j] != RefStatus::kRunning || epoch[j] != e.epoch) break;
        status[j] = RefStatus::kDone;
        running_on[e.machine] = kNoTask;
        --remaining;
        events.push(RefEvent{e.when, RefEventKind::kMachineFree, e.machine, kNoTask,
                             0, seq++});
        break;
      }
      case RefEventKind::kFailure: {
        const MachineId i = e.machine;
        if (failed[i]) break;
        failed[i] = true;
        machine_idle[i] = false;
        if (running_on[i] != kNoTask) {
          const TaskId j = running_on[i];
          running_on[i] = kNoTask;
          status[j] = RefStatus::kWaiting;
          ++epoch[j];
          earliest[j] = e.when;
          ++result.restarts;
        }
        for (TaskId j = 0; j < n; ++j) {
          if (status[j] != RefStatus::kWaiting || refetch[j]) continue;
          bool any_alive = false;
          for (MachineId machine : placement.machines_for(j)) {
            if (!failed[machine]) {
              any_alive = true;
              break;
            }
          }
          if (!any_alive) {
            refetch[j] = true;
            ++result.refetches;
          }
        }
        wake_idle_machines(e.when);
        break;
      }
      case RefEventKind::kMachineFree: {
        const MachineId i = e.machine;
        if (failed[i] || running_on[i] != kNoTask) break;
        TaskId best_now = kNoTask;
        std::uint32_t best_now_rank = UINT32_MAX;
        Time soonest_future = kNever;
        for (TaskId j = 0; j < n; ++j) {
          if (status[j] != RefStatus::kWaiting || !eligible(j, i)) continue;
          if (earliest[j] <= e.when) {
            if (rank[j] < best_now_rank) {
              best_now_rank = rank[j];
              best_now = j;
            }
          } else {
            soonest_future = std::min(soonest_future, earliest[j]);
          }
        }
        if (best_now != kNoTask) {
          const TaskId j = best_now;
          status[j] = RefStatus::kRunning;
          running_on[i] = j;
          const Time dur = duration_of(j);
          result.schedule.assignment.machine_of[j] = i;
          result.schedule.start[j] = e.when;
          result.schedule.finish[j] = e.when + dur;
          result.trace.events.push_back(DispatchEvent{e.when, j, i, dur});
          events.push(RefEvent{e.when + dur, RefEventKind::kTaskFinish, i, j,
                               epoch[j], seq++});
        } else if (soonest_future < kNever) {
          events.push(RefEvent{soonest_future, RefEventKind::kMachineFree, i,
                               kNoTask, 0, seq++});
        } else {
          machine_idle[i] = true;
        }
        break;
      }
    }
  }
  result.makespan = result.schedule.makespan();
  return result;
}

// ---------------------------------------------------------------------
// Case generation.

std::vector<TaskId> identity_priority(std::size_t n) {
  std::vector<TaskId> priority(n);
  for (TaskId j = 0; j < n; ++j) priority[j] = j;
  return priority;
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t seed, const FuzzCaseConfig& config) {
  if (config.min_tasks == 0 || config.min_tasks > config.max_tasks ||
      config.min_machines == 0 || config.min_machines > config.max_machines) {
    throw std::invalid_argument("make_fuzz_case: bad generator bounds");
  }
  Xoshiro256 rng(seed);
  FuzzCase out;
  out.seed = seed;

  const std::size_t n =
      config.min_tasks + static_cast<std::size_t>(
                             rng.next_below(config.max_tasks - config.min_tasks + 1));
  const MachineId m =
      config.min_machines +
      static_cast<MachineId>(rng.next_below(config.max_machines -
                                            config.min_machines + 1));
  const double alpha = sample_uniform(rng, 1.1, 3.0);

  std::vector<Task> tasks(n);
  for (Task& task : tasks) {
    task.estimate = sample_uniform(rng, 1.0, 10.0);
    task.size = sample_uniform(rng, 0.5, 4.0);
  }
  out.instance = Instance(std::move(tasks), m, alpha);

  // Random replica sets with degree uniform in [1, m].
  std::vector<std::vector<MachineId>> sets(n);
  std::vector<MachineId> pool(m);
  for (MachineId i = 0; i < m; ++i) pool[i] = i;
  for (auto& set : sets) {
    const auto degree = 1 + static_cast<MachineId>(rng.next_below(m));
    shuffle(rng, pool);
    set.assign(pool.begin(), pool.begin() + degree);
  }
  out.placement = Placement(std::move(sets), m);

  out.priority = identity_priority(n);
  shuffle(rng, out.priority);

  out.actual.actual.resize(n);
  for (TaskId j = 0; j < n; ++j) {
    // Drifting scenario: the band a task's factor is drawn from widens
    // across the task index, from no uncertainty up to 1.5x the declared
    // alpha -- so late tasks can violate the declared band.
    double band = alpha;
    if (config.scenario == FuzzScenario::kDriftingAlpha && n > 1) {
      const double t = static_cast<double>(j) / static_cast<double>(n - 1);
      band = 1.0 + (1.5 * alpha - 1.0) * t;
    }
    out.actual.actual[j] =
        out.instance.estimate(j) * sample_uniform(rng, 1.0 / band, band);
  }

  // Fail-stop plan: each machine fails with probability ~40%, but at
  // least one machine always survives (otherwise the model is infeasible
  // once a task refetches). Failure times span the plausible horizon.
  const Time horizon =
      out.instance.total_estimate() / static_cast<double>(m) * 1.5 +
      out.instance.max_estimate();
  std::vector<MachineId> failing;
  for (MachineId i = 0; i < m; ++i) {
    if (rng.next_double() < 0.4) failing.push_back(i);
  }
  if (failing.size() == m) {
    failing.erase(failing.begin() +
                  static_cast<std::ptrdiff_t>(rng.next_below(failing.size())));
  }
  for (MachineId i : failing) {
    out.plan.failures.push_back(MachineFailure{i, sample_uniform(rng, 0.0, horizon)});
  }
  out.plan.refetch_penalty = sample_uniform(rng, 0.0, 5.0);

  out.transfer.bandwidth = sample_log_uniform(rng, 0.25, 8.0);
  out.transfer.latency = sample_uniform(rng, 0.0, 2.0);

  out.speeds.resize(m);
  for (MachineId i = 0; i < m; ++i) out.speeds[i] = sample_uniform(rng, 0.5, 2.0);
  return out;
}

FuzzCase restrict_tasks(const FuzzCase& fuzz_case, std::size_t num_tasks) {
  const std::size_t n = fuzz_case.instance.num_tasks();
  if (num_tasks == 0 || num_tasks > n) {
    throw std::invalid_argument("restrict_tasks: prefix size out of range");
  }
  FuzzCase out;
  out.seed = fuzz_case.seed;
  std::vector<Task> tasks(fuzz_case.instance.tasks().begin(),
                          fuzz_case.instance.tasks().begin() +
                              static_cast<std::ptrdiff_t>(num_tasks));
  out.instance = Instance(std::move(tasks), fuzz_case.instance.num_machines(),
                          fuzz_case.instance.alpha());
  std::vector<std::vector<MachineId>> sets;
  sets.reserve(num_tasks);
  for (TaskId j = 0; j < num_tasks; ++j) {
    sets.push_back(fuzz_case.placement.machines_for(j));
  }
  out.placement = Placement(std::move(sets), fuzz_case.placement.num_machines());
  for (TaskId j : fuzz_case.priority) {
    if (j < num_tasks) out.priority.push_back(j);
  }
  out.actual.actual.assign(fuzz_case.actual.actual.begin(),
                           fuzz_case.actual.actual.begin() +
                               static_cast<std::ptrdiff_t>(num_tasks));
  out.plan = fuzz_case.plan;
  out.transfer = fuzz_case.transfer;
  out.speeds = fuzz_case.speeds;
  return out;
}

// ---------------------------------------------------------------------
// Cross-checks.

namespace {

constexpr std::size_t kChecksPerCase = 15;
constexpr double kTol = 1e-9;

struct CheckContext {
  const FuzzCase& c;
  std::vector<FuzzFailure>& out;

  void fail(const std::string& check, const std::string& detail) const {
    FuzzFailure f;
    f.seed = c.seed;
    f.num_tasks = c.instance.num_tasks();
    f.num_machines = c.instance.num_machines();
    f.check = check;
    f.detail = detail;
    out.push_back(std::move(f));
  }

  void fail_violations(const std::string& check,
                       const std::vector<Violation>& violations) const {
    if (violations.empty()) return;
    // One failure per check keeps reports readable; the detail carries
    // the first (usually root-cause) violation plus the total count.
    std::string detail = to_string(violations.front());
    if (violations.size() > 1) {
      detail += " (+" + std::to_string(violations.size() - 1) + " more)";
    }
    fail(check, detail);
  }
};

/// Earliest failure time per machine (infinity = never fails).
std::vector<Time> first_failure_times(const FuzzCase& c) {
  std::vector<Time> fail_time(c.instance.num_machines(), kNever);
  for (const MachineFailure& f : c.plan.failures) {
    fail_time[f.machine] = std::min(fail_time[f.machine], f.when);
  }
  return fail_time;
}

void check_online(const CheckContext& ctx, const DispatchResult& online) {
  const FuzzCase& c = ctx.c;
  std::vector<Violation> violations =
      check_invariants(c.instance, c.placement, c.actual, online.schedule);
  const auto priority_violations = check_priority_compliance(
      c.instance, c.placement, online.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  if (online.trace.size() != c.instance.num_tasks()) {
    violations.push_back(Violation{
        "trace-accounting", "online trace has " + std::to_string(online.trace.size()) +
                                " events for " +
                                std::to_string(c.instance.num_tasks()) + " tasks"});
  }
  ctx.fail_violations("online-invariants", violations);
}

void check_online_reference_differential(const CheckContext& ctx,
                                         const DispatchResult& online) {
  // The struct-of-arrays core must be bit-exact against the retained
  // pre-rewrite dispatcher: same schedule bytes, same trace length, and
  // the same decision sequence (start times in trace order).
  const FuzzCase& c = ctx.c;
  const DispatchResult reference = reference_dispatch_online(
      c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  const DispatchResult fast =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  if (const std::string diff = diff_schedules(fast.schedule, reference.schedule);
      !diff.empty()) {
    ctx.fail("online-reference-differential", diff);
    return;
  }
  if (fast.trace.size() != reference.trace.size()) {
    ctx.fail("online-reference-differential",
             "trace lengths diverge from the reference");
    return;
  }
  // Identical-machines run as well (speeds exercise a separate division).
  const DispatchResult reference_plain = reference_dispatch_online(
      c.instance, c.placement, c.actual, c.priority);
  if (const std::string diff =
          diff_schedules(online.schedule, reference_plain.schedule);
      !diff.empty()) {
    ctx.fail("online-reference-differential", diff);
  }
}

void check_failures_empty_plan(const CheckContext& ctx,
                               const DispatchResult& online) {
  const FuzzCase& c = ctx.c;
  const FailureDispatchResult no_failures = dispatch_with_failures(
      c.instance, c.placement, c.actual, c.priority, FailurePlan{});
  if (const std::string diff = diff_schedules(online.schedule, no_failures.schedule);
      !diff.empty()) {
    ctx.fail("failures-empty-plan-parity", diff);
    return;
  }
  if (no_failures.restarts != 0 || no_failures.refetches != 0) {
    ctx.fail("failures-empty-plan-parity",
             "empty plan reported restarts/refetches");
  }
}

void check_failures_differential(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const FailureDispatchResult fast =
      dispatch_with_failures(c.instance, c.placement, c.actual, c.priority, c.plan);
  const FailureDispatchResult reference = reference_dispatch_with_failures(
      c.instance, c.placement, c.actual, c.priority, c.plan);
  if (const std::string diff = diff_schedules(fast.schedule, reference.schedule);
      !diff.empty()) {
    ctx.fail("failures-reference-differential", diff);
    return;
  }
  if (fast.restarts != reference.restarts || fast.refetches != reference.refetches ||
      fast.trace.size() != reference.trace.size()) {
    ctx.fail("failures-reference-differential",
             "restart/refetch/trace counters diverge from the reference");
  }
}

void check_failures_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const FailureDispatchResult result =
      dispatch_with_failures(c.instance, c.placement, c.actual, c.priority, c.plan);

  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  options.extra_duration.assign(n, 0.0);
  std::size_t off_placement = 0;
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      // Off-placement <=> refetched: the only way a task may leave its
      // replica set is losing every replica, which also adds the penalty.
      options.off_placement_ok[j] = true;
      options.extra_duration[j] = c.plan.refetch_penalty;
      ++off_placement;
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (off_placement != result.refetches) {
    violations.push_back(Violation{
        "refetch-accounting",
        std::to_string(off_placement) + " tasks ran off-placement but " +
            std::to_string(result.refetches) + " refetches were reported"});
  }
  if (result.trace.size() != n + result.restarts) {
    violations.push_back(Violation{
        "trace-accounting",
        "trace has " + std::to_string(result.trace.size()) + " events, expected " +
            std::to_string(n) + " finals + " + std::to_string(result.restarts) +
            " restarts"});
  }
  // A surviving run must fit entirely before its machine's failure.
  const std::vector<Time> fail_time = first_failure_times(c);
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i == kNoMachine || i >= fail_time.size()) continue;
    if (result.schedule.finish[j] > fail_time[i] + kTol) {
      violations.push_back(Violation{
          "failure-fencing", "task " + std::to_string(j) +
                                 " finishes after machine " + std::to_string(i) +
                                 " failed"});
    }
  }
  ctx.fail_violations("failures-invariants", violations);
}

TransferModel zero_cost_model() {
  TransferModel model;
  model.bandwidth = std::numeric_limits<double>::infinity();
  model.latency = 0.0;
  return model;
}

void check_transfer_zero_cost_parity(const CheckContext& ctx) {
  // On full replication every task is local, so the fetch machinery is
  // provably inert and the transfer dispatcher must collapse to the
  // plain one bit-for-bit. (On arbitrary placements the locality
  // preference legitimately changes schedules even at zero cost; the
  // zero-fetch *duration* invariant below covers that regime.)
  const FuzzCase& c = ctx.c;
  const Placement everywhere =
      Placement::everywhere(c.instance.num_tasks(), c.instance.num_machines());
  const DispatchResult online =
      dispatch_online(c.instance, everywhere, c.actual, c.priority);
  const TransferDispatchResult transfer = dispatch_with_transfers(
      c.instance, everywhere, c.actual, c.priority, zero_cost_model());
  if (const std::string diff = diff_schedules(online.schedule, transfer.schedule);
      !diff.empty()) {
    ctx.fail("transfer-zero-cost-parity", diff);
    return;
  }
  if (transfer.remote_runs != 0 || transfer.transfer_time != 0.0) {
    ctx.fail("transfer-zero-cost-parity",
             "zero-cost model on full replication reported fetches");
  }
}

void check_transfer_zero_cost_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const TransferDispatchResult result = dispatch_with_transfers(
      c.instance, c.placement, c.actual, c.priority, zero_cost_model());
  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      options.off_placement_ok[j] = true;  // remote, but the fetch is free
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (result.transfer_time != 0.0) {
    violations.push_back(Violation{
        "transfer-accounting", "zero-cost model accumulated transfer time"});
  }
  const auto priority_violations = check_transfer_priority_compliance(
      c.instance, c.placement, result.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  ctx.fail_violations("transfer-zero-cost-invariants", violations);
}

void check_transfer_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const TransferDispatchResult result = dispatch_with_transfers(
      c.instance, c.placement, c.actual, c.priority, c.transfer);
  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  options.extra_duration.assign(n, 0.0);
  std::size_t remote = 0;
  Time fetch_total = 0;
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      const Time fetch =
          c.transfer.latency + c.instance.size(j) / c.transfer.bandwidth;
      options.off_placement_ok[j] = true;
      options.extra_duration[j] = fetch;
      fetch_total += fetch;
      ++remote;
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (remote != result.remote_runs) {
    violations.push_back(Violation{
        "transfer-accounting",
        std::to_string(remote) + " off-placement runs but " +
            std::to_string(result.remote_runs) + " remote_runs reported"});
  }
  const Time scale = std::max({fetch_total, result.transfer_time, Time{1}});
  if (std::abs(fetch_total - result.transfer_time) > kTol * scale) {
    violations.push_back(Violation{
        "transfer-accounting", "transfer_time does not equal the sum of fetches"});
  }
  const auto priority_violations = check_transfer_priority_compliance(
      c.instance, c.placement, result.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  ctx.fail_violations("transfer-invariants", violations);
}

void check_speculative_disabled(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const DispatchResult online =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  SpeculationPolicy off;
  off.max_copies = 1;
  const SpeculativeResult spec =
      dispatch_speculative(c.instance, c.placement, c.actual, c.priority,
                           SpeedProfile(c.speeds), off);
  if (const std::string diff = diff_schedules(online.schedule, spec.schedule);
      !diff.empty()) {
    ctx.fail("speculative-disabled-parity", diff);
    return;
  }
  if (spec.duplicates_launched != 0 || spec.wasted_time != 0.0) {
    ctx.fail("speculative-disabled-parity",
             "disabled speculation launched duplicates");
  }
}

void check_speculative_enabled(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const DispatchResult online =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  SpeculationPolicy policy;  // default: max 2 copies
  const SpeculativeResult spec =
      dispatch_speculative(c.instance, c.placement, c.actual, c.priority,
                           SpeedProfile(c.speeds), policy);
  std::vector<Violation> violations;
  const Time scale = std::max({spec.makespan, online.schedule.makespan(), Time{1}});
  if (spec.makespan > online.schedule.makespan() + kTol * scale) {
    violations.push_back(Violation{
        "speculation-regression",
        "speculative makespan " + std::to_string(spec.makespan) +
            " exceeds non-speculative " +
            std::to_string(online.schedule.makespan())});
  }
  InvariantOptions options;
  options.speeds = c.speeds;          // durations are speed-scaled
  options.check_lower_bound = false;  // identical-machine LB unsound here
  const auto invariant_violations = check_invariants(
      c.instance, c.placement, c.actual, spec.schedule, options);
  violations.insert(violations.end(), invariant_violations.begin(),
                    invariant_violations.end());
  ctx.fail_violations("speculative-invariants", violations);
}

void check_certify_ptas_lb(const CheckContext& ctx) {
  // Certify cross-check: on sub-22-task instances branch-and-bound
  // brackets the true optimum, so the Hochbaum-Shmoys backend's certified
  // lower bound must never exceed bnb.upper (ptas.lower <= OPT <=
  // bnb.upper), and its measured schedule can never beat bnb.lower.
  const FuzzCase& c = ctx.c;
  const std::span<const Time> p = c.actual.actual;
  const MachineId m = c.instance.num_machines();
  const CertifiedCmax bnb = certified_cmax(p, m, 500'000);
  HsCertifyOptions hs;
  hs.precision_k = 3 + static_cast<unsigned>(c.seed % 3);
  const CertifiedCmax ptas = hs_certified_cmax(p, m, hs);
  const Time scale = std::max({bnb.upper, ptas.upper, Time{1}});
  if (ptas.lower > bnb.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS certified lower " + std::to_string(ptas.lower) +
                 " exceeds B&B optimum upper " + std::to_string(bnb.upper));
  }
  if (bnb.lower > ptas.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS schedule makespan " + std::to_string(ptas.upper) +
                 " undercuts the certified B&B lower bound " +
                 std::to_string(bnb.lower));
  }
  if (ptas.lower > ptas.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS bracket inverted: lower " + std::to_string(ptas.lower) +
                 " > upper " + std::to_string(ptas.upper));
  }
}

/// Mean realized duration of the case's tasks.
double mean_service(const FuzzCase& c) {
  double work = 0.0;
  for (const Time p : c.actual.actual) work += p;
  return work / static_cast<double>(c.instance.num_tasks());
}

/// Release times for one streaming regime at an offered load drawn from
/// light to saturated: "poisson", "burst" (MMPP-2), "ties" (Poisson
/// floored to a grain of two mean services, so equal-time cohorts form)
/// or "unsorted" (Poisson, shuffled).
std::vector<Time> fuzz_arrivals(const std::string& regime, const FuzzCase& c,
                                Xoshiro256& rng) {
  const double service = mean_service(c);
  ArrivalParams params;
  params.model = regime == "burst" ? ArrivalModel::kBurst : ArrivalModel::kPoisson;
  params.rate = sample_uniform(rng, 0.3, 2.0) *
                static_cast<double>(c.instance.num_machines()) / service;
  params.burst_on = 5.0 / params.rate;
  params.burst_off = 20.0 / params.rate;
  params.seed = rng.next();
  std::vector<Time> arrivals = generate_arrivals(params, c.instance.num_tasks());
  if (regime == "ties") {
    const double grain = 2.0 * service;
    for (Time& t : arrivals) t = std::floor(t / grain) * grain;
  } else if (regime == "unsorted") {
    shuffle(rng, arrivals);
  }
  return arrivals;
}

/// First difference between two dispatch traces, empty when every event
/// is bit-identical.
std::string diff_traces(const DispatchTrace& a, const DispatchTrace& b) {
  if (a.size() != b.size()) {
    return "trace lengths " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    const DispatchEvent& x = a.events[k];
    const DispatchEvent& y = b.events[k];
    if (x.when != y.when || x.task != y.task || x.machine != y.machine ||
        x.actual != y.actual) {
      return "trace event " + std::to_string(k) + " diverges (task " +
             std::to_string(x.task) + " vs " + std::to_string(y.task) + ")";
    }
  }
  return {};
}

/// The disjoint group regime of LS-Group: g | m contiguous machine
/// groups (g drawn among the divisors of m), each task on a random group.
/// Every machine serves exactly one replica set, which the case's random
/// sets (degree uniform in [1, m]) essentially never produce.
Placement fuzz_group_placement(const FuzzCase& c, Xoshiro256& rng) {
  const MachineId m = c.instance.num_machines();
  std::vector<MachineId> divisors;
  for (MachineId g = 1; g <= m; ++g) {
    if (m % g == 0) divisors.push_back(g);
  }
  const MachineId g = divisors[rng.next_below(divisors.size())];
  std::vector<MachineId> group_of(c.instance.num_tasks());
  for (MachineId& k : group_of) k = static_cast<MachineId>(rng.next_below(g));
  return Placement::in_groups(group_of, g, m);
}

void check_serve_stream_differential(const CheckContext& ctx) {
  // The streaming dispatcher against its naive event-by-event oracle on
  // real staggered arrivals -- Poisson, MMPP-2 bursts, equal-time ties,
  // an unsorted vector -- and in drain mode (every arrival at t = 0),
  // each with and without per-machine speeds and busy-until times, on
  // the case's random replica sets and on a disjoint group placement.
  // Schedule, trace and peak backlog must be bit-identical, and the
  // schedule must respect release times and priority among arrived
  // tasks. Drain mode is also held to the pre-rewrite offline dispatcher:
  // the docs/SERVING.md contract that drain mode IS offline dispatch.
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  Xoshiro256 rng(c.seed ^ 0x57AE57AE57AE57AEULL);
  std::vector<Time> busy_until(c.instance.num_machines());
  for (Time& t : busy_until) t = sample_uniform(rng, 0.0, 2.0 * mean_service(c));
  // The group runs draw from their own stream, so the random-set runs
  // replay exactly as before they were added.
  Xoshiro256 group_rng(c.seed ^ 0x6C5A6C5A6C5A6C5AULL);
  const Placement groups = fuzz_group_placement(c, group_rng);

  const char* regimes[] = {"drain", "poisson", "burst", "ties", "unsorted"};
  for (const bool grouped : {false, true}) {
    const Placement& placement = grouped ? groups : c.placement;
    Xoshiro256& arrival_rng = grouped ? group_rng : rng;
    for (const char* regime : regimes) {
      const std::string name = regime;
      const std::vector<Time> arrivals =
          name == "drain" ? std::vector<Time>(n, Time{0})
                          : fuzz_arrivals(name, c, arrival_rng);
      for (int variant = 0; variant < 4; ++variant) {
        const std::vector<double> speeds =
            (variant & 1) != 0 ? c.speeds : std::vector<double>{};
        const std::vector<Time> ready =
            (variant & 2) != 0 ? busy_until : std::vector<Time>{};
        const std::string where = (grouped ? "group placement, " : "") + name +
                                  " arrivals" + (speeds.empty() ? "" : ", speeds") +
                                  (ready.empty() ? "" : ", initial_ready") + ": ";
        const StreamingDispatchResult got = serve_stream(
            c.instance, placement, c.actual, c.priority, arrivals, ready, speeds);
        const StreamingDispatchResult want = reference_serve_stream(
            c.instance, placement, c.actual, c.priority, arrivals, ready, speeds);
        std::string diff = diff_schedules(got.schedule, want.schedule);
        if (diff.empty()) diff = diff_traces(got.trace, want.trace);
        if (diff.empty() && got.peak_backlog != want.peak_backlog) {
          diff = "peak backlog " + std::to_string(got.peak_backlog) + " vs " +
                 std::to_string(want.peak_backlog);
        }
        if (diff.empty() && name == "drain") {
          const DispatchResult offline = reference_dispatch_online(
              c.instance, placement, c.actual, c.priority, ready, speeds);
          diff = diff_schedules(got.schedule, offline.schedule);
          if (diff.empty()) diff = diff_traces(got.trace, offline.trace);
          if (diff.empty() && got.peak_backlog != n) {
            diff = "drain-mode peak backlog " + std::to_string(got.peak_backlog) +
                   " != n";
          }
          if (!diff.empty()) diff = "vs offline reference: " + diff;
        }
        if (!diff.empty()) {
          ctx.fail("serve-stream-differential", where + diff);
          return;
        }
        InvariantOptions options;
        options.speeds = speeds;
        options.arrivals = arrivals;
        std::vector<Violation> violations = check_invariants(
            c.instance, placement, c.actual, got.schedule, options);
        const auto priority_violations = check_priority_compliance(
            c.instance, placement, got.schedule, c.priority, arrivals);
        violations.insert(violations.end(), priority_violations.begin(),
                          priority_violations.end());
        if (!violations.empty()) {
          ctx.fail("serve-stream-differential",
                   where + to_string(violations.front()));
          return;
        }
      }
    }
  }
}

void check_adaptive_bound(const CheckContext& ctx) {
  // Adaptive-degree soundness: warm an estimator on the case's own
  // (estimate, actual) history, let the adaptive policy pick per-class
  // degrees from it, dispatch, and demand the realized ratio stays under
  // the theorem bound the placement's degrees promise at the *realized*
  // alpha (not the declared one -- in the drifting scenario the actuals
  // leave the declared band on purpose). The ratio is measured against
  // the certified B&B lower bound, which is at most OPT, so this check
  // is strictly harder than the theorem statement.
  const FuzzCase& c = ctx.c;
  const MachineId m = c.instance.num_machines();
  AdaptiveGroupOptions options;
  options.estimator.num_classes = 3;
  options.estimator.min_samples = 4;
  auto estimator = std::make_shared<AlphaEstimator>(options.estimator);
  const TaskClassifier classifier(c.instance, options.estimator.num_classes);
  estimator->observe_run(classifier, c.instance, c.actual);
  const TwoPhaseStrategy strategy = make_adaptive_group(estimator, options);

  const Placement placement = strategy.place(c.instance);
  const DispatchResult run =
      dispatch_online(c.instance, placement, c.actual,
                      make_priority(c.instance, strategy.rule()));
  const double alpha_real = realized_alpha(c.instance, c.actual);
  const double bound = adaptive_theorem_bound(placement, alpha_real, m);
  const CertifiedCmax opt = certified_cmax(c.actual.actual, m, 500'000);
  const Time makespan = run.schedule.makespan();
  if (makespan > bound * opt.lower * (1.0 + kTol)) {
    ctx.fail("adaptive-bound",
             "adaptive makespan " + std::to_string(makespan) + " exceeds " +
                 std::to_string(bound) + " x certified lower bound " +
                 std::to_string(opt.lower) + " at realized alpha " +
                 std::to_string(alpha_real));
  }
}

/// Bitwise equality: tells -0.0 from 0.0 and compares every Summary
/// field at once.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// First difference between two SLO reports, empty when bit-identical.
std::string diff_slo_reports(const SloReport& got, const SloReport& want) {
  if (got.windows.size() != want.windows.size()) {
    return "window count " + std::to_string(got.windows.size()) + " vs " +
           std::to_string(want.windows.size());
  }
  for (std::size_t w = 0; w < got.windows.size(); ++w) {
    const SloWindow& a = got.windows[w];
    const SloWindow& b = want.windows[w];
    const char* field = nullptr;
    if (!same_bits(a.t0, b.t0) || !same_bits(a.t1, b.t1)) {
      field = "edges";
    } else if (!same_bits(a.response, b.response)) {
      field = "response summary";
    } else if (!same_bits(a.queue_wait, b.queue_wait)) {
      field = "queue-wait summary";
    } else if (!same_bits(a.backlog_watermark, b.backlog_watermark)) {
      field = "backlog watermark";
    } else if (a.violated != b.violated) {
      field = "verdict";
    }
    if (field != nullptr) {
      return "window " + std::to_string(w) + " of " +
             std::to_string(got.windows.size()) + ": " + field + " differs";
    }
  }
  if (got.violating_windows != want.violating_windows ||
      got.max_consecutive_violations != want.max_consecutive_violations ||
      !same_bits(got.burn_rate, want.burn_rate) ||
      got.sustained_violation != want.sustained_violation) {
    return "report totals differ";
  }
  return {};
}

void check_slo_differential(const CheckContext& ctx) {
  // Windowed SLO evaluation against its naive oracle on real staggered
  // arrivals: Poisson, MMPP-2 bursts, equal-time ties and an unsorted
  // vector, each over a window width that is not exactly representable
  // -- half the time pinned to a finish time so some sample sits on a
  // rounded window edge. Every SloReport field must be bit-identical.
  // compute_serve_stats is held to a plain id-order Histogram fold.
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  Xoshiro256 rng(c.seed ^ 0x5105105105105105ULL);
  const char* regimes[] = {"poisson", "burst", "ties", "unsorted"};
  for (const char* regime : regimes) {
    const std::string name = regime;
    const std::vector<Time> arrivals = fuzz_arrivals(name, c, rng);
    const Schedule schedule =
        serve_stream(c.instance, c.placement, c.actual, c.priority, arrivals)
            .schedule;

    SloSpec spec;
    spec.sustain = 1 + static_cast<std::size_t>(rng.next_below(4));
    const double horizon = schedule.makespan();
    const double windows = sample_uniform(rng, 1.5, 40.0);
    if (rng.next_below(2) == 0) {
      const TaskId j = static_cast<TaskId>(rng.next_below(n));
      spec.window_seconds =
          schedule.finish[j] / std::max(1.0, std::floor(windows * schedule.finish[j] / horizon));
    } else {
      spec.window_seconds = horizon / windows;
    }
    const double response_scale = horizon - arrivals[0];
    if (rng.next_below(2) == 0) spec.p50 = sample_uniform(rng, 0.0, response_scale);
    if (rng.next_below(2) == 0) spec.p90 = sample_uniform(rng, 0.0, response_scale);
    spec.p99 = sample_uniform(rng, 0.0, response_scale);
    if (rng.next_below(2) == 0) {
      spec.backlog = static_cast<double>(rng.next_below(n + 1));
    }
    const std::string where = name + " arrivals, width " +
                              std::to_string(spec.window_seconds) + ", sustain " +
                              std::to_string(spec.sustain) + ": ";
    if (const std::string diff =
            diff_slo_reports(evaluate_slo(schedule, arrivals, spec),
                             reference_evaluate_slo(schedule, arrivals, spec));
        !diff.empty()) {
      ctx.fail("slo-differential", where + diff);
      return;
    }

    obs::Histogram response, queue_wait, service;
    for (TaskId j = 0; j < n; ++j) {
      response.observe(schedule.finish[j] - arrivals[j]);
      queue_wait.observe(schedule.start[j] - arrivals[j]);
      service.observe(schedule.finish[j] - schedule.start[j]);
    }
    const ServeStats stats = compute_serve_stats(schedule, arrivals);
    if (!same_bits(stats.response, response.summary()) ||
        !same_bits(stats.queue_wait, queue_wait.summary()) ||
        !same_bits(stats.service, service.summary()) ||
        stats.first_arrival != *std::min_element(arrivals.begin(), arrivals.end()) ||
        stats.last_finish != horizon) {
      ctx.fail("slo-differential", name + " arrivals: serve stats differ from a Histogram fold");
      return;
    }
  }
}

void check_transfer_reference_differential(const CheckContext& ctx) {
  // The kernel's remote tier against the naive oracle, at zero cost
  // (remote runs still happen and count) and under the random model.
  const FuzzCase& c = ctx.c;
  const std::pair<const char*, TransferModel> models[] = {
      {"zero-cost model: ", zero_cost_model()}, {"random model: ", c.transfer}};
  for (const auto& [where, model] : models) {
    const TransferDispatchResult got =
        dispatch_with_transfers(c.instance, c.placement, c.actual, c.priority, model);
    const TransferDispatchResult want = reference_dispatch_with_transfers(
        c.instance, c.placement, c.actual, c.priority, model);
    std::string diff = diff_schedules(got.schedule, want.schedule);
    if (diff.empty()) diff = diff_traces(got.trace, want.trace);
    if (diff.empty() && (got.remote_runs != want.remote_runs ||
                         got.transfer_time != want.transfer_time)) {
      diff = "remote_runs / transfer_time diverge from the reference";
    }
    if (!diff.empty()) {
      ctx.fail("transfer-reference-differential", std::string(where) + diff);
      return;
    }
  }
}

}  // namespace

FuzzScenario fuzz_scenario_from_name(const std::string& name) {
  if (name == "default") return FuzzScenario::kDefault;
  if (name == "drifting-alpha") return FuzzScenario::kDriftingAlpha;
  throw std::invalid_argument("unknown fuzz scenario '" + name +
                              "' (use default|drifting-alpha)");
}

std::size_t checks_per_case() noexcept { return kChecksPerCase; }

std::vector<FuzzFailure> run_fuzz_case(const FuzzCase& fuzz_case) {
  std::vector<FuzzFailure> failures;
  const CheckContext ctx{fuzz_case, failures};
  const DispatchResult online = dispatch_online(
      fuzz_case.instance, fuzz_case.placement, fuzz_case.actual, fuzz_case.priority);
  check_online(ctx, online);
  check_online_reference_differential(ctx, online);
  check_failures_empty_plan(ctx, online);
  check_failures_differential(ctx);
  check_failures_invariants(ctx);
  check_transfer_zero_cost_parity(ctx);
  check_transfer_zero_cost_invariants(ctx);
  check_transfer_invariants(ctx);
  check_speculative_disabled(ctx);
  check_speculative_enabled(ctx);
  check_certify_ptas_lb(ctx);
  check_serve_stream_differential(ctx);
  check_adaptive_bound(ctx);
  check_slo_differential(ctx);
  check_transfer_reference_differential(ctx);
  return failures;
}

std::size_t shrink_failing_case(const FuzzCase& fuzz_case,
                                const std::function<bool(const FuzzCase&)>& fails) {
  std::size_t lo = 1;
  std::size_t hi = fuzz_case.instance.num_tasks();
  // Invariant: the hi-task prefix fails (the full case does by
  // assumption). Plain binary search; without strict monotonicity it
  // still lands on *a* failing prefix, which is all a repro needs.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(restrict_tasks(fuzz_case, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

std::string to_jsonl_line(const FuzzFailure& failure) {
  JsonObject obj;
  obj["seed"] = JsonValue(static_cast<unsigned long long>(failure.seed));
  obj["n"] = JsonValue(static_cast<unsigned long long>(failure.num_tasks));
  obj["m"] = JsonValue(static_cast<unsigned long long>(failure.num_machines));
  obj["check"] = JsonValue(failure.check);
  obj["detail"] = JsonValue(failure.detail);
  obj["shrunk_n"] = JsonValue(static_cast<unsigned long long>(failure.shrunk_tasks));
  return JsonValue(std::move(obj)).dump();
}

void save_jsonl_report(const std::string& path,
                       const std::vector<FuzzFailure>& failures) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_jsonl_report: cannot open '" + path + "'");
  }
  for (const FuzzFailure& failure : failures) {
    out << to_jsonl_line(failure) << '\n';
  }
}

FuzzSummary run_fuzz(const FuzzOptions& options) {
  obs::ScopedSpan span(obs::tracer(), "run_fuzz", "check");
  FuzzSummary summary;
  summary.cases = options.seeds;
  summary.checks = options.seeds * kChecksPerCase;
  if (options.seeds == 0) return summary;

  // Index-addressed failure slots keep the report deterministic and
  // independent of the worker count.
  std::vector<std::vector<FuzzFailure>> slots(options.seeds);
  const auto fuzz_one = [&](std::size_t index) {
    const FuzzCase fuzz_case =
        make_fuzz_case(options.start_seed + index, options.gen);
    std::vector<FuzzFailure> failures = run_fuzz_case(fuzz_case);
    if (!failures.empty() && options.shrink) {
      for (FuzzFailure& failure : failures) {
        const std::string check = failure.check;
        failure.shrunk_tasks =
            shrink_failing_case(fuzz_case, [&](const FuzzCase& candidate) {
              const auto candidate_failures = run_fuzz_case(candidate);
              return std::any_of(candidate_failures.begin(),
                                 candidate_failures.end(),
                                 [&](const FuzzFailure& f) {
                                   return f.check == check;
                                 });
            });
      }
    }
    slots[index] = std::move(failures);
  };

  if (options.jobs == 1 || options.seeds == 1) {
    for (std::size_t i = 0; i < options.seeds; ++i) fuzz_one(i);
  } else {
    ThreadPool pool(options.jobs);
    parallel_for_each_index(pool, options.seeds, fuzz_one);
  }

  for (std::vector<FuzzFailure>& slot : slots) {
    summary.failures.insert(summary.failures.end(),
                            std::make_move_iterator(slot.begin()),
                            std::make_move_iterator(slot.end()));
  }
  if (obs::MetricsRegistry* mx = obs::metrics()) {
    mx->counter("check.fuzz.cases").add(summary.cases);
    mx->counter("check.fuzz.checks").add(summary.checks);
    mx->counter("check.fuzz.failures").add(summary.failures.size());
  }
  if (options.log != nullptr) {
    *options.log << "fuzz: " << summary.cases << " seeds, " << summary.checks
                 << " cross-checks, " << summary.failures.size() << " failure(s)\n";
    for (const FuzzFailure& failure : summary.failures) {
      *options.log << "  seed " << failure.seed << " [" << failure.check
                   << "] n=" << failure.num_tasks << " m=" << failure.num_machines
                   << " shrunk_n=" << failure.shrunk_tasks << ": " << failure.detail
                   << "\n";
    }
  }
  return summary;
}

}  // namespace rdp::check
