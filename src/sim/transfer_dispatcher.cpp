#include "sim/transfer_dispatcher.hpp"

#include <cmath>
#include <stdexcept>

#include "core/instance.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/dispatch_kernel.hpp"
#include "sim/workspace.hpp"

namespace rdp {

TransferDispatchResult dispatch_with_transfers(const Instance& instance,
                                               const Placement& placement,
                                               const Realization& actual,
                                               const std::vector<TaskId>& priority,
                                               const TransferModel& model) {
  if (!(model.bandwidth > 0.0)) {
    throw std::invalid_argument("dispatch_with_transfers: bandwidth must be > 0");
  }
  if (!(model.latency >= 0.0) || !std::isfinite(model.latency)) {
    throw std::invalid_argument(
        "dispatch_with_transfers: latency must be finite and non-negative");
  }
  const std::size_t n = instance.num_tasks();
  std::vector<Time> fetch(n);
  for (TaskId j = 0; j < n; ++j) {
    fetch[j] = model.latency + instance.size(j) / model.bandwidth;
  }

  obs::ScopedSpan span(obs::tracer(), "dispatch_with_transfers", "sim");
  TransferDispatchResult result;
  (void)run_dispatch_kernel("dispatch_with_transfers", instance, placement, actual,
                            priority, {}, {}, {}, fetch, thread_workspace(),
                            result.schedule, result.trace);

  // The kernel runs a task remotely only when its machine has no local
  // work left, so a run paid a fetch exactly when it is off-placement.
  // Accounting in trace order sums the fetches in dispatch order.
  obs::MetricsRegistry* const mx = obs::metrics();
  for (const DispatchEvent& e : result.trace.events) {
    if (placement.allows(e.task, e.machine)) continue;
    result.transfer_time += fetch[e.task];
    ++result.remote_runs;
    if (mx) {
      mx->counter("sim.transfer.remote_runs").add(1);
      mx->histogram("sim.transfer.fetch_time").observe(fetch[e.task]);
    }
  }
  result.makespan = result.schedule.makespan();
  if (mx) {
    mx->counter("sim.transfer.calls").add(1);
    mx->counter("sim.transfer.tasks").add(n);
  }
  // Transfers are offline: every task is eligible at t = 0.
  record_dispatch_timeline(result.schedule, {});
  return result;
}

}  // namespace rdp
