#include "serve/streaming_dispatcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/instance.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/dispatch_kernel.hpp"
#include "sim/workspace.hpp"

namespace rdp {

void serve_stream(const Instance& instance, const Placement& placement,
                  const Realization& actual, const std::vector<TaskId>& priority,
                  std::span<const Time> arrivals,
                  std::span<const Time> initial_ready,
                  std::span<const double> speeds, SimWorkspace& ws,
                  StreamingDispatchResult& out) {
  // The kernel reads empty arrivals as "every task released at t = 0"; a
  // stream must name a release time for every task.
  if (arrivals.size() != instance.num_tasks()) {
    throw std::invalid_argument("serve_stream: arrivals must cover every task");
  }
  obs::ScopedSpan span(obs::tracer(), "serve_stream", "serve");
  out.peak_backlog =
      run_dispatch_kernel("serve_stream", instance, placement, actual, priority,
                          arrivals, initial_ready, speeds, {}, ws, out.schedule,
                          out.trace);

  if (obs::MetricsRegistry* const mx = obs::metrics()) {
    mx->counter("serve.stream.calls").add(1);
    mx->counter("serve.stream.tasks").add(instance.num_tasks());
    mx->gauge("serve.stream.peak_backlog")
        .set_max(static_cast<double>(out.peak_backlog));
  }
  // Flight recorder: 3 events per task (all arrivals, then all starts,
  // then all finishes, each in task order), filled from data already in
  // hand -- the dispatch loop never touches the recorder, which is what
  // holds ext_obs_overhead under its 5% budget.
  record_dispatch_timeline(out.schedule, arrivals);
}

StreamingDispatchResult serve_stream(const Instance& instance,
                                     const Placement& placement,
                                     const Realization& actual,
                                     const std::vector<TaskId>& priority,
                                     std::span<const Time> arrivals,
                                     std::vector<Time> initial_ready,
                                     std::vector<double> speeds) {
  StreamingDispatchResult result;
  serve_stream(instance, placement, actual, priority, arrivals,
               std::span<const Time>(initial_ready),
               std::span<const double>(speeds), thread_workspace(), result);
  return result;
}

ServeStats compute_serve_stats(const Schedule& schedule,
                               std::span<const Time> arrivals) {
  obs::ScopedSpan span(obs::tracer(), "serve.stats", "serve");
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("compute_serve_stats: arrivals size mismatch");
  }
  obs::LocalHistogram response;
  obs::LocalHistogram queue_wait;
  obs::LocalHistogram service;
  ServeStats stats;
  bool any = false;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) continue;
    response.observe(schedule.finish[j] - arrivals[j]);
    queue_wait.observe(schedule.start[j] - arrivals[j]);
    service.observe(schedule.finish[j] - schedule.start[j]);
    if (!any) {
      stats.first_arrival = arrivals[j];
      stats.last_finish = schedule.finish[j];
      any = true;
    } else {
      stats.first_arrival = std::min(stats.first_arrival, arrivals[j]);
      stats.last_finish = std::max(stats.last_finish, schedule.finish[j]);
    }
  }
  stats.response = response.summary();
  stats.queue_wait = queue_wait.summary();
  stats.service = service.summary();
  return stats;
}

}  // namespace rdp
