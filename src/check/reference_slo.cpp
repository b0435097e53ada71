#include "check/reference_slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/schedule.hpp"
#include "obs/metrics.hpp"

namespace rdp::check {

SloReport reference_evaluate_slo(const Schedule& schedule,
                                 std::span<const Time> arrivals,
                                 const SloSpec& spec) {
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("reference_evaluate_slo: size mismatch");
  }
  SloReport report;
  if (n == 0) return report;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) {
      throw std::invalid_argument("reference_evaluate_slo: unassigned task");
    }
    if (!std::isfinite(arrivals[j]) || !std::isfinite(schedule.start[j]) ||
        !std::isfinite(schedule.finish[j])) {
      throw std::invalid_argument("reference_evaluate_slo: non-finite time");
    }
  }
  const double width = spec.window_seconds;
  if (!(width > 0.0) || !std::isfinite(width)) {
    throw std::invalid_argument("reference_evaluate_slo: bad window width");
  }
  const std::size_t sustain = std::max<std::size_t>(spec.sustain, 1);
  const std::size_t depth = std::max<std::size_t>(sustain - 1, 1);

  const auto t0_of = [&](std::size_t w) { return static_cast<double>(w) * width; };
  const auto t1_of = [&](std::size_t w) { return t0_of(w) + width; };
  // In window w: below its t1 and not below any earlier window's t1.
  const auto in_window = [&](double t, std::size_t w) {
    return t < t1_of(w) && (w == 0 || t >= t1_of(w - 1));
  };
  const double horizon = schedule.makespan();
  std::size_t num_windows = 1;
  while (!in_window(horizon, num_windows - 1)) ++num_windows;

  const auto sorted_by = [&](const std::vector<Time>& key) {
    std::vector<TaskId> order(n);
    std::iota(order.begin(), order.end(), TaskId{0});
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return key[a] != key[b] ? key[a] < key[b] : a < b;
    });
    return order;
  };
  const std::vector<TaskId> by_finish = sorted_by(schedule.finish);
  const std::vector<TaskId> by_start = sorted_by(schedule.start);
  std::vector<Time> arrive_sorted(arrivals.begin(), arrivals.end());
  std::sort(arrive_sorted.begin(), arrive_sorted.end());

  // Queue length just after the k-th arrival (1-based, time order):
  // every start strictly earlier has already dequeued.
  const auto backlog_after_arrival = [&](std::size_t k) {
    const double t = arrive_sorted[k - 1];
    std::int64_t started = 0;
    for (TaskId j = 0; j < n; ++j) started += schedule.start[j] < t ? 1 : 0;
    return static_cast<std::int64_t>(k) - started;
  };

  std::vector<obs::Histogram> intervals(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    for (const TaskId j : by_finish) {
      if (in_window(schedule.finish[j], w)) {
        intervals[w].observe(schedule.finish[j] - arrivals[j]);
      }
    }
  }

  std::size_t consecutive = 0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    SloWindow win;
    win.t0 = t0_of(w);
    win.t1 = t1_of(w);
    obs::Histogram rollup;
    for (std::size_t i = w + 1 > depth ? w + 1 - depth : 0; i <= w; ++i) {
      rollup.merge(intervals[i]);
    }
    win.response = rollup.summary();
    obs::Histogram wait;
    for (const TaskId j : by_start) {
      if (in_window(schedule.start[j], w)) {
        wait.observe(schedule.start[j] - arrivals[j]);
      }
    }
    win.queue_wait = wait.summary();
    // The queue as the window opens, then after each arrival inside it.
    std::int64_t arrived_before = 0, started_before = 0;
    if (w > 0) {
      for (TaskId j = 0; j < n; ++j) {
        arrived_before += arrive_sorted[j] < t1_of(w - 1) ? 1 : 0;
        started_before += schedule.start[j] < t1_of(w - 1) ? 1 : 0;
      }
    }
    std::int64_t watermark = arrived_before - started_before;
    for (std::size_t k = 1; k <= n; ++k) {
      if (in_window(arrive_sorted[k - 1], w)) {
        watermark = std::max(watermark, backlog_after_arrival(k));
      }
    }
    win.backlog_watermark = static_cast<double>(watermark);

    const auto over = [&](double target, double value) {
      return target != kNoSloTarget && value > target;
    };
    win.violated = (win.response.count > 0 &&
                    (over(spec.p50, win.response.p50) ||
                     over(spec.p90, win.response.p90) ||
                     over(spec.p99, win.response.p99))) ||
                   over(spec.backlog, win.backlog_watermark);
    consecutive = win.violated ? consecutive + 1 : 0;
    report.violating_windows += win.violated ? 1 : 0;
    report.max_consecutive_violations =
        std::max(report.max_consecutive_violations, consecutive);
    report.windows.push_back(win);
  }
  report.burn_rate = static_cast<double>(report.violating_windows) /
                     static_cast<double>(report.windows.size());
  report.sustained_violation = report.max_consecutive_violations >= sustain;
  return report;
}

}  // namespace rdp::check
