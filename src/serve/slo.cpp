#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/schedule.hpp"
#include "obs/hooks.hpp"
#include "obs/window.hpp"

namespace rdp {

namespace {

double parse_slo_number(const std::string& key, const std::string& text) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("--slo: bad value for '" + key + "': " + text);
  }
  if (consumed != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument("--slo: bad value for '" + key + "': " + text);
  }
  return value;
}

}  // namespace

bool SloSpec::any() const noexcept {
  return p50 != kNoSloTarget || p90 != kNoSloTarget || p99 != kNoSloTarget ||
         backlog != kNoSloTarget;
}

SloSpec parse_slo_spec(const std::string& text) {
  SloSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (comma == text.size()) break;
      throw std::invalid_argument("--slo: empty clause in '" + text + "'");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--slo: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "p50") {
      spec.p50 = parse_slo_number(key, value);
    } else if (key == "p90") {
      spec.p90 = parse_slo_number(key, value);
    } else if (key == "p99") {
      spec.p99 = parse_slo_number(key, value);
    } else if (key == "backlog") {
      spec.backlog = parse_slo_number(key, value);
    } else if (key == "window") {
      spec.window_seconds = parse_slo_number(key, value);
      if (spec.window_seconds <= 0.0) {
        throw std::invalid_argument("--slo: window must be positive");
      }
    } else if (key == "sustain") {
      const double v = parse_slo_number(key, value);
      if (v < 1.0 || v != std::floor(v)) {
        throw std::invalid_argument("--slo: sustain must be a positive integer");
      }
      spec.sustain = static_cast<std::size_t>(v);
    } else {
      throw std::invalid_argument("--slo: unknown key '" + key + "'");
    }
    if (comma == text.size()) break;
  }
  if (!spec.any()) {
    throw std::invalid_argument(
        "--slo: no target set (use p50=/p90=/p99=/backlog=)");
  }
  return spec;
}

namespace {

/// Tasks grouped by the window holding one of their times (finish or
/// start) under the grid's edge rule: a counting pass over window
/// indices, then a sort of each window's contiguous slice by (time, id)
/// -- the global (time, id) order without one global sort or a
/// comparator that reads through the schedule. Regrouping reuses every
/// buffer.
class WindowSlices {
 public:
  struct Task {
    double key;
    TaskId id;
  };

  /// Tasks past the last window are left out: the sweep never reaches
  /// them.
  void group(std::span<const Time> times, const obs::WindowedHistogram& grid,
             std::size_t num_windows) {
    window_.resize(times.size());
    offsets_.assign(num_windows + 2, 0);
    for (std::size_t j = 0; j < times.size(); ++j) {
      const auto w = static_cast<std::uint32_t>(std::min(
          static_cast<std::size_t>(grid.interval_index(times[j])), num_windows));
      window_[j] = w;
      ++offsets_[w + 1];
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    tasks_.resize(offsets_[num_windows]);
    cursor_.assign(offsets_.begin(), offsets_.end() - 2);
    for (TaskId j = 0; j < times.size(); ++j) {
      const std::uint32_t w = window_[j];
      if (w < num_windows) tasks_[cursor_[w]++] = Task{times[j], j};
    }
    for (std::size_t w = 0; w < num_windows; ++w) {
      const std::span<Task> slice = window(w);
      std::sort(slice.begin(), slice.end(), [](const Task& x, const Task& y) {
        return x.key != y.key ? x.key < y.key : x.id < y.id;
      });
    }
  }

  /// Window w's tasks in (time, id) order.
  [[nodiscard]] std::span<Task> window(std::size_t w) noexcept {
    return std::span<Task>(tasks_).subspan(offsets_[w], offsets_[w + 1] - offsets_[w]);
  }

 private:
  std::vector<Task> tasks_;
  std::vector<std::size_t> offsets_;  ///< window w: [offsets_[w], offsets_[w + 1])
  std::vector<std::size_t> cursor_;
  std::vector<std::uint32_t> window_;  ///< per-task window index
};

}  // namespace

SloReport evaluate_slo(const Schedule& schedule, std::span<const Time> arrivals,
                       const SloSpec& spec) {
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("evaluate_slo: arrivals/schedule size mismatch");
  }
  SloReport report;
  if (n == 0) return report;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) {
      throw std::invalid_argument("evaluate_slo: schedule has unassigned tasks");
    }
    if (!std::isfinite(arrivals[j]) || !std::isfinite(schedule.start[j]) ||
        !std::isfinite(schedule.finish[j])) {
      throw std::invalid_argument("evaluate_slo: non-finite task time");
    }
  }

  const std::size_t sustain = std::max<std::size_t>(spec.sustain, 1);
  // The rolling response window is sustain-1 intervals deep (min 1): a
  // single bad interval then pollutes at most sustain-1 consecutive
  // window quantiles, which stays below the sustained-violation streak,
  // so paging requires slow responses in at least two distinct
  // intervals. A depth of `sustain` would make any one-interval tail
  // breach trip the verdict by construction.
  const std::size_t depth = std::max<std::size_t>(sustain - 1, 1);
  obs::WindowedHistogram response_window(spec.window_seconds, depth);
  // One edge rule (WindowedHistogram::interval_index) sizes the run,
  // files every finish, start and arrival, and is the [t0, t1) each
  // window reports: the last window is the one holding the makespan.
  const auto num_windows =
      static_cast<std::size_t>(response_window.interval_index(schedule.makespan())) + 1;
  if (num_windows >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("evaluate_slo: too many windows for the horizon");
  }
  report.windows.resize(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    report.windows[w].t0 = response_window.interval_start(static_cast<std::int64_t>(w));
    report.windows[w].t1 = response_window.interval_end(static_cast<std::int64_t>(w));
  }

  // Response series: each window's finishes in (finish, id) order feed
  // its interval of the ring, and the window reports the ring rollup.
  WindowSlices slices;
  slices.group(schedule.finish, response_window, num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    const auto interval = static_cast<std::int64_t>(w);
    for (const auto& [finish, j] : slices.window(w)) {
      response_window.observe_at(interval, finish - arrivals[j]);
    }
    report.windows[w].response = response_window.window_summary_at(interval);
  }

  // Queue-wait series and backlog: a merged +1/-1 sweep over (arrival,
  // start) events tracks the admitted-but-unstarted backlog, each
  // window's starts in (start, id) order. Only arrival *times* enter the
  // sweep, so ascending input (what generate_arrivals returns) needs no
  // copy.
  slices.group(schedule.start, response_window, num_windows);
  std::vector<Time> arrivals_copy;
  std::span<const Time> arrive_sorted = arrivals;
  if (!std::is_sorted(arrivals.begin(), arrivals.end())) {
    arrivals_copy.assign(arrivals.begin(), arrivals.end());
    std::sort(arrivals_copy.begin(), arrivals_copy.end());
    arrive_sorted = arrivals_copy;
  }
  obs::LocalHistogram interval_wait;
  std::size_t arr_cur = 0;
  std::int64_t backlog_now = 0;
  std::size_t consecutive = 0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    SloWindow& win = report.windows[w];
    // Equal timestamps process the arrival first so an arrive-and-start-
    // instantly task still registers as having been queued.
    interval_wait.reset();
    double watermark = static_cast<double>(backlog_now);
    const std::span<const WindowSlices::Task> starts = slices.window(w);
    std::size_t start_cur = 0;
    while (true) {
      const bool arrival_due = arr_cur < n && arrive_sorted[arr_cur] < win.t1;
      const bool start_due = start_cur < starts.size();
      if (!arrival_due && !start_due) break;
      if (arrival_due &&
          (!start_due || arrive_sorted[arr_cur] <= starts[start_cur].key)) {
        ++arr_cur;
        ++backlog_now;
        watermark = std::max(watermark, static_cast<double>(backlog_now));
      } else {
        const auto [start, j] = starts[start_cur++];
        interval_wait.observe(start - arrivals[j]);
        --backlog_now;
      }
    }
    win.queue_wait = interval_wait.summary();
    win.backlog_watermark = watermark;
    const bool quantile_bad =
        win.response.count > 0 &&
        ((spec.p50 != kNoSloTarget && win.response.p50 > spec.p50) ||
         (spec.p90 != kNoSloTarget && win.response.p90 > spec.p90) ||
         (spec.p99 != kNoSloTarget && win.response.p99 > spec.p99));
    const bool backlog_bad =
        spec.backlog != kNoSloTarget && win.backlog_watermark > spec.backlog;
    win.violated = quantile_bad || backlog_bad;
    if (win.violated) {
      ++report.violating_windows;
      ++consecutive;
      report.max_consecutive_violations =
          std::max(report.max_consecutive_violations, consecutive);
    } else {
      consecutive = 0;
    }
  }
  report.burn_rate = report.windows.empty()
                         ? 0.0
                         : static_cast<double>(report.violating_windows) /
                               static_cast<double>(report.windows.size());
  report.sustained_violation = report.max_consecutive_violations >= sustain;

  // Surface the final window for the live sampler: `serve.window.*`
  // gauges show up in the JSONL time series alongside adapt.alpha_hat.
  if (obs::MetricsRegistry* mx = obs::metrics(); mx && !report.windows.empty()) {
    const SloWindow& last = report.windows.back();
    mx->gauge("serve.window.response_p50").set(last.response.p50);
    mx->gauge("serve.window.response_p90").set(last.response.p90);
    mx->gauge("serve.window.response_p99").set(last.response.p99);
    mx->gauge("serve.window.queue_wait_p99").set(last.queue_wait.p99);
    mx->gauge("serve.window.backlog_watermark").set(last.backlog_watermark);
    mx->gauge("serve.window.burn_rate").set(report.burn_rate);
  }
  return report;
}

}  // namespace rdp
