#include "obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rdp::obs {

WindowedHistogram::WindowedHistogram(double interval_seconds,
                                     std::size_t num_intervals)
    : interval_(interval_seconds), ring_(num_intervals) {
  if (!(interval_seconds > 0.0) || !std::isfinite(interval_seconds)) {
    throw std::invalid_argument(
        "WindowedHistogram: interval_seconds must be positive and finite");
  }
  if (num_intervals == 0) {
    throw std::invalid_argument(
        "WindowedHistogram: num_intervals must be >= 1");
  }
}

std::int64_t WindowedHistogram::interval_index(double t) const noexcept {
  if (!(t > 0.0)) return 0;
  // floor(t / interval) is within one step of the answer; walk to the
  // first interval whose computed end edge exceeds t. Indices this large
  // are beyond any window count a caller could allocate.
  constexpr double kMaxIndex = 0x1p62;
  const double guess = std::floor(t / interval_);
  if (!(guess < kMaxIndex)) return static_cast<std::int64_t>(kMaxIndex);
  auto i = static_cast<std::int64_t>(guess);
  while (i > 0 && t < interval_end(i - 1)) --i;
  while (t >= interval_end(i)) ++i;
  return i;
}

void WindowedHistogram::advance_to(std::int64_t idx) noexcept {
  if (idx <= newest_) return;
  // Every interval in (newest_, idx] gets a fresh slot; slots that are
  // being re-entered after a full lap (or more) must forget their old
  // regime. Cap the walk at ring-size resets -- a jump further than one
  // lap clears the same slots anyway.
  const auto n = static_cast<std::int64_t>(ring_.size());
  const std::int64_t first = std::max(newest_ + 1, idx - n + 1);
  for (std::int64_t i = first; i <= idx; ++i) {
    ring_[static_cast<std::size_t>(i % n)].reset();
  }
  newest_ = idx;
}

void WindowedHistogram::observe_at(std::int64_t interval, double value) noexcept {
  advance_to(interval);
  const auto n = static_cast<std::int64_t>(ring_.size());
  if (interval <= newest_ - n) {
    ++late_dropped_;
    return;
  }
  ring_[static_cast<std::size_t>(interval % n)].observe(value);
}

WindowedHistogram::Summary WindowedHistogram::interval_summary(
    double t) const noexcept {
  const std::int64_t idx = interval_index(t);
  const auto n = static_cast<std::int64_t>(ring_.size());
  if (newest_ < 0 || idx > newest_ || idx <= newest_ - n) return {};
  return ring_[static_cast<std::size_t>(idx % n)].summary();
}

WindowedHistogram::Summary WindowedHistogram::window_summary_at(
    std::int64_t interval) noexcept {
  advance_to(interval);
  scratch_.reset();
  const auto n = static_cast<std::int64_t>(ring_.size());
  const std::int64_t first = std::max<std::int64_t>(0, interval - n + 1);
  for (std::int64_t i = first; i <= interval; ++i) {
    scratch_.merge(ring_[static_cast<std::size_t>(i % n)]);
  }
  return scratch_.summary();
}

}  // namespace rdp::obs
