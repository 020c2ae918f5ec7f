#include "sim/stats.hpp"

#include <cmath>

namespace hvc::sim {

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::stddev() const {
  // Two-pass form. The textbook sum-of-squares shortcut cancels
  // catastrophically for large-mean/low-variance samples (microsecond
  // timestamps: mean^2 ~ 1e18 swamps a variance of 1), so it is avoided.
  const auto n = static_cast<double>(samples_.size());
  if (n < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (const double v : samples_) {
    const double d = v - m;
    acc += d * d;
  }
  const double var = acc / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

double Summary::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Summary::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Summary::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void WindowedMax::update(std::int64_t key, double v) {
  while (!q_.empty() && q_.back().value <= v) q_.pop_back();
  q_.push_back({key, v});
  while (!q_.empty() && q_.front().key < key - window_) q_.pop_front();
}

void WindowedMin::update(Time now, double v) {
  while (!q_.empty() && q_.back().value >= v) q_.pop_back();
  q_.push_back({now, v});
  while (!q_.empty() && q_.front().t < now - window_) q_.pop_front();
}

}  // namespace hvc::sim
