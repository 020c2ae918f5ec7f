// Metric collection: summaries, percentiles, time series, and
// time-windowed min/max filters (as used by BBR and channel estimators).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace hvc::sim {

/// Accumulates scalar samples; supports mean/min/max/stddev and, because
/// samples are retained, exact percentiles.
class Summary {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
    sum_ += v;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Exact percentile by linear interpolation between order statistics.
  /// p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  void clear() {
    samples_.clear();
    sum_ = 0.0;
    sorted_ = false;
  }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  double sum_ = 0.0;
};

/// A (time, value) series, e.g. per-ACK RTT samples for Figure 1b.
class TimeSeries {
 public:
  struct Point {
    Time t;
    double value;
  };

  void add(Time t, double value) { points_.push_back({t, value}); }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }

 private:
  std::vector<Point> points_;
};

/// Windowed max filter: reports the maximum of the samples whose key lies
/// within `window` of the latest pushed key. The key is any non-decreasing
/// int64 — sim time, or a round count as BBR and HVC-CC use for
/// bottleneck bandwidth (window = 10 rounds). A sample expires only when a
/// later push moves the window past it (key < latest - window), so reads
/// between pushes still see it. O(1) amortized via a monotonic deque.
class WindowedMax {
 public:
  explicit WindowedMax(std::int64_t window) : window_(window) {}

  void update(std::int64_t key, double v);
  [[nodiscard]] double get() const {
    return q_.empty() ? 0.0 : q_.front().value;
  }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  void reset() { q_.clear(); }

 private:
  struct Entry {
    std::int64_t key;
    double value;
  };
  std::int64_t window_;
  std::deque<Entry> q_;
};

/// Windowed min filter; BBR's min-RTT estimator.
class WindowedMin {
 public:
  explicit WindowedMin(Duration window) : window_(window) {}

  void update(Time now, double v);
  [[nodiscard]] double get() const {
    return q_.empty() ? std::numeric_limits<double>::infinity()
                      : q_.front().value;
  }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  void reset() { q_.clear(); }

 private:
  struct Entry {
    Time t;
    double value;
  };
  Duration window_;
  std::deque<Entry> q_;
};

/// Exponentially weighted moving average with explicit "no sample yet"
/// state (first sample initializes rather than decays from zero).
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void update(double v) {
    value_ = have_ ? alpha_ * v + (1.0 - alpha_) * value_ : v;
    have_ = true;
  }
  [[nodiscard]] double get() const { return value_; }
  [[nodiscard]] bool initialized() const { return have_; }
  void reset() { have_ = false; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool have_ = false;
};

}  // namespace hvc::sim
