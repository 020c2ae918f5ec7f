#include "stats/streaming.hpp"

#include <algorithm>
#include <cmath>

namespace hvc::stats {

namespace {

/// Largest quantized magnitude: 2^32 in 2^-16 steps = 2^48.
constexpr std::int64_t kMaxQ = std::int64_t{1} << 48;

}  // namespace

std::int64_t quantize(double v) {
  const double scaled = v * kQuantScale;
  if (scaled >= static_cast<double>(kMaxQ)) return kMaxQ;
  if (scaled <= static_cast<double>(-kMaxQ)) return -kMaxQ;
  return std::llround(scaled);
}

void StreamingMoments::add(double v) {
  if (!std::isfinite(v)) {
    ++dropped_;
    return;
  }
  const std::int64_t q = quantize(v);
  if (n_ == 0) {
    min_q_ = max_q_ = q;
  } else {
    min_q_ = std::min(min_q_, q);
    max_q_ = std::max(max_q_, q);
  }
  ++n_;
  sum_.add(q);
  sumsq_.add_product(q, q);
}

void StreamingMoments::merge(const StreamingMoments& o) {
  if (o.n_ != 0) {
    if (n_ == 0) {
      min_q_ = o.min_q_;
      max_q_ = o.max_q_;
    } else {
      min_q_ = std::min(min_q_, o.min_q_);
      max_q_ = std::max(max_q_, o.max_q_);
    }
  }
  n_ += o.n_;
  dropped_ += o.dropped_;
  sum_.merge(o.sum_);
  sumsq_.merge(o.sumsq_);
}

double StreamingMoments::mean() const {
  if (n_ == 0) return 0.0;
  return sum_.to_double() / (kQuantScale * static_cast<double>(n_));
}

double StreamingMoments::variance() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double mean_q = sum_.to_double() / n;
  const double var_q = sumsq_.to_double() / n - mean_q * mean_q;
  return std::max(0.0, var_q) / (kQuantScale * kQuantScale);
}

double StreamingMoments::stddev() const { return std::sqrt(variance()); }

int LogHistogram::bin_index(double v) {
  if (!(v > 0)) return 0;  // zeros and negatives share the underflow bin
  int e = 0;
  const double frac = std::frexp(v, &e);  // v = frac * 2^e, frac in [0.5,1)
  if (e <= kExpLo) return 0;
  if (e > kExpHi) return kBins - 1;
  int sub = static_cast<int>((frac - 0.5) * (2 * kSubBins));
  sub = std::clamp(sub, 0, kSubBins - 1);
  return 1 + (e - 1 - kExpLo) * kSubBins + sub;
}

int LogHistogram::sample_bin(double v) {
  return std::isfinite(v) ? bin_index(v) : 0;
}

double LogHistogram::bin_mid(int idx) {
  if (idx <= 0) return 0.0;
  if (idx >= kBins - 1) return std::ldexp(1.0, kExpHi);
  const int off = idx - 1;
  const int e = kExpLo + off / kSubBins + 1;
  const int sub = off % kSubBins;
  const double frac =
      0.5 + (static_cast<double>(sub) + 0.5) / (2.0 * kSubBins);
  return std::ldexp(frac, e);
}

void LogHistogram::add_n(double v, std::uint64_t n) {
  if (n == 0) return;
  counts_[static_cast<std::size_t>(sample_bin(v))] += n;
  n_ += n;
}

void LogHistogram::merge(const LogHistogram& o) {
  for (int i = 0; i < kBins; ++i) {
    counts_[static_cast<std::size_t>(i)] +=
        o.counts_[static_cast<std::size_t>(i)];
  }
  n_ += o.n_;
}

std::uint64_t LogHistogram::rank(double p, std::uint64_t n) {
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the sample we want, 1-based: ceil(p/100 * n), at least 1.
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto r = static_cast<std::uint64_t>(std::ceil(exact));
  return std::clamp<std::uint64_t>(r, 1, n);
}

double LogHistogram::percentile(double p) const {
  if (n_ == 0) return 0.0;
  const std::uint64_t want = rank(p, n_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBins; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= want) return bin_mid(i);
  }
  return bin_mid(kBins - 1);
}

void QuantileCursor::add(LogHistogram& hist, double v) {
  const int bin = LogHistogram::sample_bin(v);
  auto& counts = hist.counts_;
  counts[static_cast<std::size_t>(bin)] += 1;
  ++hist.n_;
  if (bin < bin_) ++below_;
  // The answer is the first bin whose cumulative count reaches the rank:
  // below_ < want <= below_ + counts[bin_]. The rank never falls, and a
  // sample below the answer can pull the answer down, so walk either way.
  const std::uint64_t want = LogHistogram::rank(p_, hist.n_);
  while (below_ >= want) {
    --bin_;
    below_ -= counts[static_cast<std::size_t>(bin_)];
  }
  while (below_ + counts[static_cast<std::size_t>(bin_)] < want) {
    below_ += counts[static_cast<std::size_t>(bin_)];
    ++bin_;
  }
}

}  // namespace hvc::stats
