// O(bins)-memory streaming statistics with merge-order-independent state.
//
// The fleet-scale scenarios (src/pop) produce 10⁴–10⁶ users' worth of
// samples per run; retaining them (sim::Summary) is O(samples) and the
// sharded sweep needs per-shard partial results that merge into the same
// bytes in any order. Both problems are solved the same way: every
// accumulator here is a set of *exact integers* — counts, fixed-point
// sums, histogram bins — so "merge" is integer addition, which is
// associative and commutative, and every exported double is a pure
// function of those integers. Two shards merged A+B or B+A, or a single
// unsharded pass, all reach equal (operator==) states.
//
// Floating-point alternatives were rejected deliberately: Welford
// mean/variance merges and t-digest centroid merges both depend on merge
// order in the low bits, which breaks the repo's byte-identity contract
// (DESIGN.md §4). The quantile sketch is therefore an HDR-style
// log-spaced fixed-bin histogram — the same O(bins) memory and bounded
// relative error as a t-digest, with exact integer bins.
//
// Accuracy bounds (documented, tested in tests/stats_test.cpp):
//   * StreamingMoments quantizes samples to 2^-16 (≈1.5e-5) absolute
//     steps, clamped to |v| <= 2^32; mean error <= 2^-17 + clamping,
//     variance error <= ~2^-15 * (|mean| + stddev).
//   * LogHistogram has 32 sub-bins per octave: quantile relative error
//     <= 2^(1/32) - 1 ≈ 2.2% (bin width), range [2^-20, 2^40) with
//     underflow/overflow bins (underflow holds zeros and negatives).
#pragma once

#include <cstdint>
#include <vector>

namespace hvc::stats {

/// 128-bit signed accumulator for fixed-point sums. A thin wrapper over
/// the compiler's __int128 (already relied on by sim/units.hpp) so the
/// width is explicit at API boundaries.
struct Acc128 {
  __int128 v = 0;

  constexpr void add(std::int64_t x) { v += x; }
  constexpr void add_product(std::int64_t a, std::int64_t b) {
    v += static_cast<__int128>(a) * b;
  }
  constexpr void merge(const Acc128& o) { v += o.v; }
  [[nodiscard]] double to_double() const { return static_cast<double>(v); }

  constexpr bool operator==(const Acc128&) const = default;
};

/// Fixed-point sample quantization shared by the accumulators: samples
/// are mapped to integer multiples of 2^-16, clamped to |v| <= 2^32.
/// Non-finite samples do not quantize (callers count and drop them).
inline constexpr int kFracBits = 16;
inline constexpr double kQuantScale = 65536.0;  // 2^kFracBits
[[nodiscard]] std::int64_t quantize(double v);
[[nodiscard]] constexpr double dequantize(std::int64_t q) {
  return static_cast<double>(q) / kQuantScale;
}

/// Streaming count/mean/variance/min/max over quantized samples. All
/// state is exact integers; merge() in any order or grouping yields the
/// same state as one sequential pass.
class StreamingMoments {
 public:
  void add(double v);
  void merge(const StreamingMoments& o);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] double mean() const;
  /// Population variance (n, not n-1); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? dequantize(min_q_) : 0.0; }
  [[nodiscard]] double max() const { return n_ ? dequantize(max_q_) : 0.0; }

  bool operator==(const StreamingMoments&) const = default;

 private:
  std::uint64_t n_ = 0;
  std::uint64_t dropped_ = 0;  ///< non-finite samples
  Acc128 sum_;                 ///< sum of quantized samples
  Acc128 sumsq_;               ///< sum of squared quantized samples
  std::int64_t min_q_ = 0;
  std::int64_t max_q_ = 0;
};

/// HDR-style log-spaced histogram: 32 sub-bins per power of two across
/// [2^-20, 2^40), plus an underflow bin (zeros, negatives, tiny values)
/// and an overflow bin. Memory is a fixed ~15 KiB regardless of sample
/// count; merge is elementwise bin addition.
class LogHistogram {
 public:
  static constexpr int kSubBins = 32;   ///< per octave
  static constexpr int kExpLo = -20;    ///< smallest binned exponent
  static constexpr int kExpHi = 40;     ///< one past the largest
  static constexpr int kBins = 2 + (kExpHi - kExpLo) * kSubBins;

  LogHistogram() : counts_(kBins, 0) {}

  void add(double v) { add_n(v, 1); }
  void add_n(double v, std::uint64_t n);
  void merge(const LogHistogram& o);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  /// Quantile in [0, 100]; returns the geometric midpoint of the bin
  /// holding the rank-ceil(p/100 * n) sample (0 when empty).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t underflow() const { return counts_.front(); }
  [[nodiscard]] std::uint64_t overflow() const { return counts_.back(); }

  /// Fixed memory footprint of the bin array (the O(bins) claim).
  [[nodiscard]] static constexpr std::size_t memory_bytes() {
    return kBins * sizeof(std::uint64_t);
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  friend class QuantileCursor;

  [[nodiscard]] static int bin_index(double v);
  /// The bin add() puts `v` in (non-finite samples go to underflow).
  [[nodiscard]] static int sample_bin(double v);
  [[nodiscard]] static double bin_mid(int idx);
  /// 1-based rank percentile(p) looks for among n > 0 samples.
  [[nodiscard]] static std::uint64_t rank(double p, std::uint64_t n);

  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> counts_;  ///< size kBins, fixed
};

/// The answer of LogHistogram::percentile(p), kept current as samples
/// arrive. percentile() scans from bin 0 on every call; the cursor
/// remembers the answer bin and the count below it, so one add moves it
/// only across the bins between the old answer and the new one. Its
/// value() equals percentile(p) after every add, as long as the
/// histogram changes only through this cursor's add() (no merge, no
/// direct add).
class QuantileCursor {
 public:
  explicit QuantileCursor(double p) : p_(p) {}

  /// hist.add(v), then move to the bin percentile(p) now returns.
  void add(LogHistogram& hist, double v);
  /// hist.percentile(p) for the histogram add() feeds (0 when empty).
  [[nodiscard]] double value() const { return LogHistogram::bin_mid(bin_); }

 private:
  double p_;
  int bin_ = 0;              ///< the bin percentile(p) returns
  std::uint64_t below_ = 0;  ///< samples in bins [0, bin_)
};

}  // namespace hvc::stats
