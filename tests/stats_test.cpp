// Property tests for src/stats: the documented accuracy bounds of the
// streaming accumulators (streaming.hpp's header comment) and the
// merge-identity contract the sharded sweeps rely on — any merge order
// or grouping of shard partials must serialize byte-identically to one
// sequential pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/seed.hpp"
#include "stats/cohort.hpp"
#include "stats/streaming.hpp"

namespace hvc::stats {
namespace {

/// Deterministic heavy-tailed-ish sample set spanning a few decades —
/// the shape of latency data the population engine produces.
std::vector<double> make_samples(std::uint64_t key, std::size_t n) {
  sim::CounterStream rng(key);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    // Mix of a bulk mode around ~100 and a long tail up to ~20000.
    const double v = u < 0.9 ? 20.0 + 160.0 * rng.uniform()
                             : 200.0 * std::exp(4.6 * rng.uniform());
    out.push_back(v);
  }
  return out;
}

TEST(StreamingMoments, MatchesOfflineWithinQuantizationBound) {
  const auto samples = make_samples(0xA11CE, 20'000);
  StreamingMoments m;
  long double sum = 0, sumsq = 0;
  for (double v : samples) {
    m.add(v);
    sum += v;
    sumsq += static_cast<long double>(v) * v;
  }
  const double n = static_cast<double>(samples.size());
  const double exact_mean = static_cast<double>(sum / n);
  const double exact_var =
      static_cast<double>(sumsq / n - (sum / n) * (sum / n));

  ASSERT_EQ(m.count(), samples.size());
  // Documented: samples quantize to 2^-16 steps, so the mean is off by
  // at most half a quantum (2^-17) plus accumulation noise.
  EXPECT_NEAR(m.mean(), exact_mean, 1e-4);
  // Documented: variance error <= ~2^-15 * (|mean| + stddev).
  const double var_bound =
      std::pow(2.0, -15) * (std::abs(exact_mean) + std::sqrt(exact_var)) +
      1e-6 * exact_var;
  EXPECT_NEAR(m.variance(), exact_var, var_bound);
  EXPECT_NEAR(m.min(), *std::min_element(samples.begin(), samples.end()),
              1e-4);
  EXPECT_NEAR(m.max(), *std::max_element(samples.begin(), samples.end()),
              1e-4);
}

TEST(StreamingMoments, DropsNonFiniteSamples) {
  StreamingMoments m;
  m.add(1.0);
  m.add(std::numeric_limits<double>::quiet_NaN());
  m.add(std::numeric_limits<double>::infinity());
  m.add(3.0);
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(m.dropped(), 2u);
  EXPECT_NEAR(m.mean(), 2.0, 1e-9);
}

TEST(LogHistogram, QuantileWithinDocumentedRelativeError) {
  auto samples = make_samples(0xBEEF, 50'000);
  LogHistogram h;
  for (double v : samples) h.add(v);
  std::sort(samples.begin(), samples.end());

  // percentile() returns the geometric midpoint of the bin holding the
  // rank-ceil(p/100*n) sample; with 32 sub-bins per octave the midpoint
  // is within 2^(1/64)-1 of anything in the bin. 2.2% covers the full
  // bin-width bound with margin.
  for (double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const double exact = samples[rank - 1];
    const double est = h.percentile(p);
    EXPECT_NEAR(est, exact, 0.022 * exact) << "p" << p;
  }
}

TEST(LogHistogram, UnderflowAndOverflowBins) {
  LogHistogram h;
  h.add(0.0);
  h.add(-5.0);
  h.add(1e-12);  // below 2^-20
  h.add(std::ldexp(1.0, 45));  // above 2^40
  h.add(100.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(LogHistogram, MemoryIsFixed) {
  // The O(bins) claim: footprint is a compile-time constant.
  EXPECT_EQ(LogHistogram::memory_bytes(),
            static_cast<std::size_t>(LogHistogram::kBins) *
                sizeof(std::uint64_t));
}

// QuantileCursor against percentile(), in lockstep: after every add the
// cursor must name the bin a full scan from bin 0 finds. The walk mixes
// a latency-shaped bulk with zeros, negatives, NaN, infinities and
// values below 2^-20 (all underflow), values at or past 2^40 (overflow),
// and a regime shift halfway that moves the bulk up three decades, so
// the cursor walks both ways and across long runs of empty bins.
TEST(QuantileCursor, MatchesPercentileAfterEveryAdd) {
  constexpr double kQuantiles[] = {0.0, 50.0, 95.0, 99.9, 100.0};
  constexpr std::size_t kQ = std::size(kQuantiles);
  constexpr int kAdds = 250'000;
  std::vector<LogHistogram> hists(kQ);
  std::vector<QuantileCursor> cursors;
  for (const double p : kQuantiles) cursors.emplace_back(p);
  for (std::size_t q = 0; q < kQ; ++q) {
    ASSERT_EQ(cursors[q].value(), hists[q].percentile(kQuantiles[q]));
  }

  sim::CounterStream rng(0xC025);
  for (int i = 0; i < kAdds; ++i) {
    const double scale = i < kAdds / 2 ? 1.0 : 1000.0;
    const double r = rng.uniform();
    double v = 0.0;
    if (r < 0.01) {
      v = 0.0;
    } else if (r < 0.02) {
      v = -rng.uniform(0.0, 100.0);
    } else if (r < 0.025) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else if (r < 0.03) {
      v = rng.uniform() < 0.5 ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
    } else if (r < 0.035) {
      v = std::ldexp(1.0 + rng.uniform(), static_cast<int>(
                                              rng.uniform_int(40, 60)));
    } else if (r < 0.04) {
      v = std::ldexp(rng.uniform(), -21);
    } else {
      const double u = rng.uniform();
      v = scale * (r < 0.9 ? 20.0 + 160.0 * u : 200.0 * std::exp(4.6 * u));
    }
    for (std::size_t q = 0; q < kQ; ++q) {
      cursors[q].add(hists[q], v);
      ASSERT_EQ(cursors[q].value(), hists[q].percentile(kQuantiles[q]))
          << "p" << kQuantiles[q] << " after add " << i << " (" << v << ")";
    }
  }
  EXPECT_EQ(hists[0].count(), static_cast<std::uint64_t>(kAdds));
  EXPECT_GT(hists[0].underflow(), 5'000u);
  EXPECT_GT(hists[0].overflow(), 1'000u);
}

/// Feed `samples` round-robin into `shards` accumulators of type T.
template <typename T>
std::vector<T> shard_round_robin(const std::vector<double>& samples,
                                 std::size_t shards) {
  std::vector<T> out(shards);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[i % shards].add(samples[i]);
  }
  return out;
}

/// Merge-identity property: sequential pass, left-to-right merge,
/// reversed merge, and a balanced-tree merge must all compare equal and
/// serialize to the same bytes.
template <typename T>
void check_merge_identity(const std::vector<double>& samples) {
  T sequential;
  for (double v : samples) sequential.add(v);

  const auto shards = shard_round_robin<T>(samples, 7);

  T forward;
  for (const auto& s : shards) forward.merge(s);

  T reversed;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.merge(*it);
  }

  // Balanced tree: pairwise reduce.
  std::vector<T> level = shards;
  while (level.size() > 1) {
    std::vector<T> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      T acc = level[i];
      if (i + 1 < level.size()) acc.merge(level[i + 1]);
      next.push_back(std::move(acc));
    }
    level = std::move(next);
  }

  EXPECT_EQ(forward, sequential);
  EXPECT_EQ(reversed, sequential);
  EXPECT_EQ(level.front(), sequential);
}

TEST(MergeIdentity, StreamingMoments) {
  check_merge_identity<StreamingMoments>(make_samples(0xC0FFEE, 9'001));
}

TEST(MergeIdentity, LogHistogram) {
  check_merge_identity<LogHistogram>(make_samples(0xC0FFEE, 9'001));
}

TEST(MergeIdentity, JainAccumulator) {
  check_merge_identity<JainAccumulator>(make_samples(0xC0FFEE, 9'001));
}

TEST(MergeIdentity, CohortSetAnyGrouping) {
  const auto samples = make_samples(0xD00D, 6'000);

  auto fill = [&](CohortSet& set, std::size_t begin, std::size_t step) {
    for (std::size_t i = begin; i < samples.size(); i += step) {
      const char* cohort = (i % 3 == 0) ? "web" : (i % 3 == 1) ? "video"
                                                               : "background";
      const char* metric = (i % 2 == 0) ? "plt_ms" : "xput_mbps";
      set.cohort(cohort).add(metric, samples[i]);
      if (i % 10 == 0) set.cohort(cohort).fairness.add(samples[i]);
    }
  };

  CohortSet sequential;
  fill(sequential, 0, 1);

  std::vector<CohortSet> shards(5);
  for (std::size_t s = 0; s < shards.size(); ++s) fill(shards[s], s, 5);

  CohortSet forward;
  for (const auto& s : shards) forward.merge(s);
  CohortSet reversed;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.merge(*it);
  }

  EXPECT_EQ(forward, sequential);
  EXPECT_EQ(reversed, sequential);
}

TEST(CohortSet, MemoryIndependentOfSampleCount) {
  CohortSet small, large;
  for (int i = 0; i < 10; ++i) small.cohort("web").add("plt_ms", 100.0 + i);
  for (int i = 0; i < 100'000; ++i) {
    large.cohort("web").add("plt_ms", 100.0 + (i % 977));
  }
  // Same cohort/metric structure => same footprint, whatever the volume.
  EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
}

TEST(CohortSet, ExportMetricsShape) {
  CohortSet set;
  for (int i = 1; i <= 100; ++i) set.cohort("web").add("plt_ms", i);
  set.cohort("web").fairness.add(1.0);
  set.cohort("web").fairness.add(1.0);
  std::map<std::string, double> out;
  set.export_metrics("city", &out);
  EXPECT_EQ(out.at("city.web.plt_ms.count"), 100.0);
  EXPECT_NEAR(out.at("city.web.plt_ms.mean"), 50.5, 1e-3);
  EXPECT_GT(out.at("city.web.plt_ms.p95"), out.at("city.web.plt_ms.p50"));
  EXPECT_NEAR(out.at("city.jain.web"), 1.0, 1e-9);
}

TEST(JainAccumulator, FairnessBounds) {
  JainAccumulator equal;
  for (int i = 0; i < 64; ++i) equal.add(7.5);
  EXPECT_NEAR(equal.index(), 1.0, 1e-9);

  // One user hogs everything: J -> 1/n.
  JainAccumulator hog;
  hog.add(10'000.0);
  for (int i = 0; i < 15; ++i) hog.add(0.0);
  EXPECT_NEAR(hog.index(), 1.0 / 16.0, 1e-3);

  // Empty population is vacuously fair.
  EXPECT_NEAR(JainAccumulator{}.index(), 1.0, 1e-12);
}

TEST(Quantize, RoundTripAndClamp) {
  EXPECT_EQ(quantize(1.0), 65536);
  EXPECT_NEAR(dequantize(quantize(123.456)), 123.456, 1.0 / kQuantScale);
  // Clamped to |v| <= 2^32.
  EXPECT_EQ(quantize(1e30), quantize(5e9));
  EXPECT_EQ(quantize(-1e30), quantize(-5e9));
}

}  // namespace
}  // namespace hvc::stats
