// The one place retained-sample summaries (sim::Summary) are flattened
// into named scalar stats. Consumers:
//   * MetricsRegistry::snapshot() — each registry histogram (a
//     sim::Summary) becomes <name>.count/.mean/.p50/.p95/.p99/.max in a
//     run's "obs" results,
//   * obs::PerfManifest / bench/hotpath — repeat statistics
//     (median + IQR) for the BENCH_*.json perf trajectory.
// Keep any new flattening here so the stat names stay consistent across
// exports.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/stats.hpp"

namespace hvc::obs {

/// The registry/manifest flattening: <prefix>.count always; when samples
/// exist also <prefix>.mean/.p50/.p95/.p99/.max.
void flatten_summary(const sim::Summary& s, const std::string& prefix,
                     std::map<std::string, double>* out);

/// Robust statistics over benchmark repeats (small n, outlier-prone):
/// median + interquartile range, plus the extremes and mean.
struct RepeatStats {
  std::uint64_t count = 0;
  double median = 0.0;
  double iqr = 0.0;  ///< p75 - p25
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

[[nodiscard]] RepeatStats repeat_stats(const sim::Summary& s);

/// Flatten repeat_stats as <prefix>.median/.iqr/.min/.max/.mean
/// (count is implied by the manifest's `repeats` field).
void flatten_repeat_stats(const sim::Summary& s, const std::string& prefix,
                          std::map<std::string, double>* out);

}  // namespace hvc::obs
