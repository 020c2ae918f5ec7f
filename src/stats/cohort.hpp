// Per-cohort streaming aggregation: the telemetry shape the population
// engine (src/pop) emits. A cohort is a named user group ("web",
// "video", "background"); each cohort tracks one or more named metrics
// (PLT, chunk latency, throughput) as StreamingMoments + LogHistogram
// pairs, plus a Jain's-fairness accumulator fed one value per *user*
// (that user's mean), so the report can show how evenly the cell treats
// its population, not just how well on average.
//
// Everything is built from the exact-integer accumulators in
// streaming.hpp, so CohortSet::merge() is order-independent: however
// shards were combined, the merged sets compare equal (operator==).
// Memory is O(cohorts × metrics × bins) — independent of user and
// sample counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats/streaming.hpp"

namespace hvc::stats {

/// Jain's fairness index J = (Σx)² / (n·Σx²) over per-user values,
/// accumulated as exact fixed-point integers. J = 1 is perfectly fair;
/// J → 1/n as one user dominates. Values are clamped to >= 0 (the index
/// is defined for non-negative allocations).
class JainAccumulator {
 public:
  void add(double per_user_value);
  void merge(const JainAccumulator& o);

  [[nodiscard]] std::uint64_t users() const { return n_; }
  /// The index; 1.0 for n == 0 or an all-zero population (vacuously fair).
  [[nodiscard]] double index() const;

  bool operator==(const JainAccumulator&) const = default;

 private:
  std::uint64_t n_ = 0;
  Acc128 sum_;
  Acc128 sumsq_;
};

/// One metric's samples: exact moments + log-bin quantile sketch.
struct MetricStats {
  StreamingMoments moments;
  LogHistogram hist;

  void add(double v) {
    moments.add(v);
    hist.add(v);
  }
  void merge(const MetricStats& o) {
    moments.merge(o.moments);
    hist.merge(o.hist);
  }

  bool operator==(const MetricStats&) const = default;
};

/// One cohort: named metrics plus the per-user fairness accumulator.
struct CohortStats {
  std::map<std::string, MetricStats> metrics;
  JainAccumulator fairness;

  void add(const std::string& metric, double v) { metrics[metric].add(v); }
  void merge(const CohortStats& o);

  bool operator==(const CohortStats&) const = default;
};

/// The full per-run cohort table, keyed by cohort name.
class CohortSet {
 public:
  CohortStats& cohort(const std::string& name) { return cohorts_[name]; }
  [[nodiscard]] const std::map<std::string, CohortStats>& cohorts() const {
    return cohorts_;
  }

  void merge(const CohortSet& o);

  /// Flatten into a metrics map:
  ///   <prefix>.<cohort>.<metric>.{count,mean,stddev,min,max,
  ///                               p5,p25,p50,p75,p90,p95,p99}
  ///   <prefix>.jain.<cohort>    (only for cohorts with >= 1 user value)
  void export_metrics(const std::string& prefix,
                      std::map<std::string, double>* out) const;

  /// Accumulator memory footprint: a function of cohort/metric counts
  /// and the fixed bin layout only — never of how many samples or users
  /// were observed.
  [[nodiscard]] std::size_t memory_bytes() const;

  bool operator==(const CohortSet&) const = default;

 private:
  std::map<std::string, CohortStats> cohorts_;
};

}  // namespace hvc::stats
