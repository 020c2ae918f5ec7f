// The pinned-cycle microbench harness behind tools/hvc_perf.
//
// Each microbench is a BenchDef whose body does `scale` units of work and
// reports how many items it processed. The harness supplies everything
// around the body: CPU pinning, TSC calibration, per-repeat isolation
// (fresh metrics registry + packet-id scope so repeats are independent
// and deterministic), warmup repeats, and the obs::prof enable/reset
// bracketing that turns hook counters into per-repeat deltas. Results
// flatten into an obs::PerfManifest — median + IQR of items/sec, ns/item
// and per-hot-path cycles/call — the BENCH_*.json perf trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/perf_manifest.hpp"

namespace hvc::bench::hotpath {

struct BenchDef {
  std::string name;  ///< manifest/bench id, e.g. "event_queue_churn"
  std::string unit;  ///< what one item is ("events", "packets", ...)
  /// Full-mode work per repeat; quick mode divides by 8 (min 1).
  std::uint64_t scale = 0;
  /// Runs the workload and returns items processed. Called with obs::prof
  /// enabled and freshly reset — it may read prof counters for its item
  /// count (the end-to-end bench reports executed events that way).
  std::function<std::uint64_t(std::uint64_t scale)> body;
};

/// Registered microbenches, in registration (suite) order.
std::vector<BenchDef>& registry();
void register_bench(BenchDef def);
/// Register the standard six-bench hot-path suite. Idempotent.
void register_default_suite();

struct SuiteOptions {
  bool quick = false;  ///< scale/8 and at most 3 repeats (CI smoke mode)
  int repeats = 7;     ///< measured repeats per bench
  int warmup = 2;      ///< discarded repeats per bench
  int pin_cpu = 0;     ///< CPU to pin to; -1 = don't pin
  std::string filter;  ///< substring match on bench name; empty = all
  std::string name = "hotpath";  ///< manifest name (BENCH_<name>.json)
  bool verbose = true;           ///< print one table row per bench
};

/// Run every registered (filter-matching) bench and collect the manifest.
[[nodiscard]] obs::PerfManifest run_suite(const SuiteOptions& opts);

}  // namespace hvc::bench::hotpath
