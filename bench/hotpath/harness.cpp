#include "bench/hotpath/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "exp/runner.hpp"
#include "obs/prof.hpp"
#include "obs/summary.hpp"
#include "sim/stats.hpp"

namespace hvc::bench::hotpath {

namespace prof = obs::prof;

std::vector<BenchDef>& registry() {
  static std::vector<BenchDef> benches;
  return benches;
}

void register_bench(BenchDef def) { registry().push_back(std::move(def)); }

namespace {

/// One measured repeat: run `body(scale)` under a fresh exp::RunIsolation
/// with freshly reset prof counters, and fold the timings into the
/// per-key repeat summaries.
void run_repeat(const BenchDef& def, std::uint64_t scale,
                std::map<std::string, sim::Summary>* keys) {
  exp::RunIsolation iso;  // repeats never see each other's state
  prof::reset();
  prof::enable();
  const std::uint64_t t0 = prof::now_ns();
  const std::uint64_t items = def.body(scale);
  const std::uint64_t t1 = prof::now_ns();
  prof::disable();
  const prof::ThreadStats stats = prof::thread_stats();

  const double elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  if (items > 0 && elapsed_s > 0.0) {
    (*keys)["items"].add(static_cast<double>(items));
    (*keys)["items_per_sec"].add(static_cast<double>(items) / elapsed_s);
    (*keys)["ns_per_item"].add(static_cast<double>(t1 - t0) /
                               static_cast<double>(items));
  }
  for (std::size_t i = 0; i < prof::kHookCount; ++i) {
    const prof::HookStats& h = stats.hooks[i];
    if (h.calls == 0) continue;
    const std::string prefix =
        std::string("hook.") + prof::hook_name(static_cast<prof::Hook>(i));
    (*keys)[prefix + ".calls"].add(static_cast<double>(h.calls));
    if (h.cycles > 0) {
      (*keys)[prefix + ".cycles_per_call"].add(
          static_cast<double>(h.cycles) / static_cast<double>(h.calls));
    }
  }
  if (stats.alloc.allocs > 0 && items > 0) {
    (*keys)["alloc.bytes_per_item"].add(
        static_cast<double>(stats.alloc.alloc_bytes) /
        static_cast<double>(items));
  }
}

/// Warmup repeat: same isolation, results discarded. Profiling stays off
/// so warmup only heats caches/branch predictors and the CPU governor.
void run_warmup(const BenchDef& def, std::uint64_t scale) {
  exp::RunIsolation iso;
  prof::reset();
  prof::enable();  // bodies may derive their item count from hook counters
  (void)def.body(scale);
  prof::disable();
}

}  // namespace

obs::PerfManifest run_suite(const SuiteOptions& opts) {
  obs::PerfManifest manifest;
  manifest.name = opts.name;
  manifest.cpu_model = prof::cpu_model();
  manifest.compiler = prof::compiler_id();
#ifdef HVC_SOURCE_DIR
  manifest.git_sha = prof::git_sha(HVC_SOURCE_DIR);
#endif
#ifdef HVC_BUILD_TYPE
  manifest.build_type = HVC_BUILD_TYPE;
#endif

  if (opts.pin_cpu >= 0) prof::pin_to_cpu(opts.pin_cpu);
  manifest.pinned_cpu = prof::pinned_cpu();
  manifest.cycles_per_ns = prof::cycles_per_ns();
  manifest.warmup = opts.warmup;
  manifest.repeats = opts.quick ? std::min(opts.repeats, 3) : opts.repeats;

  if (opts.verbose) {
    std::printf("%-24s %12s %14s %12s %12s\n", "bench", "items",
                "items/s p50", "iqr", "ns/item p50");
  }
  for (const BenchDef& def : registry()) {
    if (!opts.filter.empty() &&
        def.name.find(opts.filter) == std::string::npos) {
      continue;
    }
    const std::uint64_t scale =
        opts.quick ? std::max<std::uint64_t>(def.scale / 8, 1) : def.scale;
    for (int w = 0; w < opts.warmup; ++w) run_warmup(def, scale);
    std::map<std::string, sim::Summary> keys;
    for (int r = 0; r < manifest.repeats; ++r) run_repeat(def, scale, &keys);

    obs::PerfBenchResult result;
    result.name = def.name;
    result.unit = def.unit;
    for (const auto& [key, summary] : keys) {
      obs::flatten_repeat_stats(summary, key, &result.stats);
    }
    if (opts.verbose) {
      const auto stat = [&](const char* k) {
        const auto it = result.stats.find(k);
        return it == result.stats.end() ? 0.0 : it->second;
      };
      std::printf("%-24s %12.0f %14.0f %12.0f %12.1f\n", def.name.c_str(),
                  stat("items.median"), stat("items_per_sec.median"),
                  stat("items_per_sec.iqr"), stat("ns_per_item.median"));
    }
    manifest.benches.push_back(std::move(result));
  }
  return manifest;
}

}  // namespace hvc::bench::hotpath
