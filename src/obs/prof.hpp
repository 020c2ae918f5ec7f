// obs::prof — host-side, sim-determinism-safe hot-path profiler.
//
// This file (together with prof.cpp) is the repo's *sanctioned clock
// island*: the only place simulation-adjacent code may read host clocks.
// hvc_lint rule R1 bans wall-clock/entropy sources everywhere else, and
// rule R7 (clock-island) bans even `allow(wallclock)` suppressions
// outside `src/obs/prof` and `bench/` — host-time needs are met by
// calling prof::now_ns() / prof::cycles(), never by a local carve-out.
//
// Design constraints, in order:
//   1. Determinism. Hooks read the TSC and bump thread-local counters;
//      they never touch simulator state, RNG streams, packet ids or any
//      exported artifact. Profiled and unprofiled runs are byte-identical
//      (pinned by tests/prof_test.cpp).
//   2. Near-zero overhead while disabled (the default at runtime): one
//      relaxed atomic load per hook.
//   3. Sweep-safe. All accumulation is thread-local, so the concurrent
//      sweep engine (src/exp) never contends; snapshots read the
//      calling thread's stats.
//
// The profiler feeds two consumers: the bench/hotpath harness behind
// tools/hvc_perf turns per-repeat deltas into the BENCH_*.json perf
// trajectory (obs/perf_manifest.hpp), and the repo benchmark
// (perfbench/) reads the event-pop count of a traced run.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <string>

namespace hvc::obs::prof {

// ---- Instrumented hot paths --------------------------------------------

enum class Hook : std::uint8_t {
  kEventPush,        ///< sim::EventQueue::push
  kEventPop,         ///< sim::EventQueue::pop_due (events + Timer wake-ups)
  kPacketAlloc,      ///< net::make_packet / clone_packet
  kPacketFree,       ///< packet deallocation (net::PooledAllocator)
  kLinkServe,        ///< channel::Link::on_opportunity (service discipline)
  kSteer,            ///< net::Shim::send (policy dispatch + audit/trace)
  kTelemetrySample,  ///< obs::TelemetrySampler::sample (one tick)
};
inline constexpr std::size_t kHookCount = 7;

/// Stable short name used in perf manifest keys
/// ("event_push", "steer", ...).
[[nodiscard]] const char* hook_name(Hook h);

// ---- The sanctioned host clocks ----------------------------------------

/// Monotonic host time in nanoseconds. The ONLY wall-clock accessor
/// simulation-adjacent code may use (ETA displays, wall_ms diagnostics);
/// values must never feed simulation state or determinism-checked
/// exports.
[[nodiscard]] inline std::uint64_t now_ns() {
#if defined(__unix__) || defined(__APPLE__)
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;  // no monotonic source on this platform; meters read 0
#endif
}

/// Raw cycle counter (TSC / virtual counter); falls back to now_ns()
/// where none exists. Convert with cycles_per_ns() after calibrate().
[[nodiscard]] inline std::uint64_t cycles() {
#if defined(__x86_64__) || defined(__i386__)
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  __asm__ __volatile__("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  std::uint64_t v = 0;
  __asm__ __volatile__("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return now_ns();
#endif
}

/// Calibrated TSC rate (spins ~10 ms of host time on first call, cached
/// after). Thread-safe; returns 1.0 when no monotonic clock exists.
[[nodiscard]] double cycles_per_ns();

/// Best-effort: pin the calling thread to `cpu` (Linux). The microbench
/// harness pins before measuring so TSC deltas are not polluted by
/// migrations. Returns false when unsupported or refused.
bool pin_to_cpu(int cpu);
/// CPU successfully pinned to via pin_to_cpu(), or -1.
[[nodiscard]] int pinned_cpu();

// ---- Host metadata for perf manifests ----------------------------------

/// "model name" from /proc/cpuinfo, or "unknown".
[[nodiscard]] std::string cpu_model();
/// `git rev-parse HEAD` of `repo_dir`, or "unknown".
[[nodiscard]] std::string git_sha(const std::string& repo_dir);
/// Compiler id + version this TU was built with ("g++ 12.2.0"-style).
[[nodiscard]] std::string compiler_id();

// ---- Accumulators (thread-local) ----------------------------------------

struct HookStats {
  std::uint64_t calls = 0;
  std::uint64_t cycles = 0;  ///< scoped-timed hooks only; stride-sampled
                             ///< estimate (see ScopedTimer::kSampleStride)
};

struct AllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t free_bytes = 0;
};

struct ThreadStats {
  std::array<HookStats, kHookCount> hooks{};
  AllocStats alloc;
};

/// The calling thread's accumulators. Thread-local so concurrent sweep
/// runs never contend (each worker profiles its own runs).
[[nodiscard]] inline ThreadStats& thread_stats() {
  thread_local ThreadStats stats;
  return stats;
}

// Runtime gate, process-global: enable() before a measured region,
// disable() after. Relaxed loads — hooks observe flips at the next call,
// which is all the harness needs (it flips while no simulation runs).
inline std::atomic<bool> g_enabled{false};

[[nodiscard]] inline bool enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}
inline void enable() { g_enabled.store(true, std::memory_order_relaxed); }
inline void disable() { g_enabled.store(false, std::memory_order_relaxed); }

/// Zero the calling thread's accumulators (registrations are stateless,
/// so there is nothing else to keep).
inline void reset() { thread_stats() = ThreadStats{}; }

[[nodiscard]] inline const HookStats& stats(Hook h) {
  return thread_stats().hooks[static_cast<std::size_t>(h)];
}
[[nodiscard]] inline const AllocStats& alloc_stats() {
  return thread_stats().alloc;
}

inline void record(Hook h, std::uint64_t cycle_delta) {
  HookStats& s = thread_stats().hooks[static_cast<std::size_t>(h)];
  ++s.calls;
  s.cycles += cycle_delta;
}

// The allocator hooks count bytes only. The packet hooks' calls and
// cycles come from the scoped timers in make_packet/clone_packet and in
// PooledAllocator::deallocate, so each packet counts once.
inline void count_alloc(std::uint64_t bytes) {
  AllocStats& a = thread_stats().alloc;
  ++a.allocs;
  a.alloc_bytes += bytes;
}

inline void count_free(std::uint64_t bytes) {
  AllocStats& a = thread_stats().alloc;
  ++a.frees;
  a.free_bytes += bytes;
}

// ---- RAII scoped timer ---------------------------------------------------

/// Counts every call and cycle-times a deterministic 1-in-64 sample of
/// them, crediting the hook on destruction. `calls` stays exact; `cycles`
/// is the sampled total scaled by the stride, an unbiased estimate of the
/// true inclusive cost. Sampling exists because a TSC read pair is itself
/// tens of nanoseconds on some hosts — timing every event-queue push/pop
/// would dominate the very paths being measured. The sample choice is
/// keyed on the call counter (never a clock or RNG), so instrumentation
/// stays deterministic; cycle totals only ever feed perf manifests.
/// Nests freely (inner sampled scopes are included in outer totals, like
/// any inclusive profiler). A timer constructed while disabled stays
/// unarmed even if profiling flips on before it dies.
class ScopedTimer {
 public:
  static constexpr std::uint64_t kSampleStride = 64;

  explicit ScopedTimer(Hook h) {
    if (enabled()) {
      stats_ = &thread_stats().hooks[static_cast<std::size_t>(h)];
      timed_ = (stats_->calls & (kSampleStride - 1)) == 0;
      if (timed_) start_ = cycles();
    }
  }
  ~ScopedTimer() {
    if (stats_ != nullptr) {
      ++stats_->calls;
      if (timed_) stats_->cycles += (cycles() - start_) * kSampleStride;
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HookStats* stats_ = nullptr;
  std::uint64_t start_ = 0;
  bool timed_ = false;
};

// ---- Counting hooks ----------------------------------------------------

inline void hook_alloc(std::uint64_t bytes) {
  if (enabled()) count_alloc(bytes);
}

inline void hook_free(std::uint64_t bytes) {
  if (enabled()) count_free(bytes);
}

}  // namespace hvc::obs::prof

// Statement hooks for hot paths. `hook` must be a fully qualified
// ::hvc::obs::prof::Hook value (or one reachable from the call site).
#define HVC_PROF_CONCAT_INNER(a, b) a##b
#define HVC_PROF_CONCAT(a, b) HVC_PROF_CONCAT_INNER(a, b)
#define HVC_PROF_SCOPE(hook)                                       \
  ::hvc::obs::prof::ScopedTimer HVC_PROF_CONCAT(hvc_prof_scope_,   \
                                                __LINE__)((hook))
