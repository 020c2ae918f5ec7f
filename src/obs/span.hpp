// Causal span layer with tail-based exemplar retention — the "why was
// THIS page slow" instrument (DESIGN.md §5.10).
//
// The tracer records packets, telemetry records series, the audit log
// records decisions; none of them can reconstruct the blocking chain of
// one slow page load at city scale, and full tracing at 10⁴–10⁶ users is
// memory-infeasible. A span *unit* is one user-visible unit of work (a
// page load, a video chunk, a frame): a tree of stages (dependency
// levels) each holding per-channel legs (object transfers). Workloads
// build units incrementally in a bounded per-user SpanUnitBuilder (the
// flight recorder: fixed stage/leg caps, overflow counted, O(1) memory
// per user) and offer() the finished tree with its headline sample.
//
// Retention is tail-based: the recorder keeps the full tree only when
// the sample lands at or above a configured quantile of the live
// stats::LogHistogram for that (cohort, metric) — the same exact-integer
// sketch the city cohorts use — plus a counter-hash deterministic
// reservoir of normal exemplars (keep when splitmix64(key_seed + n) hits
// a fixed residue; no RNG, no sampling-order sensitivity). Tracing cost
// is therefore O(exemplars), not O(packets), and the export is
// byte-identical across `-j` and `--shard/--merge` because every
// decision is a pure function of the per-run offer sequence.
//
// The critical-path decomposition is exact integer sim-time accounting:
// each stage's duration is leading propagation (the request RTT) plus
// its blocking leg's duration, and each leg's duration splits into named
// components (serialization = the alone-transfer time, queueing = the
// sharing-induced remainder, plus retransmission / reorder-wait /
// steering-wait / decode-wait where the workload can measure them). The
// per-component sums over a unit's stages equal the measured total to
// the nanosecond — `hvc_report --explain` prints the check.
//
// Same isolation contract as the tracer/audit log: one thread-local
// active() pointer (zero cost when no recorder is installed), sim-time-
// only records, and a ScopedSpanRecorder installer per run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/binding.hpp"
#include "sim/units.hpp"
#include "stats/streaming.hpp"

namespace hvc::obs {

namespace json {
class Writer;
}  // namespace json

/// The named critical-path components (fixed vocabulary; a workload uses
/// the subset it can measure).
enum class SpanComp : std::uint8_t {
  kQueueing = 0,        ///< sharing/backlog-induced wait
  kSerialization,       ///< alone-transfer time at the channel rate
  kPropagation,         ///< RTT / one-way delays on the blocking chain
  kRetransmission,      ///< loss recovery (RTO/fast-retransmit) time
  kReorderWait,         ///< resequencing hold
  kSteeringWait,        ///< waiting on a steering/admission decision
  kDecodeWait,          ///< client-side decode/parse hold
};
inline constexpr int kSpanCompCount = 7;
[[nodiscard]] const char* span_comp_name(SpanComp c);

/// One channel leg: the transfer that (when critical) blocks its stage.
struct SpanLeg {
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  std::int64_t bytes = 0;
  std::uint32_t slot = 0;          ///< object index within the stage
  const char* channel = "";        ///< static name ("embb", "urllc", …)
  const char* reason = "";         ///< steering/policy reason tag
  /// Exact decomposition in ns; sums to (t1 - t0) for the critical leg.
  std::array<std::int64_t, kSpanCompCount> parts{};
};

/// One stage of the blocking chain (a web dependency level, a chunk
/// fetch): leading propagation, then its legs; the last leg to finish is
/// the critical one.
struct SpanStage {
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  std::int64_t prop_ns = 0;        ///< leading propagation (request RTT)
  const char* prop_channel = "";   ///< channel the propagation rides
  std::uint32_t legs = 0;          ///< legs opened in this stage
  SpanLeg crit;                    ///< the blocking leg (valid if legs > 0)
};

/// A completed unit of work offered for retention. `cohort` and
/// `metric` are static strings: the recorder keys its lookup cache by
/// their addresses.
struct SpanUnit {
  const char* cohort = "";         ///< "web" | "video" | …
  const char* metric = "";         ///< "plt_ms" | "latency_ms" | …
  std::uint32_t user = 0;
  std::uint64_t seq = 0;           ///< per-user unit counter
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  std::int64_t total_ns = 0;       ///< the measured result, exact
  double value = 0;                ///< the headline sample (cohort units)
  std::vector<SpanStage> stages;
};

/// Bounded per-user flight recorder: builds one in-flight unit. Fixed
/// caps on stages and open legs; overflow is counted, never allocated.
/// leg_charge() and leg_close() act on the first still-open leg opened
/// with their slot; an index by slot finds it without a scan. A stage's
/// critical leg is split into components once, when the stage is
/// written out, not on every close.
class SpanUnitBuilder {
 public:
  static constexpr std::size_t kMaxStages = 32;
  static constexpr std::size_t kMaxOpenLegs = 64;

  SpanUnitBuilder() { bucket_.fill(kNone); }

  [[nodiscard]] bool active() const { return active_; }

  void begin(const char* cohort, const char* metric, std::uint32_t user,
             sim::Time t0);
  /// Open a stage whose first `prop_ns` is propagation on `prop_channel`.
  void begin_stage(sim::Time t0, std::int64_t prop_ns,
                   const char* prop_channel);
  /// Open a leg; `ser_hint_ns` is the alone-transfer time at the chosen
  /// channel's rate (clamped to the observed duration on close).
  void leg_open(std::uint32_t slot, sim::Time t0, std::int64_t bytes,
                const char* channel, const char* reason,
                std::int64_t ser_hint_ns);
  /// Extra component time to charge on close (e.g. steering-wait).
  void leg_charge(std::uint32_t slot, SpanComp comp, std::int64_t ns);
  void leg_close(std::uint32_t slot, sim::Time t1);
  void end_stage(sim::Time t1);
  /// Close the unit. `total_ns` is the measured result; any slack versus
  /// the accumulated components lands in the last stage's queueing so
  /// the per-component sum is exact by construction.
  [[nodiscard]] SpanUnit finish(sim::Time t1, std::int64_t total_ns,
                                double value);
  void abort();

  [[nodiscard]] std::uint64_t truncated() const { return truncated_; }
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr std::int8_t kNone = -1;

  /// A leg of the current stage. The full SpanLeg, with its component
  /// split, is built only for the stage's critical leg, when the stage
  /// is written out (flush_stage).
  struct OpenLeg {
    sim::Time t0 = 0;
    sim::Time t1 = 0;              ///< set on close
    std::int64_t bytes = 0;
    std::int64_t ser_hint_ns = 0;
    const char* channel = "";
    const char* reason = "";
    std::uint32_t slot = 0;
    std::int8_t next = kNone;      ///< next open leg in this leg's bucket
    std::int8_t charges = kNone;   ///< its row of charges_, if charged
  };

  /// The link that holds the first open leg with `slot`, or nullptr.
  [[nodiscard]] std::int8_t* find_open(std::uint32_t slot);
  /// Write the current stage's leg count and critical leg into it.
  void flush_stage();
  void clear_legs();

  // The fields every leg call reads, kept together.
  bool active_ = false;
  bool in_stage_ = false;
  std::int8_t crit_ = kNone;       ///< the stage's last closed leg
  std::uint32_t stage_legs_ = 0;   ///< legs opened in this stage
  /// Open legs by slot: bucket slot % kMaxOpenLegs heads a list of the
  /// open legs whose slot falls in it, linked through OpenLeg::next in
  /// open order. A closed leg is unlinked but keeps its place in open_,
  /// so the 64-leg cap still counts every leg the stage opened.
  std::array<std::int8_t, kMaxOpenLegs> bucket_;
  std::vector<OpenLeg> open_;      ///< current stage's legs, in open order
  /// Component charges of the legs that have any, one row per leg.
  std::vector<std::array<std::int64_t, kSpanCompCount>> charges_;
  SpanUnit unit_;
  std::uint64_t seq_ = 0;
  std::uint64_t truncated_ = 0;
};

struct SpanConfig {
  double tail_quantile = 95.0;     ///< retain at/above this live quantile
  std::int64_t tail_budget = 16;   ///< top-K tail exemplars per metric key
  std::int64_t reservoir_budget = 8;
  std::int64_t reservoir_period = 64;  ///< keep ~every Nth unit
  std::int64_t warmup = 32;        ///< samples before the tail rule arms
  std::uint64_t seed = 0;          ///< keys the counter-hash reservoir
};

/// Per-run span recorder: owns the live histograms and the retained
/// exemplar sets. Install with ScopedSpanRecorder; hot paths check
/// SpanRecorder::active() (nullptr = spans off, one branch).
class SpanRecorder : public ThreadBinding<SpanRecorder> {
 public:
  SpanRecorder() = default;

  [[nodiscard]] static SpanRecorder* active() { return bound(); }

  void enable(SpanConfig cfg = {});
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Offer a completed unit; the retention rule decides whether the tree
  /// is kept. Always feeds the live histogram.
  void offer(SpanUnit&& unit);
  /// A unit died incomplete (its user departed); counted, never kept.
  void note_aborted() { ++aborted_; }
  void note_truncated(std::uint64_t n) { truncated_ += n; }

  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t retained() const;
  /// Memory held by retained exemplars + per-key histograms — the
  /// O(exemplars) accounting exported as city.span_bytes. Lookup caches
  /// (the interned keys, the quantile cursors) are not counted.
  [[nodiscard]] std::size_t span_bytes() const;

  /// One meta line, then one line per retained exemplar, ordered by
  /// (metric key, offer index). Byte-deterministic.
  void write_jsonl(json::Writer& w) const;
  /// write_jsonl() into a string.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct Kept {
    SpanUnit unit;
    std::uint64_t n = 0;          ///< offer index within the key
    const char* keep = "";        ///< "tail" | "reservoir"
  };
  struct MetricState {
    stats::LogHistogram hist;
    std::uint64_t offered = 0;
    std::uint64_t evicted = 0;
    std::uint64_t key_seed = 0;   ///< seed_mix(cfg.seed, fnv1a64(key))
    std::vector<Kept> tail;       ///< top-K by value
    std::vector<Kept> reservoir;  ///< oldest-out ring, insertion order
  };
  /// One metric key: its state, and the cursor that keeps
  /// hist.percentile(cfg.tail_quantile) current.
  struct Key {
    MetricState ms;
    stats::QuantileCursor tail_at;
  };
  /// An interned (cohort, metric) address pair and the key it names.
  struct Alias {
    const char* cohort;
    const char* metric;
    Key* key;
  };

  [[nodiscard]] Key& resolve(const SpanUnit& unit);

  SpanConfig cfg_;
  std::map<std::string, Key> keys_;
  std::uint64_t offered_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t truncated_ = 0;
  bool enabled_ = false;
  /// Lookup cache, not exemplar or histogram memory: span_bytes() leaves
  /// it out, as it leaves out each Key's cursor.
  std::vector<Alias> aliases_;
};

/// RAII installer, same contract as ScopedSteeringAuditLog: an enabled
/// recorder becomes the thread's active(); a disabled one masks any
/// outer recorder so sweep runs never cross-record.
using ScopedSpanRecorder = ScopedBinding<SpanRecorder>;

}  // namespace hvc::obs
