// The city-cell population engine: a flow-level (fluid) simulation of
// 10⁴–10⁶ users sharing one bottleneck eMBB cell and a scarce URLLC
// pool.
//
// Why flow-level: the packet-level stack (src/transport, src/quic) costs
// hundreds of events per page load; at 10⁶ users that is days of CPU.
// Here a transfer is a *fluid* through a processor-sharing link — the
// classic PS model of a fair-shared cell — so one transfer costs O(log n)
// heap work regardless of its size, and a 10k-user minute simulates in
// seconds while still exhibiting the paper's §2 scarcity dynamics:
// contention grows with population, small-object latency degrades, and
// the URLLC pool's admission rule starts spilling.
//
// PsLink uses the virtual-work formulation: V(t) advances at C/n(t)
// bytes of *per-flow* service per second; a transfer of s bytes entering
// at V₀ completes when V reaches V₀ + s. One re-armed timer fires at the
// earliest completion; arrivals and completions advance V and re-arm. A
// web dependency level starts all its objects at one instant and then
// re-arms each link it touched once (PsStartBatch, DESIGN.md §4.10).
// The heap is ordered by (v_end, sequence) so completions are
// deterministic: the order is total, so any min-heap pops the same
// sequence, and a 4-ary one does it with half the levels of a binary
// heap over a cell's thousands of flows. Every random draw comes from a
// per-user counter-based splitmix64 stream (sim/seed.hpp) keyed by
// (scenario seed, user slot) — draws can never be perturbed by event
// interleaving or by another user's behaviour.
//
// Statistics are streaming only (src/stats): per-cohort PLT / chunk
// latency / throughput go into exact-integer moments + log-bin
// histograms, and each departing user's mean folds into a Jain fairness
// accumulator. Telemetry memory is O(cohorts × bins) at any population.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "pop/spec.hpp"
#include "sim/seed.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_map.hpp"
#include "sim/units.hpp"
#include "stats/cohort.hpp"

namespace hvc::pop {

/// The cell the population shares: one bulk eMBB link and (optionally)
/// a URLLC pool, both as equal-share processor-sharing resources.
struct CellConfig {
  double embb_rate_bps = 60e6;
  sim::Duration embb_rtt = sim::milliseconds(50);
  bool has_urllc = true;
  double urllc_rate_bps = 2e6;
  sim::Duration urllc_rtt = sim::milliseconds(5);
};

struct CityConfig {
  PopulationSpec population;
  CellConfig cell;
  std::uint64_t seed = 42;
  sim::Duration duration = sim::seconds(60);
};

struct CityResult {
  stats::CohortSet cohorts;      ///< "web"/"video"/"background" streams
  std::uint64_t arrivals = 0;    ///< churn arrivals (excludes initial)
  std::uint64_t departures = 0;
  std::uint64_t peak_active = 0;
  std::uint64_t pages = 0;
  std::uint64_t chunks = 0;
  std::uint64_t bg_transfers = 0;
  std::uint64_t urllc_admitted = 0;
  std::uint64_t urllc_spilled = 0;  ///< admission-test failures
  std::uint64_t events = 0;         ///< simulator events executed
};

/// An equal-share processor-sharing link (virtual-work formulation).
/// Transfers are identified by an opaque (user, tag) pair so completion
/// dispatch needs no per-transfer allocation.
class PsLink {
 public:
  using DoneFn = std::function<void(std::uint32_t user, std::uint32_t tag)>;

  PsLink(sim::Simulator& sim, double rate_bytes_per_s);

  void set_on_done(DoneFn fn) { on_done_ = std::move(fn); }

  /// Begin a transfer of `bytes` (> 0) for (user, tag).
  void start(std::uint32_t user, std::uint32_t tag, double bytes) {
    enqueue(user, tag, bytes);
    rearm();
  }
  /// start() without the timer re-arm; PsStartBatch re-arms.
  void enqueue(std::uint32_t user, std::uint32_t tag, double bytes);
  /// Point the completion timer at the earliest completion.
  void rearm();

  [[nodiscard]] std::size_t active() const { return heap_.size(); }
  [[nodiscard]] double rate_bytes_per_s() const { return rate_; }

  /// Predicted completion time (seconds) of a `bytes` transfer admitted
  /// now, assuming the current flow count persists: bytes·(n+1)/C.
  [[nodiscard]] double predicted_completion_s(double bytes) const;

 private:
  struct Xfer {
    double v_end = 0;        ///< virtual-work completion mark
    std::uint64_t seq = 0;   ///< FIFO tie-break (determinism)
    std::uint32_t user = 0;
    std::uint32_t tag = 0;
  };

  /// Heap order: a is later than b in (v_end, seq). seq is unique, so
  /// the order is total.
  struct Later {
    bool operator()(const Xfer& a, const Xfer& b) const {
      return a.v_end != b.v_end ? a.v_end > b.v_end : a.seq > b.seq;
    }
  };
  static constexpr std::size_t kArity = 4;

  void advance_to_now();
  void pop_and_dispatch();
  /// Remove and return the earliest transfer. Precondition: non-empty.
  Xfer pop_min();

  sim::Simulator& sim_;
  double rate_;             ///< bytes per second
  DoneFn on_done_;
  std::vector<Xfer> heap_;  ///< kArity-ary min-heap under Later
  std::vector<Xfer> done_scratch_;
  double vwork_ = 0;        ///< cumulative per-flow service (bytes)
  sim::Time last_ = 0;
  std::uint64_t seq_ = 0;
  sim::Timer timer_;
};

/// Several PsLink starts at one sim instant, with one timer re-arm per
/// link instead of one per start. rearm() re-arms the links in the
/// order of their last start: the order a re-arm per start leaves their
/// surviving timer events in. Exact only when nothing else is scheduled
/// between the starts and rearm() (DESIGN.md §4.10).
class PsStartBatch {
 public:
  void start(PsLink& link, std::uint32_t user, std::uint32_t tag,
             double bytes);
  void rearm();

 private:
  std::vector<PsLink*> order_;  ///< links started, by last start
};

/// The lazily-expanded population. Construct, start(), drive the
/// simulator to the horizon, then finish() to fold still-active users
/// into the fairness accumulators.
class CityEngine {
 public:
  CityEngine(sim::Simulator& sim, const CityConfig& cfg);

  void start();
  void finish();
  [[nodiscard]] CityResult& result() { return result_; }

  [[nodiscard]] std::uint64_t active_users() const { return active_; }

 private:
  enum Kind : std::uint8_t { kWeb = 0, kVideo = 1, kBackground = 2 };
  // Transfer-tag layout: top byte = transfer kind, bits 16–23 = the
  // object slot within its dependency level (span-leg identity), low 16
  // bits = the owner's epoch at start (stale completions are dropped; a
  // user slot departs at most once, so 16 bits cannot wrap in anger).
  enum Tag : std::uint32_t {
    kTagWebObject = 0u << 24,
    kTagVideoChunk = 1u << 24,
    kTagBgTransfer = 2u << 24,
  };

  // Liveness and the departure epoch now live in the slot map: the
  // map's per-slot generation IS the epoch (retire_slot bumps it), and
  // its live bit replaces the old `active` flag. Slots are acquired
  // append-only — RNG streams are keyed by (seed, slot), so a reused
  // slot would replay a departed user's randomness.
  struct User {
    sim::CounterStream rng;
    sim::Time op_start = 0;    ///< page / transfer start
    sim::Time chunk_due = 0;   ///< video pacing deadline
    double metric_sum = 0;     ///< running sum of this user's samples
    double metric_aux = 0;     ///< in-flight background transfer bytes
    std::uint32_t metric_n = 0;
    std::uint16_t objs_in_flight = 0;
    std::uint8_t levels_left = 0;
    Kind kind = kWeb;
  };

  void add_user();
  void activate(std::uint32_t u);
  void depart(std::uint32_t u);
  void fold_user(std::uint32_t u);
  [[nodiscard]] const char* cohort_name(Kind k) const;

  void schedule_think(std::uint32_t u);
  void start_page(std::uint32_t u);
  void begin_level(std::uint32_t u);
  /// Admit one web object and start it through batch_; the caller
  /// re-arms the batch.
  void start_object(std::uint32_t u, std::uint32_t slot, double bytes);
  void schedule_chunk(std::uint32_t u);
  void start_chunk(std::uint32_t u);
  void schedule_bg(std::uint32_t u);
  void start_bg(std::uint32_t u);
  void on_transfer_done(std::uint32_t u, std::uint32_t tag);
  void schedule_arrival();

  [[nodiscard]] double exponential(sim::CounterStream& s, double mean);
  [[nodiscard]] double pareto(sim::CounterStream& s, double xm, double alpha,
                              double cap);

  sim::Simulator& sim_;
  CityConfig cfg_;
  PsLink embb_;
  PsLink urllc_;
  PsStartBatch batch_;  ///< a page level's object starts
  sim::SlotMap<User> users_;
  sim::CounterStream engine_rng_;
  std::uint64_t active_ = 0;
  CityResult result_;
  obs::TelemetryProbes probes_;
  /// Span layer (obs/span.hpp): non-null only when the run installed an
  /// enabled recorder; every hot-path hook is behind one pointer test.
  obs::SpanRecorder* spans_ = nullptr;
  std::vector<obs::SpanUnitBuilder> sbuild_;  ///< per-user flight recorder
  std::uint64_t admissions_ = 0;  ///< audit-join record counter
};

/// Run one city-cell scenario start to finish on a private simulator.
/// Uses the calling thread's active telemetry sampler / metrics registry
/// (the src/exp isolation contract), so concurrent sweep runs stay
/// independent.
CityResult run_city(const CityConfig& cfg);

}  // namespace hvc::pop
