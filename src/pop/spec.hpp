// Declarative population specs: who the 10⁴–10⁶ users of a city cell
// are, without materializing any of them.
//
// A PopulationSpec is a handful of numbers — a user count, an archetype
// mix (web / video / background), per-archetype behaviour knobs, an
// arrival/departure churn process, and a URLLC steering rule. The
// engine (engine.hpp) expands it lazily: user state is created on
// activation, every random draw comes from a counter-based splitmix64
// stream keyed by (scenario seed, user slot) (sim/seed.hpp), and no
// per-user JSON or trace file ever exists. The JSON surface lives in
// src/exp (the scenario schema's "city" block); this header is pure
// data plus a programmatic validate() backstop.
#pragma once

#include <cstdint>

namespace hvc::pop {

/// Archetype weights; normalized by the engine (must sum > 0).
struct ArchetypeMix {
  double web = 0.6;
  double video = 0.25;
  double background = 0.15;

  bool operator==(const ArchetypeMix&) const = default;
};

/// Web archetype: think — load a multi-level page — think. A page is
/// 1..max_levels dependency levels of parallel object transfers; the
/// first object is the HTML document, the rest are heavy-tailed
/// subresources (Pareto, matching app/web/page.hpp's corpus shape).
struct WebArchetype {
  double think_time_s = 5.0;        ///< mean exponential think time
  int min_levels = 1;
  int max_levels = 3;
  int min_objects = 2;              ///< per level
  int max_objects = 8;
  double html_min_bytes = 8 * 1024;
  double html_max_bytes = 64 * 1024;
  double object_xm_bytes = 1024;        ///< Pareto scale
  double object_alpha = 1.3;            ///< Pareto shape
  double object_cap_bytes = 256 * 1024; ///< tail clamp

  bool operator==(const WebArchetype&) const = default;
};

/// Video archetype: paced chunks of chunk_s seconds at `kbps` (±30%
/// per-chunk jitter). Chunk latency is measured against the pacing
/// deadline, so a congested cell shows backlog growth, not just slower
/// transfers.
struct VideoArchetype {
  double chunk_s = 1.0;
  double kbps = 1500;

  bool operator==(const VideoArchetype&) const = default;
};

/// Background archetype: sporadic heavy-tailed bulk transfers (syncs,
/// updates) — load without a latency SLO.
struct BackgroundArchetype {
  double period_s = 10.0;           ///< mean exponential inter-transfer gap
  double xm_bytes = 100 * 1024;     ///< Pareto scale
  double alpha = 1.5;
  double cap_bytes = 4e6;

  bool operator==(const BackgroundArchetype&) const = default;
};

/// Arrival/departure churn. arrival_rate_per_s > 0 adds Poisson
/// arrivals on top of the initial population; mean_session_s > 0 gives
/// every user an exponential session length (0 = nobody leaves).
struct ChurnSpec {
  double arrival_rate_per_s = 0.0;
  double mean_session_s = 0.0;

  bool operator==(const ChurnSpec&) const = default;
};

/// URLLC steering rule: small web objects (<= max_bytes) are admitted
/// to the scarce URLLC pool only when their predicted completion time
/// fits the delay bound; everything else — and every admission-test
/// failure ("spill") — goes to eMBB. The spill rate is the scarcity
/// evidence behind the capacity curve.
/// Defaults are chosen so the rule has a live operating point on the
/// default 2 Mbps pool: an empty pool completes a 4 KiB object in
/// ~16 ms + 5 ms RTT, inside the 30 ms bound, and a handful of
/// concurrent admissions pushes past it — so spill onset tracks load.
struct SteerSpec {
  bool enabled = true;
  double delay_bound_ms = 30.0;
  double max_bytes = 4 * 1024;

  bool operator==(const SteerSpec&) const = default;
};

struct PopulationSpec {
  std::int64_t users = 1000;   ///< initial population at t = 0
  ArchetypeMix mix;
  WebArchetype web;
  VideoArchetype video;
  BackgroundArchetype background;
  ChurnSpec churn;
  SteerSpec steer;

  /// Throws std::invalid_argument on out-of-range values. The JSON
  /// parser in src/exp reports the same constraints with field paths;
  /// this is the backstop for programmatic construction.
  void validate() const;

  bool operator==(const PopulationSpec&) const = default;
};

}  // namespace hvc::pop
