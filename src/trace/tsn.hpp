// 802.1Qbv-style time-aware gating over a shared Wi-Fi medium (§2.2).
//
// A gating schedule divides a repeating cycle into a protected TSN window
// (contention-free, deterministic service for time-sensitive traffic) and
// a best-effort remainder, separated by guard bands during which nothing
// transmits (the medium must be quiet before the protected window opens).
// The paper's §2.2 concern — "other users bear the cost of one's use of
// the low latency service" and "loses multiplexing gains with non-TSN
// traffic having to wait" — falls directly out of this model: best-effort
// capacity shrinks by the window share *plus* the guard overhead.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace hvc::trace {

struct TsnSchedule {
  /// Full gating cycle (802.1Qbv cycle time).
  sim::Duration cycle = sim::milliseconds(10);
  /// Protected window for TSN traffic at the start of each cycle.
  sim::Duration tsn_window = sim::milliseconds(2);
  /// Guard band before the protected window (medium quiescence).
  sim::Duration guard = sim::microseconds(200);
  /// Raw medium rate shared by both classes.
  sim::RateBps medium_rate = sim::mbps(120);
  /// Delivery granularity inside the TSN window (small TSN frames).
  std::int64_t tsn_mtu = 250;
  std::int64_t best_effort_mtu = 1500;
};

/// Capacity trace for the protected TSN slice: full medium rate inside
/// each [guard end, window end) interval, nothing elsewhere.
CapacityTrace tsn_slice_trace(const TsnSchedule& s);

/// Capacity trace for the best-effort remainder: full medium rate outside
/// the window and guard band.
CapacityTrace best_effort_slice_trace(const TsnSchedule& s);

}  // namespace hvc::trace
