// Deterministic fault model: FaultPlan describes the disruption episodes a
// scenario injects into its channels — full link outages, handover rate
// cliffs, Gilbert-Elliott burst-loss episodes, propagation-delay spikes and
// channel flap sequences (§3: URLLC capacity is intermittent, 5G links flap
// during handovers/blockage). Plans are data: validated up front, applied by
// fault::FaultInjector (injector.hpp) through the channel::Link fault_*
// hooks, and fully reproducible — every stochastic element carries its own
// seed, so the same plan produces byte-identical runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/loss.hpp"
#include "sim/names.hpp"
#include "sim/units.hpp"

namespace hvc::fault {

enum class FaultKind : std::uint8_t {
  kOutage,      ///< full blackout: no delivery opportunities served
  kRateCliff,   ///< handover cliff: capacity drops to rate_scale
  kGeBurst,     ///< Gilbert-Elliott burst-loss episode layered on the link
  kDelaySpike,  ///< extra propagation delay (route change / re-buffering)
  kFlap,        ///< periodic down/up toggling (handover storm, blockage)
};

/// Which of the channel's two links the fault hits.
enum class FaultDir : std::uint8_t { kDownlink, kUplink, kBoth };

/// The kinds and directions by name (a scenario's "faults" entries).
inline constexpr sim::Named<FaultKind> kFaultKinds[] = {
    {"outage", FaultKind::kOutage},
    {"rate_cliff", FaultKind::kRateCliff},
    {"ge_burst", FaultKind::kGeBurst},
    {"delay_spike", FaultKind::kDelaySpike},
    {"flap", FaultKind::kFlap},
};
inline constexpr sim::Named<FaultDir> kFaultDirs[] = {
    {"down", FaultDir::kDownlink},
    {"up", FaultDir::kUplink},
    {"both", FaultDir::kBoth},
};

[[nodiscard]] inline const char* kind_name(FaultKind k) {
  return sim::name_for(kFaultKinds, k).data();
}

/// Outage and flap both toggle link availability, so they share a family;
/// each other kind owns an independent knob. Two events of one family may
/// not overlap on the same link.
[[nodiscard]] int family(FaultKind k);
[[nodiscard]] bool dirs_overlap(FaultDir a, FaultDir b);

/// One scheduled disruption episode on one channel.
struct FaultEvent {
  FaultKind kind = FaultKind::kOutage;
  std::size_t channel = 0;
  FaultDir dir = FaultDir::kBoth;
  sim::Time start = 0;
  sim::Duration duration = sim::seconds(1);

  // kRateCliff: fraction of delivery opportunities still served, (0, 1).
  double rate_scale = 0.1;

  // kDelaySpike: added on top of the link's propagation delay.
  sim::Duration extra_delay = sim::milliseconds(100);

  // kGeBurst: episode loss model (Gilbert-Elliott fields) + RNG seed.
  channel::LossConfig loss;
  std::uint64_t loss_seed = 1;

  // kFlap: toggle period, fraction of each period spent up, and an
  // optional seed (non-zero) that jitters the per-period down spans.
  sim::Duration flap_period = sim::milliseconds(500);
  double flap_up_fraction = 0.5;
  std::uint64_t flap_seed = 0;

  [[nodiscard]] sim::Time end() const { return start + duration; }
};

/// An ordered list of fault events for one scenario run.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Throws std::invalid_argument (message names the offending event
  /// index) on: channel out of range, non-positive duration, negative
  /// start, bad kind parameters, or two same-family events overlapping on
  /// the same link (outage/flap share the availability family — stacking
  /// them would make down/up transitions ambiguous).
  void validate(std::size_t num_channels) const;

  /// A seeded random-but-valid plan for fuzzing: 1–4 events of random
  /// kinds placed in disjoint time slices of [0, horizon). The same seed
  /// always yields the same plan.
  [[nodiscard]] static FaultPlan fuzzed(std::uint64_t seed,
                                        std::size_t num_channels,
                                        sim::Duration horizon);
};

}  // namespace hvc::fault
