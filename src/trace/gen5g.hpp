// Synthetic 5G eMBB capacity traces.
//
// Substitution (DESIGN.md §2): the paper replays commercial 5G traces
// collected by DChannel [42]; those traces are not redistributable, so we
// generate Markov-modulated capacity processes calibrated to the published
// statistics — Lowband ~50 Mbps with mobility-induced degradation driving
// p98 RTT toward ~236 ms under load, and mmWave with very high peak rate
// but multi-second blockage outages that produce the paper's 6.4 s
// eMBB-only latency tail (Fig. 2, footnote 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/names.hpp"
#include "sim/rng.hpp"
#include "trace/trace.hpp"

namespace hvc::trace {

/// A state of the Markov-modulated rate process.
struct RateState {
  std::string name;
  sim::RateBps mean_rate = 0;
  double rate_jitter_frac = 0.0;   ///< per-step multiplicative jitter (sigma)
  sim::Duration mean_dwell = 0;    ///< exponential dwell mean
  sim::Duration max_dwell = 0;     ///< cap (0 = uncapped)
  std::vector<double> next_probs;  ///< transition distribution over states
};

struct MarkovRateModel {
  std::vector<RateState> states;
  std::size_t initial_state = 0;
  /// Rate resampling step within a state (jitter granularity).
  sim::Duration step = sim::milliseconds(10);
};

/// Generate a capacity trace of the given duration from the model.
/// Deterministic in `seed`.
CapacityTrace generate_markov_trace(const MarkovRateModel& model,
                                    sim::Duration duration, std::uint64_t seed,
                                    std::int64_t mtu = 1500);

/// Named profiles matching the paper's experimental conditions.
enum class FiveGProfile {
  kLowbandStationary,  ///< Table 1 "Stat." row
  kLowbandDriving,     ///< Table 1 "Drv." row, Fig. 2 left column
  kMmWaveDriving,      ///< Fig. 2 right column
};

/// The profiles by name (a "5g" channel's "profile" in a scenario).
inline constexpr sim::Named<FiveGProfile> kFiveGProfiles[] = {
    {"lowband-stationary", FiveGProfile::kLowbandStationary},
    {"lowband-driving", FiveGProfile::kLowbandDriving},
    {"mmwave-driving", FiveGProfile::kMmWaveDriving},
};

[[nodiscard]] inline const char* to_string(FiveGProfile p) {
  return sim::name_for(kFiveGProfiles, p).data();
}

/// The Markov model behind each profile (exposed for tests/ablations).
[[nodiscard]] MarkovRateModel five_g_model(FiveGProfile profile);

/// Generate a trace for a named profile.
CapacityTrace make_5g_trace(FiveGProfile profile, sim::Duration duration,
                            std::uint64_t seed, std::int64_t mtu = 1500);

/// Base one-way propagation delay of the eMBB bearer for a profile
/// (queueing from the capacity trace adds on top of this).
[[nodiscard]] sim::Duration embb_base_owd(FiveGProfile profile);

}  // namespace hvc::trace
