// Declarative descriptions of heterogeneous virtual channels (§2 of the
// paper), plus factory functions for the channel types the paper surveys:
// 5G eMBB/URLLC, Wi-Fi TSN/MLO links, and WAN channels (cISP microwave,
// LEO satellite, terrestrial fiber).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "channel/link.hpp"
#include "trace/gen5g.hpp"
#include "trace/tsn.hpp"
#include "trace/trace.hpp"

namespace hvc::channel {

struct ChannelProfile {
  std::string name = "channel";
  trace::CapacityTrace capacity_down =
      trace::CapacityTrace::constant(sim::mbps(10));
  trace::CapacityTrace capacity_up =
      trace::CapacityTrace::constant(sim::mbps(10));
  sim::Duration owd = sim::milliseconds(10);  ///< one-way propagation delay
  std::int64_t queue_limit_bytes = 2 * 1024 * 1024;
  LossConfig loss;

  /// Seed for this channel's loss processes. HvcSet::add() decorrelates
  /// channels automatically; set explicitly to control it. Correlated
  /// loss across channels would silently defeat replication policies.
  std::uint64_t loss_seed = 42;

  /// Monetary cost, for the latency-vs-cost trade-off (§3.1, cISP-style).
  double cost_per_megabyte = 0.0;

  /// Advertised reliability (URLLC's 99.999%); policies treat `reliable`
  /// channels as safe for critical control packets (§3.2).
  bool reliable = false;

  [[nodiscard]] sim::Duration rtt() const { return 2 * owd; }
};

// ---- Factories for the paper's channel types ----

/// Default RTT and rate of a fixed-characteristic channel type: its
/// factory's default arguments, and what a scenario channel gets when it
/// does not override "rtt_ms" / "rate_mbps" (exp::build_channel).
struct FixedDefaults {
  sim::Duration rtt;
  sim::RateBps rate;
};
inline constexpr FixedDefaults kUrllcDefaults{sim::milliseconds(5),
                                              sim::mbps(2)};
inline constexpr FixedDefaults kEmbbDefaults{sim::milliseconds(50),
                                             sim::mbps(60)};
inline constexpr FixedDefaults kTsnDefaults{sim::milliseconds(4),
                                            sim::mbps(4)};
inline constexpr FixedDefaults kWifiDefaults{sim::milliseconds(20),
                                             sim::mbps(120)};
inline constexpr FixedDefaults kCispDefaults{sim::milliseconds(8),
                                             sim::mbps(10)};
inline constexpr FixedDefaults kFiberDefaults{sim::milliseconds(40),
                                              sim::mbps(500)};

/// URLLC per 3GPP numbers cited in §2.1: defaults to 5 ms RTT, 2 Mbps.
ChannelProfile urllc_profile(sim::Duration rtt = kUrllcDefaults.rtt,
                             sim::RateBps rate = kUrllcDefaults.rate);

/// Constant-rate eMBB as used in Fig. 1: 50 ms RTT, 60 Mbps.
ChannelProfile embb_constant_profile(sim::Duration rtt = kEmbbDefaults.rtt,
                                     sim::RateBps rate = kEmbbDefaults.rate);

/// Trace-driven eMBB for a named 5G profile (Fig. 2 / Table 1 setups).
/// Downlink follows the trace; uplink is scaled down (5G uplinks are much
/// slower — ~60 Mbps vs 2 Gbps down on mmWave [32]).
ChannelProfile embb_trace_profile(trace::FiveGProfile profile,
                                  sim::Duration duration, std::uint64_t seed);

/// Wi-Fi TSN-style deterministic low-latency slice (§2.2): low rate, very
/// low jitter, no loss.
ChannelProfile wifi_tsn_profile(sim::RateBps rate = kTsnDefaults.rate,
                                sim::Duration rtt = kTsnDefaults.rtt);

/// An 802.1Qbv-gated Wi-Fi pair (§2.2): {TSN slice, best-effort slice}
/// sharing one medium under the given schedule. Returned as two profiles
/// suitable for HvcSet — the TSN slice is low-latency/low-jitter/
/// reliable, and the best-effort slice visibly pays for it.
std::pair<ChannelProfile, ChannelProfile> wifi_tsn_gated_pair(
    const trace::TsnSchedule& schedule = {},
    sim::Duration rtt = sim::milliseconds(6));

/// Ordinary contended Wi-Fi with bursty (Gilbert-Elliott) loss.
ChannelProfile wifi_contended_profile(sim::RateBps rate = kWifiDefaults.rate,
                                      sim::Duration rtt = kWifiDefaults.rtt,
                                      double burst_loss = 0.05);

/// cISP-style microwave WAN (§2.3): near-speed-of-light latency, low
/// bandwidth, priced per byte.
ChannelProfile cisp_profile(sim::Duration rtt = kCispDefaults.rtt,
                            sim::RateBps rate = kCispDefaults.rate,
                            double cost_per_mb = 0.05);

/// Terrestrial fiber WAN path.
ChannelProfile fiber_profile(sim::Duration rtt = kFiberDefaults.rtt,
                             sim::RateBps rate = kFiberDefaults.rate);

/// LEO satellite path: lower latency than long fiber routes, moderate
/// bandwidth, periodic handover-induced capacity dips.
ChannelProfile leo_profile(std::uint64_t seed = 7,
                           sim::Duration duration = sim::seconds(60));

}  // namespace hvc::channel
