// Reimplementation of the DChannel packet-steering heuristic [42]
// (Sentosa et al., NSDI '23), the network-layer state of the art the paper
// builds on and critiques (§3.1).
//
// Per packet, DChannel weighs the *reward* of sending it on a low-latency
// secondary channel (the delivery-time saving vs the default channel)
// against the *cost* (the serialization time it occupies on the scarce
// secondary, delaying future packets). Small packets — ACKs, control —
// have near-zero cost and large reward, so they are preferentially
// accelerated; bulk data fills the secondary only until its queue estimate
// erases the reward. This is completely application-agnostic: it treats
// every packet as its own message (the exact limitation §3.3 demonstrates
// against SVC video).
#pragma once

#include <cstdint>

#include "steer/steering_policy.hpp"

namespace hvc::steer {

struct DChannelConfig {
  /// Weight on the secondary-occupancy cost term. 1.0 = count the full
  /// serialization time of the packet as cost.
  double cost_factor = 1.5;

  /// Steer only when reward exceeds cost by at least this margin.
  sim::Duration min_margin = sim::milliseconds(1);

  /// Never steer into a secondary whose queue is fuller than this.
  double max_queue_fill = 0.9;

  /// Stricter cap for bulk data: DChannel keeps the low-latency channel's
  /// queue shallow so small/control packets always find it fast.
  double max_data_queue_fill = 0.5;

  /// Risk weight on the secondary channel's *queueing* delay for data
  /// packets. Queueing committed to a slow channel is certain (it drains
  /// at 2 Mbps), while the primary's queue estimate is transient (bursts
  /// drain at full rate and the estimate is stale within tens of ms), so
  /// the heuristic prices secondary backlog above its face value. This is
  /// what keeps DChannel a win on *stationary* eMBB (Table 1): without
  /// it, object tail-bytes get parked behind deep URLLC queues that
  /// outlive the primary's burst.
  double queue_risk = 0.0;

  /// Treat ACK/control packets with a relaxed (zero) margin — DChannel
  /// derives much of its PLT gain from accelerating ACKs (§3.2).
  bool accelerate_control = true;

  /// Table 1 variant ("DChannel w. priority"): background flows
  /// (flow_priority > 0) are barred from the secondary channel.
  bool use_flow_priority = false;

  /// The defaults above steer aggressively (data moves to the secondary
  /// whenever the instantaneous estimate favors it) — the configuration
  /// whose interaction with delay-based CCAs Fig. 1 studies.
  static DChannelConfig aggressive() { return {}; }

  /// Deployment tuning for TCP request/response traffic (Table 1): a
  /// higher occupancy cost and margin keep bulk data off the secondary
  /// unless the primary shows sustained queueing, so transient
  /// slow-start bursts don't scatter a flow across channels and confuse
  /// the sender's delay heuristics (HyStart, RACK).
  static DChannelConfig web_tuned() {
    DChannelConfig cfg;
    cfg.cost_factor = 3.0;
    cfg.min_margin = sim::milliseconds(5);
    return cfg;
  }
};

class DChannelPolicy final : public SteeringPolicy {
 public:
  explicit DChannelPolicy(DChannelConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override {
    return cfg_.use_flow_priority ? "dchannel+flowprio" : "dchannel";
  }
  [[nodiscard]] bool uses_flow_priority() const override {
    return cfg_.use_flow_priority;
  }

  Decision steer(const net::Packet& pkt,
                 std::span<const ChannelView> channels,
                 sim::Time now) override;

 private:
  DChannelConfig cfg_;
};

/// The reward/cost core, exposed so cross-layer policies can reuse it as
/// their fallback for packets without application metadata.
/// Returns the chosen channel index. When `reason` is non-null it
/// receives a static audit tag explaining the outcome:
///   dchannel:control       control/ACK accelerated (relaxed margin)
///   dchannel:small-object  small data packet steered (cheap, big reward)
///   dchannel:reward        bulk data steered, net reward beat the margin
///   dchannel:default       stayed on the primary channel
std::size_t dchannel_choose(const net::Packet& pkt,
                            std::span<const ChannelView> channels,
                            const DChannelConfig& cfg,
                            const char** reason);
std::size_t dchannel_choose(const net::Packet& pkt,
                            std::span<const ChannelView> channels,
                            const DChannelConfig& cfg);

}  // namespace hvc::steer
