// The steering shim: intercepts packets travelling in one direction and
// places each on a channel chosen by a SteeringPolicy.
//
// This is DChannel's deployment model (§3.1): a layer transparent to both
// application and transport, sitting where the channels fan out (UE uplink,
// packet-gateway downlink). The shim also enforces the layering contract —
// before consulting a policy that declares itself network-layer, it blanks
// the cross-layer fields so lower-layer schemes cannot cheat.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "channel/channel.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "steer/steering_policy.hpp"

namespace hvc::net {

struct ShimStats {
  std::vector<std::int64_t> packets_per_channel;
  std::vector<std::int64_t> bytes_per_channel;
  std::int64_t duplicates_sent = 0;
};

class Shim {
 public:
  Shim(sim::Simulator& sim, channel::HvcSet& channels,
       channel::Direction direction,
       std::unique_ptr<steer::SteeringPolicy> policy);
  /// Folds stats_ and the pending decision counts into the registry.
  ~Shim();

  Shim(const Shim&) = delete;
  Shim& operator=(const Shim&) = delete;

  /// Steer and enqueue a packet.
  void send(PacketPtr p);

  [[nodiscard]] steer::SteeringPolicy& policy() { return *policy_; }
  [[nodiscard]] const ShimStats& stats() const { return stats_; }
  [[nodiscard]] channel::Direction direction() const { return direction_; }

 private:
  /// Current per-channel views for the steering policy: refreshes the
  /// reused member views in place — no allocation per decision; valid
  /// until the next call.
  [[nodiscard]] std::span<const steer::ChannelView> snapshot_views() const;

  sim::Simulator& sim_;
  channel::HvcSet& channels_;
  channel::Direction direction_;
  std::unique_ptr<steer::SteeringPolicy> policy_;
  ShimStats stats_;

  // MetricsRegistry instruments (pointer-stable; see obs/metrics.hpp):
  // shim.<dir>.ch<i>.{packets,bytes} mirror stats_, and the policy gets
  // steer.<policy>.<dir>.decisions.ch<i> without touching the policy
  // classes themselves. The hot path only bumps stats_/decisions_; the
  // totals are folded into the registry when the shim is destroyed.
  std::vector<obs::Counter*> m_packets_;
  std::vector<obs::Counter*> m_bytes_;
  std::vector<obs::Counter*> m_decisions_;
  obs::Counter* m_duplicates_ = nullptr;
  std::vector<std::int64_t> decisions_;  ///< per channel
  /// One view per channel, its constants filled when the channel first
  /// shows up; snapshot_views() refreshes the rest every decision.
  mutable std::vector<steer::ChannelView> views_;

  /// Cached policy_->name(); the audit log stores one copy per record,
  /// so we avoid re-stringifying per packet.
  std::string policy_name_;
  /// Telemetry series steer.<policy>.<dir>.ch<i>.decisions reading
  /// decisions_.
  obs::TelemetryProbes probes_;
};

}  // namespace hvc::net
