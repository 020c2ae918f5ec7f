// Cross-layer, message-priority-aware steering (§3.3).
//
// The application marks each packet with the message it belongs to and the
// message's priority (e.g. SVC spatial layer: layer 0 = priority 0). The
// policy keeps *whole* high-priority messages on the low-latency reliable
// channel — the property DChannel cannot provide, since it treats every
// packet as its own message and strands parts of layer 0 on eMBB whenever
// the URLLC queue estimate momentarily loses (Fig. 2 discussion).
#pragma once

#include <cstdint>

#include "steer/steering_policy.hpp"

namespace hvc::steer {

struct PrioritySteerConfig {
  /// §3.2 option: accelerate the tail of any message once fewer than this
  /// many bytes remain, to cut head-of-line blocking on the last RTT.
  /// 0 disables.
  std::uint32_t accelerate_tail_bytes = 0;
};

class MessagePriorityPolicy final : public SteeringPolicy {
 public:
  explicit MessagePriorityPolicy(PrioritySteerConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "msg-priority"; }
  [[nodiscard]] bool uses_app_info() const override { return true; }
  [[nodiscard]] bool uses_flow_priority() const override { return true; }

  Decision steer(const net::Packet& pkt,
                 std::span<const ChannelView> channels,
                 sim::Time now) override;

 private:
  PrioritySteerConfig cfg_;
};

}  // namespace hvc::steer
