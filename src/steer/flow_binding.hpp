// IANS / Socket-Intents-style *flow-granularity* channel selection
// ([23, 24, 40] in the paper): each flow is bound to exactly one channel
// when first seen, chosen from its intent (flow_priority here) and the
// channels' properties. The paper's critique — which the fig2/table1
// benches demonstrate — is that per-flow binding cannot exploit HVCs
// *within* a flow: a video flow bound to eMBB loses layer-0 acceleration,
// bound to URLLC it starves for bandwidth.
#pragma once

#include <cstdint>

#include "net/flow_table.hpp"
#include "steer/steering_policy.hpp"

namespace hvc::steer {

struct FlowBindingConfig {
  /// Estimated flow demand above which even latency-sensitive flows bind
  /// to the high-bandwidth channel (IANS considers expected object size).
  /// Demand is estimated from bytes seen so far; 0 disables.
  std::int64_t max_bytes_on_fast_channel = 256 * 1024;
};

class FlowBindingPolicy final : public SteeringPolicy {
 public:
  explicit FlowBindingPolicy(FlowBindingConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "flow-binding"; }
  [[nodiscard]] bool uses_flow_priority() const override { return true; }

  Decision steer(const net::Packet& pkt,
                 std::span<const ChannelView> channels,
                 sim::Time now) override;

  /// Channel a flow is currently bound to (for tests/inspection).
  [[nodiscard]] std::size_t binding(net::FlowId flow) const {
    const FlowState* fs = flows_.find(flow);
    return fs == nullptr ? SIZE_MAX : fs->channel;
  }

 private:
  struct FlowState {
    std::size_t channel = 0;
    std::int64_t bytes_seen = 0;
  };

  FlowBindingConfig cfg_;
  // Per-flow steering state, keyed by the packet's own flow id. Every
  // decision is a find-or-create on the arriving packet's key; flow ids
  // are dense per run, so the table is a vector index (net/flow_table).
  net::FlowTable<FlowState> flows_;
};

}  // namespace hvc::steer
