// MLO-style redundant steering (§2.2): trade bandwidth for reliability by
// replicating selected packets across channels, as Wi-Fi 7 Multi-Link
// Operation does. The receiver deduplicates (net::Node tracks duplicate
// groups), so the application sees the earliest surviving copy.
#pragma once

#include <cstdint>
#include <memory>

#include "steer/steering_policy.hpp"

namespace hvc::steer {

struct RedundantConfig {
  /// Replicate every packet (true) or only control packets and messages
  /// of the top priority (false; redundant.cpp holds that priority).
  bool mirror_all = false;
};

/// Decorator: delegates primary-channel choice to `base`, then adds a
/// duplicate on the best alternative channel when the packet qualifies.
class RedundantPolicy final : public SteeringPolicy {
 public:
  RedundantPolicy(std::unique_ptr<SteeringPolicy> base, RedundantConfig cfg)
      : base_(std::move(base)), cfg_(cfg) {}

  [[nodiscard]] std::string name() const override {
    return "redundant(" + base_->name() + ")";
  }
  [[nodiscard]] bool uses_app_info() const override {
    return base_->uses_app_info() || !cfg_.mirror_all;
  }
  [[nodiscard]] bool uses_flow_priority() const override {
    return base_->uses_flow_priority();
  }

  Decision steer(const net::Packet& pkt,
                 std::span<const ChannelView> channels,
                 sim::Time now) override;

 private:
  std::unique_ptr<SteeringPolicy> base_;
  RedundantConfig cfg_;
};

}  // namespace hvc::steer
