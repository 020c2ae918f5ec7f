// Cost-aware steering for priced low-latency channels (§3.1's
// latency-vs-cost trade-off; think cISP [10], where the microwave path
// charges per byte).
//
// The policy buys latency only when it is cheap enough: a packet is
// steered to a priced channel iff the estimated time saving per dollar
// exceeds `min_ms_saved_per_dollar` AND the running spend stays within a
// token-bucket budget (dollars accrue at `budget_per_second`).
#pragma once

#include "steer/steering_policy.hpp"

namespace hvc::steer {

struct CostAwareConfig {
  double budget_per_second = 0.01;   ///< dollars/s accrued
  double max_budget = 0.05;          ///< bucket cap (dollars)
  double min_ms_saved_per_dollar = 100.0;
  /// Ignore costs for control packets up to this size (they are tiny and
  /// their acceleration is what makes the channel worth paying for).
  std::int64_t free_control_bytes = 80;
};

class CostAwarePolicy final : public SteeringPolicy {
 public:
  explicit CostAwarePolicy(CostAwareConfig cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] std::string name() const override { return "cost-aware"; }

  Decision steer(const net::Packet& pkt,
                 std::span<const ChannelView> channels,
                 sim::Time now) override;

  [[nodiscard]] double total_spent() const { return spent_; }

 private:
  CostAwareConfig cfg_;
  double bucket_ = 0.0;
  double spent_ = 0.0;
  sim::Time last_refill_ = 0;
};

}  // namespace hvc::steer
