// TCP Vegas [13]: delay-based congestion avoidance. Compares expected
// throughput (cwnd / baseRTT) against actual (cwnd / RTT) and keeps the
// difference between alpha and beta packets. Its baseRTT is a lifetime
// minimum — a single packet steered over URLLC poisons it permanently,
// making Vegas see a huge backlog on every eMBB-carried ACK and pin the
// window to the floor (Fig. 1a: 2.73 Mbps, roughly URLLC's capacity).
#pragma once

#include "transport/cca.hpp"

namespace hvc::transport {

class Vegas final : public CcAlgorithm {
 public:
  Vegas();

  [[nodiscard]] std::string name() const override { return "vegas"; }
  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  [[nodiscard]] std::int64_t cwnd_bytes() const override { return cwnd_; }

  [[nodiscard]] sim::Duration base_rtt() const { return base_rtt_; }

 private:
  std::int64_t cwnd_;
  std::int64_t ssthresh_ = INT64_MAX;
  sim::Duration base_rtt_ = 0;  ///< 0 = no sample yet (lifetime min)
  // Per-round accounting: adjust once per RTT using the round's min RTT.
  std::int64_t round_marker_ = 0;
  sim::Duration round_min_rtt_ = 0;
  bool in_slow_start_ = true;
};

}  // namespace hvc::transport
