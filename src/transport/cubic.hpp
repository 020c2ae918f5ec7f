// TCP CUBIC [28]: loss-based congestion control. Window growth is a cubic
// function of time since the last loss, anchored at the pre-loss window.
// CUBIC ignores delay entirely, which is why it is the one CCA in Fig. 1a
// that still fills the high-bandwidth channel under packet steering.
#pragma once

#include "transport/cca.hpp"

namespace hvc::transport {

class Cubic final : public CcAlgorithm {
 public:
  Cubic();

  [[nodiscard]] std::string name() const override { return "cubic"; }
  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  void on_spurious_loss(sim::Time now) override;
  [[nodiscard]] std::int64_t cwnd_bytes() const override { return cwnd_; }

  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  [[nodiscard]] double cubic_target(sim::Time now) const;

  std::int64_t cwnd_;
  std::int64_t ssthresh_ = INT64_MAX;
  double w_max_mss_ = 0.0;       ///< window before last reduction (MSS)
  sim::Time epoch_start_ = -1;   ///< -1: no epoch yet
  double k_ = 0.0;               ///< time offset where cubic crosses w_max
  sim::Duration last_srtt_ = sim::milliseconds(100);
  sim::Duration min_rtt_ = 0;
  sim::Time last_loss_ = -1;
  // Undo state (restore on spurious-loss evidence).
  std::int64_t prior_cwnd_ = 0;
  std::int64_t prior_ssthresh_ = 0;
  double prior_w_max_mss_ = 0.0;
  // HyStart round tracking.
  std::int64_t hystart_round_ = -1;
  sim::Duration cur_round_min_ = 0;
  sim::Duration prev_round_min_ = 0;
};

}  // namespace hvc::transport
