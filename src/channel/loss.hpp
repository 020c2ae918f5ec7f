// Packet loss models applied at the wire (post-queue).
//
// Bernoulli i.i.d. loss for simple channels, and Gilbert-Elliott two-state
// burst loss for wireless channels — burstiness is what makes the
// bandwidth-vs-reliability trade-off (MLO replication, §2.2) interesting:
// i.i.d. loss is cheap to code around with FEC, correlated loss is not.
#pragma once

#include <cstdint>

#include "sim/rng.hpp"

namespace hvc::channel {

struct LossConfig {
  /// i.i.d. drop probability per packet.
  double bernoulli = 0.0;

  /// Gilbert-Elliott burst loss. Enabled when `ge_loss_in_bad > 0`.
  double ge_p_good_to_bad = 0.0;  ///< per-packet transition probability
  double ge_p_bad_to_good = 0.0;
  double ge_loss_in_bad = 0.0;    ///< drop probability while in bad state
  double ge_loss_in_good = 0.0;

  [[nodiscard]] bool lossless() const {
    return bernoulli <= 0.0 && ge_loss_in_bad <= 0.0;
  }
};

class LossModel {
 public:
  LossModel(const LossConfig& cfg, sim::Rng rng) : cfg_(cfg), rng_(rng) {}

  /// Decide the fate of one packet. Advances GE state per call.
  [[nodiscard]] bool should_drop() {
    if (cfg_.lossless()) return false;
    bool drop = false;
    if (cfg_.bernoulli > 0.0 && rng_.chance(cfg_.bernoulli)) drop = true;
    if (cfg_.ge_loss_in_bad > 0.0) {
      if (in_bad_) {
        if (rng_.chance(cfg_.ge_loss_in_bad)) drop = true;
        if (rng_.chance(cfg_.ge_p_bad_to_good)) in_bad_ = false;
      } else {
        if (cfg_.ge_loss_in_good > 0.0 && rng_.chance(cfg_.ge_loss_in_good)) {
          drop = true;
        }
        if (rng_.chance(cfg_.ge_p_good_to_bad)) in_bad_ = true;
      }
    }
    return drop;
  }

 private:
  LossConfig cfg_;
  sim::Rng rng_;
  bool in_bad_ = false;
};

}  // namespace hvc::channel
