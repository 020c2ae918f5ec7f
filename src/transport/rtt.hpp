// RFC 6298-style RTT estimation and retransmission-timeout computation.
#pragma once

#include <algorithm>

#include "sim/units.hpp"

namespace hvc::transport {

class RttEstimator {
 public:
  void add_sample(sim::Duration rtt) {
    if (rtt <= 0) return;
    if (!has_sample_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      has_sample_ = true;
    } else {
      const sim::Duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
      rttvar_ = (3 * rttvar_ + err) / 4;       // beta = 1/4
      srtt_ = (7 * srtt_ + rtt) / 8;           // alpha = 1/8
    }
  }

  [[nodiscard]] bool has_sample() const { return has_sample_; }
  [[nodiscard]] sim::Duration srtt() const { return srtt_; }
  [[nodiscard]] sim::Duration rttvar() const { return rttvar_; }

  [[nodiscard]] sim::Duration rto() const {
    if (!has_sample_) return sim::seconds(1);
    const sim::Duration raw = srtt_ + std::max(kGranularity, 4 * rttvar_);
    return std::clamp(raw, kMinRto, kMaxRto);
  }

  /// Hard ceiling on the timeout, backed-off ones included. Bounds the
  /// probe interval through long blackouts (fault injection, §3's
  /// flapping channels): backoff doubles up to this, never past it.
  static constexpr sim::Duration kMaxRto = sim::seconds(60);

 private:
  static constexpr sim::Duration kGranularity = sim::milliseconds(1);
  static constexpr sim::Duration kMinRto = sim::milliseconds(200);

  bool has_sample_ = false;
  sim::Duration srtt_ = 0;
  sim::Duration rttvar_ = 0;
};

}  // namespace hvc::transport
