// PCC Vivace [22]: online-learning, rate-based congestion control.
//
// The sender partitions time into monitor intervals (MIs), alternating
// paired probes at rate*(1±eps). Each MI is scored with the Vivace utility
//   U(x) = x^t - b·x·max(0, dRTT/dt) - c·x·loss
// and the rate steps along the empirical utility gradient across the pair.
//
// Measurement is *lag-shifted*: an MI sends during [start, end) but its
// goodput/RTT evidence arrives roughly one RTT later, so each MI is scored
// from the acks landing in [start+lag, end+lag). Skipping this shift
// attributes the previous interval's acks to the current probe and inverts
// the gradient — the rate then walks deterministically to the floor.
//
// The RTT-gradient penalty is the Achilles heel under packet steering:
// channel switches manufacture large positive dRTT/dt out of thin air, so
// Vivace keeps stepping down (Fig. 1a: 1.49 Mbps).
#pragma once

#include <deque>
#include <vector>

#include "transport/cca.hpp"

namespace hvc::transport {

class Vivace final : public CcAlgorithm {
 public:
  Vivace();

  [[nodiscard]] std::string name() const override { return "vivace"; }
  void on_packet_sent(sim::Time now, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override;
  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;

  /// Vivace is purely rate-based; expose a generous window so pacing is
  /// the binding control.
  [[nodiscard]] std::int64_t cwnd_bytes() const override;
  [[nodiscard]] double pacing_rate_bps() const override;

  [[nodiscard]] double base_rate_bps() const { return rate_bps_; }

 private:
  struct MonitorInterval {
    sim::Time start = 0;
    sim::Time end = 0;          ///< 0 while still the sending interval
    sim::Duration lag = 0;      ///< measurement shift (srtt at close)
    double rate_bps = 0.0;
    int sign = +1;              ///< probe direction
    std::vector<std::pair<sim::Time, double>> rtt_samples;
    std::int64_t acked_bytes = 0;
    std::int64_t lost_bytes = 0;
    [[nodiscard]] double utility() const;
  };

  void ensure_current(sim::Time now);
  void roll_interval(sim::Time now);
  void finalize_ready(sim::Time now);
  void attribute_ack(const AckEvent& ev);
  [[nodiscard]] sim::Duration mi_duration() const;

  double rate_bps_;
  std::deque<MonitorInterval> mis_;  ///< front oldest; back = sending MI
  double utility_plus_ = 0.0;
  bool have_plus_ = false;
  sim::Duration srtt_ = sim::milliseconds(100);
};

}  // namespace hvc::transport
