#include "transport/vegas.hpp"

#include <algorithm>

namespace hvc::transport {

namespace {

// Queue backlog targets, in packets.
constexpr double kAlphaPkts = 2.0;
constexpr double kBetaPkts = 4.0;
constexpr double kGammaPkts = 1.0;  ///< slow-start exit threshold
constexpr std::int64_t kInitialCwnd = 10 * kMss;
constexpr std::int64_t kMinCwnd = 2 * kMss;

}  // namespace

Vegas::Vegas() : cwnd_(kInitialCwnd) {}

void Vegas::on_ack(const AckEvent& ev) {
  if (ev.rtt <= 0) return;
  if (base_rtt_ == 0 || ev.rtt < base_rtt_) base_rtt_ = ev.rtt;
  if (round_min_rtt_ == 0 || ev.rtt < round_min_rtt_) {
    round_min_rtt_ = ev.rtt;
  }
  if (ev.round_trips == round_marker_) return;  // adjust once per round
  round_marker_ = ev.round_trips;

  const sim::Duration rtt = round_min_rtt_ > 0 ? round_min_rtt_ : ev.rtt;
  round_min_rtt_ = 0;

  const double cwnd_pkts = static_cast<double>(cwnd_) / kMss;
  // diff = (expected - actual) * baseRTT, in packets of queue backlog.
  const double diff =
      cwnd_pkts * (static_cast<double>(rtt - base_rtt_) /
                   static_cast<double>(rtt));

  if (in_slow_start_) {
    if (diff > kGammaPkts) {
      in_slow_start_ = false;
      cwnd_ = std::max(cwnd_ - kMss, kMinCwnd);
    } else {
      cwnd_ += cwnd_ / 2;  // Vegas doubles every other RTT; approximate
    }
    return;
  }

  if (diff < kAlphaPkts) {
    cwnd_ += kMss;
  } else if (diff > kBetaPkts) {
    cwnd_ = std::max(cwnd_ - kMss, kMinCwnd);
  }
}

void Vegas::on_loss(const LossEvent& ev) {
  if (ev.is_rto) {
    cwnd_ = kMinCwnd;
    in_slow_start_ = true;
    return;
  }
  cwnd_ = std::max(
      static_cast<std::int64_t>(static_cast<double>(cwnd_) * 0.75),
      kMinCwnd);
  in_slow_start_ = false;
}

}  // namespace hvc::transport
