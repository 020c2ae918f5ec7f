#include "transport/cubic.hpp"

#include <algorithm>

#include "sim/units.hpp"
#include <cmath>

namespace hvc::transport {

namespace {

constexpr double kC = 0.4;     ///< cubic scaling constant (MSS units)
constexpr double kBeta = 0.7;  ///< multiplicative decrease factor
/// No HyStart exit below this window (Linux's hystart_low_window):
/// tiny-window delay signals are too noisy to act on.
constexpr std::int64_t kHystartLowWindow = 16 * kMss;
constexpr std::int64_t kInitialCwnd = 10 * kMss;
constexpr std::int64_t kMinCwnd = 2 * kMss;

}  // namespace

Cubic::Cubic() : cwnd_(kInitialCwnd) {}

double Cubic::cubic_target(sim::Time now) const {
  const double t = sim::to_seconds(now - epoch_start_);
  const double delta = t - k_;
  return kC * delta * delta * delta + w_max_mss_;
}

void Cubic::on_ack(const AckEvent& ev) {
  if (ev.rtt > 0) {
    last_srtt_ = ev.rtt;
    if (min_rtt_ == 0 || ev.rtt < min_rtt_) min_rtt_ = ev.rtt;
  }
  if (ev.acked_bytes <= 0) return;

  if (in_slow_start()) {
    // HyStart delay-based exit: leave slow start when this round's min
    // RTT rises clearly above the previous round's, instead of
    // overshooting the whole buffer and taking a multi-second
    // loss-recovery crash. Round-over-round comparison (as in Linux)
    // matters under packet steering: a lifetime-min comparison would
    // false-trigger the moment one sample rides a faster channel.
    bool exit_ss = false;
    if (ev.rtt > 0 && cwnd_ >= kHystartLowWindow) {
      if (ev.round_trips != hystart_round_) {
        prev_round_min_ = cur_round_min_;
        cur_round_min_ = 0;
        hystart_round_ = ev.round_trips;
      }
      if (cur_round_min_ == 0 || ev.rtt < cur_round_min_) {
        cur_round_min_ = ev.rtt;
      }
      if (prev_round_min_ > 0 && cur_round_min_ > 0) {
        const auto thresh = std::clamp<sim::Duration>(
            prev_round_min_ / 8, sim::milliseconds(4),
            sim::milliseconds(16));
        exit_ss = cur_round_min_ >= prev_round_min_ + thresh;
      }
    }
    if (exit_ss) {
      ssthresh_ = cwnd_;
    } else {
      cwnd_ += ev.acked_bytes;
      if (cwnd_ >= ssthresh_) cwnd_ = ssthresh_;
      return;
    }
  }

  if (epoch_start_ < 0) {
    epoch_start_ = ev.now;
    const double cwnd_mss = static_cast<double>(cwnd_) / kMss;
    if (w_max_mss_ < cwnd_mss) w_max_mss_ = cwnd_mss;
    k_ = std::cbrt((w_max_mss_ - cwnd_mss) / kC);
  }

  // Standard CUBIC: aim the window at the cubic curve one RTT ahead.
  const double target_mss =
      cubic_target(ev.now + last_srtt_);
  const double cwnd_mss = static_cast<double>(cwnd_) / kMss;
  double increment_mss;
  if (target_mss > cwnd_mss) {
    increment_mss = (target_mss - cwnd_mss) / cwnd_mss;
  } else {
    increment_mss = 0.01 / cwnd_mss;  // minimal growth when above curve
  }
  cwnd_ += static_cast<std::int64_t>(
      increment_mss * static_cast<double>(ev.acked_bytes) /
      static_cast<double>(kMss) * kMss);
  cwnd_ = std::max(cwnd_, kMinCwnd);
}

void Cubic::on_loss(const LossEvent& ev) {
  // At most one reduction per RTT (all losses in a window are one event).
  if (last_loss_ >= 0 && ev.now - last_loss_ < last_srtt_) return;
  last_loss_ = ev.now;
  prior_cwnd_ = cwnd_;
  prior_ssthresh_ = ssthresh_;
  prior_w_max_mss_ = w_max_mss_;

  const double cwnd_mss = static_cast<double>(cwnd_) / kMss;
  if (cwnd_mss < w_max_mss_) {  // fast convergence
    w_max_mss_ = cwnd_mss * (1.0 + kBeta) / 2.0;
  } else {
    w_max_mss_ = cwnd_mss;
  }
  cwnd_ = std::max(static_cast<std::int64_t>(
                       static_cast<double>(cwnd_) * kBeta),
                   kMinCwnd);
  ssthresh_ = cwnd_;
  epoch_start_ = -1;

  if (ev.is_rto) {
    ssthresh_ = std::max(cwnd_ / 2, kMinCwnd);
    cwnd_ = kMinCwnd;
    epoch_start_ = -1;
  }
}

void Cubic::on_spurious_loss(sim::Time /*now*/) {
  if (prior_cwnd_ <= 0) return;
  cwnd_ = std::max(cwnd_, prior_cwnd_);
  ssthresh_ = std::max(ssthresh_, prior_ssthresh_);
  w_max_mss_ = std::max(w_max_mss_, prior_w_max_mss_);
  epoch_start_ = -1;
  prior_cwnd_ = 0;  // one undo per reduction
}

}  // namespace hvc::transport
