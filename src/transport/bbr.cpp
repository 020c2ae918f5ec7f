#include "transport/bbr.hpp"

#include <algorithm>
#include <cmath>

namespace hvc::transport {

namespace {

constexpr sim::Duration kProbeRttDuration = sim::milliseconds(200);

}  // namespace

Bbr::Bbr() : btl_bw_filter_(kBwWindowRounds), rt_prop_filter_(kMinRttWindow) {}

double Bbr::btl_bw_bps() const { return btl_bw_filter_.get(); }

sim::Duration Bbr::rt_prop() const {
  const double v = rt_prop_filter_.get();
  return std::isfinite(v) ? static_cast<sim::Duration>(v)
                          : sim::milliseconds(100);
}

std::int64_t Bbr::bdp_bytes() const {
  const double bw = btl_bw_bps();
  if (bw <= 0.0) return kInitialCwnd;
  return static_cast<std::int64_t>(bw / 8.0 * sim::to_seconds(rt_prop()));
}

std::int64_t Bbr::cwnd_bytes() const {
  if (mode_ == Mode::kProbeRtt) return kMinCwnd;
  const std::int64_t target = static_cast<std::int64_t>(
      kCwndGain * static_cast<double>(bdp_bytes()));
  return std::max({target, kMinCwnd,
                   btl_bw_bps() <= 0.0 ? kInitialCwnd : 0});
}

double Bbr::pacing_rate_bps() const {
  const double bw = btl_bw_bps();
  if (bw <= 0.0) {
    // No bandwidth estimate yet: pace the initial window over the
    // (assumed) initial RTT, scaled by the startup gain.
    return pacing_gain_ * static_cast<double>(kInitialCwnd) * 8.0 /
           sim::to_seconds(sim::milliseconds(100));
  }
  return pacing_gain_ * bw;
}

void Bbr::update_btl_bw(const AckEvent& ev) {
  if (ev.delivery_rate_bps <= 0.0) return;
  // App-limited samples only count if they exceed the current estimate
  // (standard BBR rule: an app-limited flow can't underestimate the pipe).
  if (ev.app_limited && ev.delivery_rate_bps < btl_bw_bps()) return;
  btl_bw_filter_.update(ev.round_trips, ev.delivery_rate_bps);
}

void Bbr::update_rt_prop(const AckEvent& ev) {
  if (ev.rtt <= 0) return;
  const double prev = rt_prop_filter_.get();
  rt_prop_filter_.update(ev.now, static_cast<double>(ev.rtt));
  if (static_cast<double>(ev.rtt) <= prev || !std::isfinite(prev)) {
    rt_prop_stamp_ = ev.now;
  }
}

void Bbr::check_full_pipe(const AckEvent& /*ev*/) {
  if (filled_pipe_) return;
  const double bw = btl_bw_bps();
  if (bw >= full_bw_ * 1.25) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= 3) filled_pipe_ = true;
}

void Bbr::advance_cycle(const AckEvent& ev) {
  if (mode_ != Mode::kProbeBw) return;
  const bool elapsed = ev.now - cycle_stamp_ > rt_prop();
  // Leave the drain phase (cycle slot 1, gain 0.75) as soon as inflight
  // has drained to BDP.
  constexpr int kDrainPhase = 1;
  const bool drained = cycle_index_ == kDrainPhase &&
                       ev.bytes_in_flight <= bdp_bytes();
  if (elapsed || drained) {
    cycle_index_ = (cycle_index_ + 1) % 8;
    cycle_stamp_ = ev.now;
    pacing_gain_ = kCycleGains[cycle_index_];
  }
}

void Bbr::maybe_enter_or_exit_probe_rtt(const AckEvent& ev) {
  const bool expired = ev.now - rt_prop_stamp_ > kMinRttWindow;
  if (mode_ != Mode::kProbeRtt && expired) {
    mode_ = Mode::kProbeRtt;
    probe_rtt_done_ = -1;
  }
  if (mode_ == Mode::kProbeRtt) {
    if (probe_rtt_done_ < 0 && ev.bytes_in_flight <= kMinCwnd) {
      probe_rtt_done_ = ev.now + kProbeRttDuration;
    }
    if (probe_rtt_done_ >= 0 && ev.now >= probe_rtt_done_) {
      rt_prop_stamp_ = ev.now;
      mode_ = filled_pipe_ ? Mode::kProbeBw : Mode::kStartup;
      pacing_gain_ = mode_ == Mode::kProbeBw ? kCycleGains[cycle_index_]
                                             : kStartupGain;
      cycle_stamp_ = ev.now;
    }
  }
}

void Bbr::on_ack(const AckEvent& ev) {
  update_btl_bw(ev);
  update_rt_prop(ev);
  check_full_pipe(ev);

  switch (mode_) {
    case Mode::kStartup:
      pacing_gain_ = kStartupGain;
      if (filled_pipe_) {
        mode_ = Mode::kDrain;
        pacing_gain_ = kDrainGain;
      }
      break;
    case Mode::kDrain:
      if (ev.bytes_in_flight <= bdp_bytes()) {
        mode_ = Mode::kProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = ev.now;
        pacing_gain_ = kCycleGains[cycle_index_];
      }
      break;
    case Mode::kProbeBw:
      advance_cycle(ev);
      break;
    case Mode::kProbeRtt:
      break;
  }
  maybe_enter_or_exit_probe_rtt(ev);
}

void Bbr::on_loss(const LossEvent& ev) {
  // BBRv1 mostly ignores loss; on RTO it conservatively restarts the model.
  if (ev.is_rto) {
    btl_bw_filter_.reset();
    full_bw_ = 0.0;
    full_bw_count_ = 0;
    filled_pipe_ = false;
    mode_ = Mode::kStartup;
    pacing_gain_ = kStartupGain;
  }
}

}  // namespace hvc::transport
