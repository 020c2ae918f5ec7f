#include "transport/hvc_cc.hpp"

#include <algorithm>
#include <cmath>

namespace hvc::transport {

namespace {

/// Period over which each channel's share of delivered bytes is measured.
constexpr sim::Duration kRateEpoch = sim::milliseconds(100);

}  // namespace

HvcAwareCc::HvcAwareCc() : btl_bw_filter_(Bbr::kBwWindowRounds) {}

double HvcAwareCc::btl_bw_bps() const { return btl_bw_filter_.get(); }

sim::Duration HvcAwareCc::weighted_rtt() const {
  double weight_sum = 0.0;
  double weighted = 0.0;
  for (const auto& c : ch_) {
    if (!c.seen) continue;
    const double rtt = c.rtt_min.get();
    if (!std::isfinite(rtt)) continue;
    // Weight by the channel's observed share of delivered bytes; give a
    // small floor so a newly seen channel still participates.
    const double w = std::max(c.rate_bps, 1e3);
    weighted += w * rtt;
    weight_sum += w;
  }
  if (weight_sum <= 0.0) return srtt_;
  return static_cast<sim::Duration>(weighted / weight_sum);
}

std::int64_t HvcAwareCc::cwnd_bytes() const {
  const double bw = btl_bw_bps();
  if (bw <= 0.0) return Bbr::kInitialCwnd;
  const auto bdp = static_cast<std::int64_t>(
      bw / 8.0 * sim::to_seconds(weighted_rtt()));
  return std::max(static_cast<std::int64_t>(Bbr::kCwndGain *
                                            static_cast<double>(bdp)),
                  Bbr::kMinCwnd);
}

double HvcAwareCc::pacing_rate_bps() const {
  const double bw = btl_bw_bps();
  if (bw <= 0.0) {
    return pacing_gain_ * static_cast<double>(Bbr::kInitialCwnd) * 8.0 /
           sim::to_seconds(sim::milliseconds(100));
  }
  return pacing_gain_ * bw;
}

void HvcAwareCc::roll_epoch(sim::Time now) {
  if (now - epoch_start_ < kRateEpoch) return;
  const double secs = sim::to_seconds(now - epoch_start_);
  for (auto& c : ch_) {
    if (!c.seen) continue;
    const double rate = static_cast<double>(c.epoch_bytes) * 8.0 / secs;
    c.rate_bps = c.rate_bps <= 0.0 ? rate : 0.3 * rate + 0.7 * c.rate_bps;
    c.epoch_bytes = 0;
  }
  epoch_start_ = now;
}

void HvcAwareCc::on_ack(const AckEvent& ev) {
  const std::size_t idx =
      ev.channel < kMaxChannels ? ev.channel : 0;
  auto& pc = ch_[idx];
  pc.seen = true;
  if (ev.rtt > 0) {
    pc.rtt_min.update(ev.now, static_cast<double>(ev.rtt));
    srtt_ = (7 * srtt_ + ev.rtt) / 8;
  }
  pc.epoch_bytes += ev.acked_bytes;
  roll_epoch(ev.now);

  if (ev.delivery_rate_bps > 0.0 &&
      (!ev.app_limited || ev.delivery_rate_bps > btl_bw_bps())) {
    btl_bw_filter_.update(ev.round_trips, ev.delivery_rate_bps);
  }

  if (!filled_pipe_) {
    const double bw = btl_bw_bps();
    if (bw >= full_bw_ * 1.25) {
      full_bw_ = bw;
      full_bw_count_ = 0;
    } else if (++full_bw_count_ >= 3) {
      filled_pipe_ = true;
    }
  }

  switch (mode_) {
    case Mode::kStartup:
      pacing_gain_ = Bbr::kStartupGain;
      if (filled_pipe_) {
        mode_ = Mode::kDrain;
        pacing_gain_ = Bbr::kDrainGain;
      }
      break;
    case Mode::kDrain: {
      const double bw = btl_bw_bps();
      const auto bdp = static_cast<std::int64_t>(
          bw / 8.0 * sim::to_seconds(weighted_rtt()));
      if (ev.bytes_in_flight <= bdp) {
        mode_ = Mode::kProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = ev.now;
        pacing_gain_ = Bbr::kCycleGains[cycle_index_];
      }
      break;
    }
    case Mode::kProbeBw:
      if (ev.now - cycle_stamp_ > weighted_rtt()) {
        cycle_index_ = (cycle_index_ + 1) % 8;
        cycle_stamp_ = ev.now;
        pacing_gain_ = Bbr::kCycleGains[cycle_index_];
      }
      break;
  }
}

void HvcAwareCc::on_loss(const LossEvent& ev) {
  if (ev.is_rto) {
    btl_bw_filter_.reset();
    full_bw_ = 0.0;
    full_bw_count_ = 0;
    filled_pipe_ = false;
    mode_ = Mode::kStartup;
    pacing_gain_ = Bbr::kStartupGain;
  }
}

}  // namespace hvc::transport
