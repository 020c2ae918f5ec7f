#include "transport/vivace.hpp"

#include <algorithm>
#include <cmath>

namespace hvc::transport {

namespace {

constexpr double kExponent = 0.9;        ///< t in x^t (x in Mbps)
constexpr double kRttGradCoeff = 900.0;  ///< b
constexpr double kLossCoeff = 11.35;     ///< c
constexpr double kProbeEps = 0.05;
constexpr double kInitialRateBps = 2e6;
constexpr double kMinRateBps = 0.2e6;
constexpr double kMaxRateBps = 500e6;
/// Gradient-to-rate conversion (delta Mbps per unit utility gradient),
/// with confidence amplification folded into simple step clamping.
constexpr double kStepScale = 0.1;
constexpr double kMaxStepFrac = 0.25;  ///< max relative rate change per pair

}  // namespace

Vivace::Vivace() : rate_bps_(kInitialRateBps) {}

sim::Duration Vivace::mi_duration() const {
  // One MI ~ 1 RTT, floored so an MI always spans several packets.
  return std::max<sim::Duration>(srtt_, sim::milliseconds(10));
}

double Vivace::MonitorInterval::utility() const {
  const double duration =
      sim::to_seconds(std::max<sim::Duration>(end - start, 1));
  const double goodput_mbps =
      static_cast<double>(acked_bytes) * 8.0 / duration / 1e6;
  const double sent_mbps = rate_bps / 1e6;
  const double loss_frac =
      acked_bytes + lost_bytes > 0
          ? static_cast<double>(lost_bytes) /
                static_cast<double>(acked_bytes + lost_bytes)
          : 0.0;

  // RTT gradient via least-squares slope over the MI's samples (seconds
  // of RTT per second of time).
  double slope = 0.0;
  if (rtt_samples.size() >= 2) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto& [t, r] : rtt_samples) {
      const double x = sim::to_seconds(t - start);
      const double y = r / 1e9;
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const auto n = static_cast<double>(rtt_samples.size());
    const double denom = n * sxx - sx * sx;
    if (denom > 1e-12) slope = (n * sxy - sx * sy) / denom;
  }

  const double x = goodput_mbps > 0 ? goodput_mbps : 1e-3;
  return std::pow(x, kExponent) -
         kRttGradCoeff * sent_mbps * std::max(0.0, slope) -
         kLossCoeff * sent_mbps * loss_frac;
}

void Vivace::ensure_current(sim::Time now) {
  if (mis_.empty() || mis_.back().end != 0) {
    MonitorInterval mi;
    mi.start = now;
    mi.sign = mis_.empty() ? +1 : -mis_.back().sign;
    mi.rate_bps = rate_bps_ * (1.0 + mi.sign * kProbeEps);
    mis_.push_back(mi);
  }
}

void Vivace::roll_interval(sim::Time now) {
  ensure_current(now);
  MonitorInterval& cur = mis_.back();
  if (now - cur.start < mi_duration()) return;
  cur.end = now;
  cur.lag = srtt_;
  ensure_current(now);
  // Bound memory if acks stall entirely.
  while (mis_.size() > 16) mis_.pop_front();
}

void Vivace::finalize_ready(sim::Time now) {
  while (!mis_.empty()) {
    MonitorInterval& front = mis_.front();
    if (front.end == 0 || now < front.end + front.lag) break;
    const double u = front.utility();
    if (front.sign > 0) {
      utility_plus_ = u;
      have_plus_ = true;
    } else if (have_plus_) {
      const double d_rate_mbps = 2.0 * kProbeEps * rate_bps_ / 1e6;
      if (d_rate_mbps > 1e-9) {
        const double grad = (utility_plus_ - u) / d_rate_mbps;
        double step_mbps = kStepScale * grad;
        const double cap = kMaxStepFrac * rate_bps_ / 1e6;
        step_mbps = std::clamp(step_mbps, -cap, cap);
        rate_bps_ = std::clamp(rate_bps_ + step_mbps * 1e6,
                               kMinRateBps, kMaxRateBps);
      }
      have_plus_ = false;
    }
    mis_.pop_front();
  }
}

void Vivace::attribute_ack(const AckEvent& ev) {
  // An ack at time T is evidence for the MI whose lag-shifted measurement
  // window [start+lag, end+lag) contains T (the sending MI uses srtt as a
  // provisional lag while open).
  for (auto& mi : mis_) {
    const sim::Duration lag = mi.end == 0 ? srtt_ : mi.lag;
    const sim::Time lo = mi.start + lag;
    const sim::Time hi = mi.end == 0 ? sim::kTimeNever : mi.end + lag;
    if (ev.now >= lo && ev.now < hi) {
      mi.acked_bytes += ev.acked_bytes;
      if (ev.rtt > 0) {
        mi.rtt_samples.emplace_back(ev.now, static_cast<double>(ev.rtt));
      }
      return;
    }
  }
}

void Vivace::on_packet_sent(sim::Time now, std::int64_t /*bytes*/,
                            std::int64_t /*in_flight*/) {
  roll_interval(now);
  finalize_ready(now);
}

void Vivace::on_ack(const AckEvent& ev) {
  if (ev.rtt > 0) srtt_ = (7 * srtt_ + ev.rtt) / 8;
  roll_interval(ev.now);
  attribute_ack(ev);
  finalize_ready(ev.now);
}

void Vivace::on_loss(const LossEvent& ev) {
  // Losses are detected roughly where acks are arriving: attribute to the
  // same lag-shifted window.
  for (auto& mi : mis_) {
    const sim::Duration lag = mi.end == 0 ? srtt_ : mi.lag;
    const sim::Time lo = mi.start + lag;
    const sim::Time hi = mi.end == 0 ? sim::kTimeNever : mi.end + lag;
    if (ev.now >= lo && ev.now < hi) {
      mi.lost_bytes += ev.lost_bytes;
      return;
    }
  }
}

std::int64_t Vivace::cwnd_bytes() const {
  // 2x the rate-delay product so pacing, not the window, governs.
  const double rate = pacing_rate_bps();
  const double bytes = 2.0 * rate / 8.0 * sim::to_seconds(srtt_) + 4 * kMss;
  return static_cast<std::int64_t>(bytes);
}

double Vivace::pacing_rate_bps() const {
  if (!mis_.empty() && mis_.back().end == 0) return mis_.back().rate_bps;
  return rate_bps_;
}

}  // namespace hvc::transport
