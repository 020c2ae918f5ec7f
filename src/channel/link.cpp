#include "channel/link.hpp"

#include <algorithm>

#include "obs/prof.hpp"

namespace hvc::channel {

using net::PacketPtr;
using sim::Duration;
using sim::Time;

namespace {

/// Max unused credit carried across opportunities (bytes mode).
constexpr std::int64_t kMaxCreditBytes = 2 * net::kMtuBytes;

}  // namespace

Link::Link(sim::Simulator& sim, LinkConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      loss_(cfg_.loss, sim::Rng(cfg_.loss_seed)),
      recent_window_(cfg_.capacity),
      cursor_(cfg_.capacity) {
  avg_rate_bps_ = cfg_.capacity.average_rate_bps();
  auto& reg = obs::MetricsRegistry::current();
  const std::string prefix = "link." + cfg_.name + ".";
  m_delivered_ = &reg.counter(prefix + "delivered_packets");
  m_delivered_bytes_ = &reg.counter(prefix + "delivered_bytes");
  m_dropped_queue_ = &reg.counter(prefix + "dropped_queue");
  m_dropped_wire_ = &reg.counter(prefix + "dropped_wire");

  probes_.add("link", prefix + "queued_bytes",
              [this] { return static_cast<double>(queued_bytes_); });
  probes_.add("link", prefix + "dropped_packets", [this] {
    return static_cast<double>(stats_.dropped_queue_packets +
                               stats_.dropped_wire_packets);
  });
  const std::string ch_prefix = "channel." + cfg_.name + ".";
  // The same estimates steering policies read through ChannelView, so a
  // telemetry plot shows exactly what the policy was deciding on.
  probes_.add("channel", ch_prefix + "est_delay_ms", [this] {
    const sim::Duration d = estimated_delivery_delay(net::kMtuBytes);
    return d == sim::kTimeNever ? -1.0 : sim::to_millis(d);
  });
  probes_.add("channel", ch_prefix + "rate_mbps",
              [this] { return recent_delivery_rate_bps() / 1e6; });
  probes_.add("channel", ch_prefix + "loss_rate", [this] {
    const std::int64_t attempted =
        stats_.delivered_packets + stats_.dropped_wire_packets;
    return attempted <= 0 ? 0.0
                          : static_cast<double>(stats_.dropped_wire_packets) /
                                static_cast<double>(attempted);
  });
  // Fault state: 1 while a full outage is active, 0 otherwise. Sampled in
  // the "fault" telemetry group so blackout windows line up with the
  // queue/rate series above when reading a run's telemetry export.
  probes_.add("fault", prefix + "fault_down",
              [this] { return fault_down_ ? 1.0 : 0.0; });
}

Link::~Link() {
  m_delivered_->inc(stats_.delivered_packets);
  m_delivered_bytes_->inc(stats_.delivered_bytes);
  m_dropped_queue_->inc(stats_.dropped_queue_packets);
  m_dropped_wire_->inc(stats_.dropped_wire_packets);
}

void Link::send(PacketPtr p) {
  if (queued_bytes_ + p->size_bytes > cfg_.queue_limit_bytes &&
      !queue_.empty()) {
    ++stats_.dropped_queue_packets;
    if (auto* tr = obs::PacketTracer::active()) {
      tr->record(obs::EventKind::kDrop, sim_.now(), p->id, p->flow,
                 trace_channel(*p), trace_direction_,
                 static_cast<std::uint32_t>(p->size_bytes),
                 obs::kDropQueueFull);
    }
    return;
  }
  queued_bytes_ += p->size_bytes;
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += p->size_bytes;
  if (auto* tr = obs::PacketTracer::active()) {
    tr->record(obs::EventKind::kEnqueue, sim_.now(), p->id, p->flow,
               trace_channel(*p), trace_direction_,
               static_cast<std::uint32_t>(p->size_bytes));
  }
  queue_.push_back(std::move(p));
  schedule_service();
}

void Link::fault_set_down(bool down) {
  if (down == fault_down_) return;
  fault_down_ = down;
  recent_rate_at_ = -1;
  if (down) {
    if (service_scheduled_) {
      sim_.cancel(service_event_);
      service_scheduled_ = false;
    }
  } else {
    schedule_service();
  }
}

void Link::fault_set_rate_scale(double scale) {
  fault_rate_scale_ = scale >= 1.0 ? 1.0 : std::max(scale, 0.0);
  fault_rate_acc_ = 0.0;
  recent_rate_at_ = -1;
}

void Link::fault_set_episode_loss(const LossConfig& cfg, std::uint64_t seed) {
  episode_loss_.emplace(cfg, sim::Rng(seed));
}

void Link::schedule_service() {
  if (service_scheduled_ || queue_.empty() || fault_down_) return;
  const Time next = cursor_.next_after(sim_.now());
  if (next == sim::kTimeNever) return;  // dead link
  service_scheduled_ = true;
  service_event_ = sim_.at(next, [this] {
    service_scheduled_ = false;
    on_opportunity();
  });
}

void Link::on_opportunity() {
  HVC_PROF_SCOPE(obs::prof::Hook::kLinkServe);
  // Rate cliff: pass only ~fault_rate_scale_ of opportunities through.
  // A deterministic credit accumulator (no RNG) keeps runs reproducible
  // and spaces served opportunities evenly across the cliff window.
  if (fault_rate_scale_ < 1.0) {
    fault_rate_acc_ += fault_rate_scale_;
    if (fault_rate_acc_ < 1.0) {
      schedule_service();
      return;
    }
    fault_rate_acc_ -= 1.0;
  }
  const std::int64_t mtu = cfg_.capacity.mtu_bytes();
  if (cfg_.mode == ServiceMode::kPacketPerOpportunity) {
    if (!queue_.empty()) {
      PacketPtr p = std::move(queue_.front());
      queue_.pop_front();
      queued_bytes_ -= p->size_bytes;
      note_dequeue(*p);
      deliver(std::move(p));
    }
  } else {
    credit_bytes_ = std::min(credit_bytes_ + mtu, kMaxCreditBytes);
    while (!queue_.empty() && queue_.front()->size_bytes <= credit_bytes_) {
      PacketPtr p = std::move(queue_.front());
      queue_.pop_front();
      credit_bytes_ -= p->size_bytes;
      queued_bytes_ -= p->size_bytes;
      note_dequeue(*p);
      deliver(std::move(p));
    }
    if (queue_.empty()) credit_bytes_ = 0;  // no hoarding while idle
  }
  schedule_service();
}

void Link::deliver(PacketPtr p) {
  const Time now = sim_.now();

  // Delivery-rate estimator: EWMA over 50 ms accounting windows.
  constexpr Duration kWindow = sim::milliseconds(50);
  if (now - rate_window_start_ >= kWindow) {
    if (rate_window_start_ > 0 || rate_window_bytes_ > 0) {
      const double window_rate =
          static_cast<double>(rate_window_bytes_) * 8.0 /
          sim::to_seconds(std::max<Duration>(now - rate_window_start_, 1));
      rate_estimate_bps_ = rate_estimate_bps_ <= 0.0
                               ? window_rate
                               : 0.3 * window_rate + 0.7 * rate_estimate_bps_;
    }
    rate_window_start_ = now;
    rate_window_bytes_ = 0;
  }
  rate_window_bytes_ += p->size_bytes;

  if (loss_.should_drop() ||
      (episode_loss_ && episode_loss_->should_drop())) {
    ++stats_.dropped_wire_packets;
    if (auto* tr = obs::PacketTracer::active()) {
      tr->record(obs::EventKind::kDrop, now, p->id, p->flow,
                 trace_channel(*p), trace_direction_,
                 static_cast<std::uint32_t>(p->size_bytes), obs::kDropWire);
    }
    return;
  }
  ++stats_.delivered_packets;
  stats_.delivered_bytes += p->size_bytes;
  if (auto* tr = obs::PacketTracer::active()) {
    tr->record(obs::EventKind::kTx, now, p->id, p->flow, trace_channel(*p),
               trace_direction_, static_cast<std::uint32_t>(p->size_bytes));
  }

  if (receiver_) {
    // Clamp so the wire stays FIFO: when fault_extra_delay_ shrinks
    // mid-flight (a delay spike ending), an unclamped later packet would
    // overtake an earlier one still in flight on this link.
    const Time rx_at = std::max(now + cfg_.prop_delay + fault_extra_delay_,
                                last_rx_at_);
    last_rx_at_ = rx_at;
    sim_.at(rx_at, [this, p = std::move(p)]() mutable {
      if (auto* tr = obs::PacketTracer::active()) {
        tr->record(obs::EventKind::kRx, sim_.now(), p->id, p->flow,
                   trace_channel(*p), trace_direction_,
                   static_cast<std::uint32_t>(p->size_bytes));
      }
      receiver_(std::move(p));
    });
  }
}

Duration Link::estimated_queue_delay() const {
  if (fault_down_) return sim::kTimeNever;
  const double rate = average_rate_bps() * fault_rate_scale_;
  if (rate <= 0.0) return sim::kTimeNever;
  const double secs = static_cast<double>(queued_bytes_) * 8.0 / rate;
  return sim::seconds_f(secs);
}

Duration Link::estimated_delivery_delay(std::int64_t bytes) const {
  if (fault_down_) return sim::kTimeNever;
  const double rate = average_rate_bps() * fault_rate_scale_;
  if (rate <= 0.0) return sim::kTimeNever;
  const double secs =
      static_cast<double>(queued_bytes_ + bytes) * 8.0 / rate;
  return sim::seconds_f(secs) + cfg_.prop_delay + fault_extra_delay_;
}

double Link::recent_delivery_rate_bps() const {
  // Capacity, not utilization: an idle link still has its full rate
  // available (measuring delivered bytes would report ~0 for an unused
  // URLLC channel and steering would never discover it). This mirrors the
  // MAC/PHY capacity hints §3.1 proposes exporting.
  if (fault_down_) return 0.0;
  if (recent_rate_at_ == sim_.now()) return recent_rate_bps_;
  constexpr sim::Duration kWindow = sim::milliseconds(200);
  const sim::Time to = std::max<sim::Time>(sim_.now(), kWindow);
  const auto opps = recent_window_.opportunities_in(to - kWindow, to);
  recent_rate_at_ = sim_.now();
  recent_rate_bps_ = static_cast<double>(opps) *
                     static_cast<double>(cfg_.capacity.mtu_bytes()) * 8.0 /
                     sim::to_seconds(kWindow) * fault_rate_scale_;
  return recent_rate_bps_;
}

}  // namespace hvc::channel
