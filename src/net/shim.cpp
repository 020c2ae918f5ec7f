#include "net/shim.hpp"

#include "obs/audit.hpp"
#include "obs/prof.hpp"
#include "obs/tracer.hpp"

namespace hvc::net {

Shim::Shim(sim::Simulator& sim, channel::HvcSet& channels,
           channel::Direction direction,
           std::unique_ptr<steer::SteeringPolicy> policy)
    : sim_(sim),
      channels_(channels),
      direction_(direction),
      policy_(std::move(policy)) {
  stats_.packets_per_channel.assign(channels_.size(), 0);
  stats_.bytes_per_channel.assign(channels_.size(), 0);
  decisions_.assign(channels_.size(), 0);
  auto& reg = obs::MetricsRegistry::current();
  const std::string dir =
      direction_ == channel::Direction::kUplink ? "up" : "down";
  const std::string shim_prefix = "shim." + dir + ".ch";
  policy_name_ = policy_->name();
  const std::string policy_prefix =
      "steer." + policy_name_ + "." + dir + ".decisions.ch";
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const std::string ch = std::to_string(i);
    m_packets_.push_back(&reg.counter(shim_prefix + ch + ".packets"));
    m_bytes_.push_back(&reg.counter(shim_prefix + ch + ".bytes"));
    m_decisions_.push_back(&reg.counter(policy_prefix + ch));
    // Telemetry mirror of decisions_: a running per-channel share curve
    // (decision counts over sim time) for the current policy.
    probes_.add("steer",
                "steer." + policy_name_ + "." + dir + ".ch" + ch +
                    ".decisions",
                [this, i] { return static_cast<double>(decisions_[i]); });
  }
  m_duplicates_ = &reg.counter("shim." + dir + ".duplicates");
}

Shim::~Shim() {
  for (std::size_t i = 0; i < m_packets_.size(); ++i) {
    m_packets_[i]->inc(stats_.packets_per_channel[i]);
    m_bytes_[i]->inc(stats_.bytes_per_channel[i]);
    m_decisions_[i]->inc(decisions_[i]);
  }
  m_duplicates_->inc(stats_.duplicates_sent);
}

std::span<const steer::ChannelView> Shim::snapshot_views() const {
  // An HvcSet only ever appends channels and a channel's profile never
  // changes, so a view's constants are filled once, when its channel
  // first shows up; a decision refreshes only what moves.
  for (std::size_t i = views_.size(); i < channels_.size(); ++i) {
    const auto& ch = channels_.at(i);
    const channel::ChannelProfile& profile = ch.profile();
    steer::ChannelView v;
    v.index = i;
    v.base_owd = profile.owd;
    v.avg_rate_bps = ch.link(direction_).average_rate_bps();
    v.queue_limit_bytes = profile.queue_limit_bytes;
    v.loss_rate = profile.loss.bernoulli +
                  profile.loss.ge_loss_in_bad *
                      (profile.loss.ge_p_good_to_bad > 0 ? 0.1 : 0.0);
    v.reliable = profile.reliable;
    v.cost_per_megabyte = profile.cost_per_megabyte;
    views_.push_back(v);
  }
  for (steer::ChannelView& v : views_) {
    const auto& link = channels_.at(v.index).link(direction_);
    v.recent_rate_bps = link.recent_delivery_rate_bps();
    v.queued_bytes = link.queued_bytes();
    // Link-down state is observable at the shim (the MAC reports loss of
    // signal immediately); policies use it to fail over.
    v.down = link.fault_down();
  }
  return views_;
}

void Shim::send(PacketPtr p) {
  HVC_PROF_SCOPE(obs::prof::Hook::kSteer);
  const auto views = snapshot_views();

  steer::Decision decision;
  // What the policy was allowed to see (post layering enforcement) — the
  // audit log records these, not the packet's true fields.
  std::uint8_t seen_flow_prio = p->flow_priority;
  std::int16_t seen_app_prio =
      p->app.present ? static_cast<std::int16_t>(p->app.priority) : -1;
  if (policy_->uses_app_info() && policy_->uses_flow_priority()) {
    decision = policy_->steer(*p, views, sim_.now());
  } else {
    // Enforce layering: blank the fields the policy may not read for
    // the duration of the call, then restore them. (This used to take
    // a deep copy of the packet — sack vector and all — per decision;
    // the policy sees identical bytes either way.)
    const AppHeader saved_app = p->app;
    const std::uint8_t saved_flow_prio = p->flow_priority;
    if (!policy_->uses_app_info()) {
      p->app = AppHeader{};
      seen_app_prio = -1;
    }
    if (!policy_->uses_flow_priority()) {
      p->flow_priority = 0;
      seen_flow_prio = 0;
    }
    decision = policy_->steer(*p, views, sim_.now());
    p->app = saved_app;
    p->flow_priority = saved_flow_prio;
  }

  if (decision.channel >= channels_.size()) decision.channel = 0;

  const std::uint8_t dir8 = direction_ == channel::Direction::kUplink
                                ? obs::kDirUp
                                : obs::kDirDown;
  if (auto* tr = obs::PacketTracer::active()) {
    tr->record(obs::EventKind::kSteer, sim_.now(), p->id, p->flow,
               static_cast<std::uint8_t>(decision.channel), dir8,
               static_cast<std::uint32_t>(p->size_bytes),
               static_cast<std::uint8_t>(decision.duplicate_on.size()));
  }

  if (auto* al = obs::SteeringAuditLog::active()) {
    obs::AuditRecord rec;
    rec.at = sim_.now();
    rec.packet_id = p->id;
    rec.flow_id = p->flow;
    rec.size_bytes = static_cast<std::uint32_t>(p->size_bytes);
    rec.packet_type = static_cast<std::uint8_t>(p->type);
    rec.flow_priority = seen_flow_prio;
    rec.app_priority = seen_app_prio;
    rec.direction = dir8;
    rec.chosen = static_cast<std::uint8_t>(decision.channel);
    rec.duplicates = static_cast<std::uint8_t>(decision.duplicate_on.size());
    rec.reason = decision.reason;
    rec.policy = policy_name_;
    // Audit records only exist when the steering audit log is enabled (off in perf runs)
    rec.channels.reserve(views.size());
    for (const auto& v : views) {
      // Appends into the reserve()d capacity above; never reallocates
      rec.channels.push_back(
          {v.queued_bytes,
           sim::to_millis(v.est_delivery_delay(p->size_bytes))});
    }
    al->record(std::move(rec));
  }

  for (const std::size_t dup : decision.duplicate_on) {
    if (dup >= channels_.size() || dup == decision.channel) continue;
    if (p->dup_group == 0) p->dup_group = p->id;
    PacketPtr copy = clone_packet(*p);
    copy->copies = 2;
    copy->channel = static_cast<std::uint8_t>(dup);
    p->copies = 2;
    ++stats_.duplicates_sent;
    ++stats_.packets_per_channel[dup];
    stats_.bytes_per_channel[dup] += copy->size_bytes;
    channels_.at(dup).link(direction_).send(std::move(copy));
  }

  p->channel = static_cast<std::uint8_t>(decision.channel);
  ++stats_.packets_per_channel[decision.channel];
  stats_.bytes_per_channel[decision.channel] += p->size_bytes;
  ++decisions_[decision.channel];
  channels_.at(decision.channel).link(direction_).send(std::move(p));
}

}  // namespace hvc::net
