#include "steer/redundant.hpp"

namespace hvc::steer {

namespace {

/// Messages with priority <= this are mirrored (unless mirror_all).
constexpr std::uint8_t kMaxPriorityToMirror = 0;

/// Skip the mirror when its queue is fuller than this — replication must
/// degrade to single-path under load, not amplify congestion.
constexpr double kMirrorMaxQueueFill = 0.8;

}  // namespace

Decision RedundantPolicy::steer(const net::Packet& pkt,
                                std::span<const ChannelView> channels,
                                sim::Time now) {
  Decision d = base_->steer(pkt, channels, now);
  if (channels.size() < 2) return d;

  // Never leave the primary copy on a dark channel, even if the base
  // policy (possibly fault-unaware) chose one: move it to the fastest
  // surviving channel and mirror from there.
  if (d.channel < channels.size() && channels[d.channel].down) {
    d.channel = best_up_channel(channels, pkt.size_bytes);
    d.reason = "redundant:failover";
  }

  const bool qualifies =
      cfg_.mirror_all || pkt.type != net::PacketType::kData ||
      (pkt.app.present && pkt.app.priority <= kMaxPriorityToMirror);
  if (!qualifies) return d;

  // Mirror on the lowest-estimated-delay channel other than the primary.
  std::size_t mirror = SIZE_MAX;
  sim::Duration mirror_delay = sim::kTimeNever;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i == d.channel) continue;
    if (channels[i].down) continue;  // a dead mirror protects nothing
    if (channels[i].queue_fill() > kMirrorMaxQueueFill) continue;
    const auto delay = channels[i].est_delivery_delay(pkt.size_bytes);
    if (delay < mirror_delay) {
      mirror_delay = delay;
      mirror = i;
    }
  }
  if (mirror != SIZE_MAX) {
    // One-element duplicate list per redundant decision; Decision is stack-local
    d.duplicate_on.push_back(mirror);
    d.reason = "redundant:mirror";
  }
  return d;
}

}  // namespace hvc::steer
