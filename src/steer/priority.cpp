#include "steer/priority.hpp"

#include "steer/dchannel.hpp"

namespace hvc::steer {

namespace {

/// Messages with priority <= this are pinned to the accelerated channel.
constexpr std::uint8_t kAccelerateMaxPriority = 0;

/// If the fast channel's queue is fuller than this, overflow to the
/// default channel rather than build unbounded delay. The paper's video
/// scheme sizes layer 0 under URLLC capacity so this rarely triggers.
constexpr double kMaxQueueFill = 0.95;

/// Heuristic used for packets carrying no application metadata:
/// DChannel's aggressive defaults.
constexpr DChannelConfig kFallback{};

/// The accelerated channel. Lowest base delay wins; ties (e.g. TSN and
/// best-effort slices of one Wi-Fi medium) break toward the
/// reliable/deterministic channel. A down channel cannot be "fast" —
/// skip it so acceleration fails over to the next-best surviving channel.
std::size_t fast_channel(std::span<const ChannelView> channels) {
  std::size_t best = first_up_channel(channels);
  for (std::size_t i = best + 1; i < channels.size(); ++i) {
    if (channels[i].down) continue;
    if (channels[i].base_owd < channels[best].base_owd ||
        (channels[i].base_owd == channels[best].base_owd &&
         channels[i].reliable && !channels[best].reliable)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

Decision MessagePriorityPolicy::steer(const net::Packet& pkt,
                                      std::span<const ChannelView> channels,
                                      sim::Time /*now*/) {
  if (channels.size() < 2) return {0, {}, "msg-priority:single-channel"};
  // The "default" half of every accelerate-or-not decision below; during
  // a channel-0 outage it fails over to the first surviving channel.
  const bool primary_down = channels[0].down;
  const std::size_t dflt = primary_down ? first_up_channel(channels) : 0;
  const std::size_t fast = fast_channel(channels);
  if (fast == dflt) {
    return {dflt, {},
            primary_down ? "msg-priority:failover"
                         : "msg-priority:no-fast-channel"};
  }

  // Background flows (flow_priority > 0) are barred from the fast channel.
  if (pkt.flow_priority > 0) {
    return {dflt, {},
            primary_down ? "msg-priority:failover"
                         : "msg-priority:flow-priority"};
  }

  const ChannelView& fc = channels[fast];

  // ACK/control packets are accelerated too, as DChannel does.
  if (pkt.type != net::PacketType::kData) {
    if (fc.queue_fill() <= kMaxQueueFill) {
      return {fast, {}, "msg-priority:control"};
    }
    return {dflt, {},
            primary_down ? "msg-priority:failover"
                         : "msg-priority:fast-full"};
  }

  if (!pkt.app.present) {
    // No message metadata: fall back to the application-agnostic heuristic.
    const char* reason = nullptr;
    const std::size_t ch =
        dchannel_choose(pkt, channels, kFallback, &reason);
    return {ch, {}, reason};
  }

  const bool important = pkt.app.priority <= kAccelerateMaxPriority;
  const bool tail =
      cfg_.accelerate_tail_bytes > 0 &&
      pkt.app.message_bytes > pkt.app.offset &&
      pkt.app.message_bytes - pkt.app.offset <= cfg_.accelerate_tail_bytes;

  if ((important || tail) && fc.queue_fill() <= kMaxQueueFill) {
    return {fast, {},
            important ? "msg-priority:important" : "msg-priority:tail"};
  }
  return {dflt, {},
          primary_down ? "msg-priority:failover" : "msg-priority:default"};
}

}  // namespace hvc::steer
