#include "steer/flow_binding.hpp"

namespace hvc::steer {

namespace {

/// Flows with flow_priority <= this bind to the low-latency channel;
/// the rest bind to the high-bandwidth channel. (IANS would derive this
/// from socket intents; flow_priority is our wire encoding of them.)
constexpr std::uint8_t kLatencySensitiveMaxPriority = 0;

}  // namespace

Decision FlowBindingPolicy::steer(const net::Packet& pkt,
                                  std::span<const ChannelView> channels,
                                  sim::Time /*now*/) {
  if (channels.size() < 2) return {0, {}, "flow-binding:single-channel"};

  // Identify the low-latency channel once per decision (cheap scan).
  std::size_t fast = 0;
  for (std::size_t i = 1; i < channels.size(); ++i) {
    if (channels[i].base_owd < channels[fast].base_owd) fast = i;
  }
  const std::size_t wide = fast == 0 ? 1 : 0;

  // Keep the table bounded for very long experiment runs (bindings of
  // finished flows are simply re-derived if a flow id ever recurs).
  if (flows_.size() > 16384) flows_.clear();
  auto [fs_ptr, inserted] = flows_.try_emplace(pkt.flow);
  FlowState& fs = *fs_ptr;
  if (inserted) {
    // Bind at first sight, from the flow's declared intent.
    fs.channel =
        pkt.flow_priority <= kLatencySensitiveMaxPriority ? fast : wide;
  }

  // IANS-style demand escape hatch: a "latency sensitive" flow that turns
  // out to be big is re-bound to the wide channel (whole-flow move, still
  // flow granularity — never per-packet).
  bool rebound = false;
  if (cfg_.max_bytes_on_fast_channel > 0 && fs.channel == fast) {
    fs.bytes_seen += pkt.size_bytes;
    if (fs.bytes_seen > cfg_.max_bytes_on_fast_channel) {
      fs.channel = wide;
      rebound = true;
    }
  }
  // A down bound channel is detoured, not re-bound: the binding is the
  // flow's steady-state home and it returns there when the outage ends.
  if (channels[fs.channel].down) {
    return {first_up_channel(channels), {}, "flow-binding:failover"};
  }
  const char* reason = rebound            ? "flow-binding:rebound-wide"
                       : fs.channel == fast ? "flow-binding:bound-fast"
                                            : "flow-binding:bound-wide";
  return {fs.channel, {}, reason};
}

}  // namespace hvc::steer
