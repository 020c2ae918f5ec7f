#include "channel/channel.hpp"

namespace hvc::channel {

namespace {

LinkConfig make_link_config(const ChannelProfile& p, Direction d,
                            std::uint64_t loss_seed) {
  LinkConfig cfg;
  cfg.name = p.name + (d == Direction::kDownlink ? "-down" : "-up");
  cfg.capacity =
      d == Direction::kDownlink ? p.capacity_down : p.capacity_up;
  cfg.prop_delay = p.owd;
  cfg.queue_limit_bytes = p.queue_limit_bytes;
  cfg.loss = p.loss;
  cfg.loss_seed = loss_seed;
  return cfg;
}

}  // namespace

Channel::Channel(sim::Simulator& sim, ChannelProfile profile)
    : profile_(std::move(profile)),
      down_(sim, make_link_config(profile_, Direction::kDownlink,
                                  profile_.loss_seed * 2 + 1)),
      up_(sim, make_link_config(profile_, Direction::kUplink,
                                profile_.loss_seed * 2 + 2)) {}

std::size_t HvcSet::add(ChannelProfile profile) {
  // Decorrelate loss processes across channels of a set.
  profile.loss_seed += 7919 * channels_.size();
  channels_.push_back(std::make_unique<Channel>(*sim_, std::move(profile)));
  const std::size_t index = channels_.size() - 1;
  // Tag the links for the lifecycle tracer and label the trace track.
  const auto ch8 = static_cast<std::uint8_t>(index);
  channels_.back()->downlink().set_trace_ids(ch8, obs::kDirDown);
  channels_.back()->uplink().set_trace_ids(ch8, obs::kDirUp);
  if (auto* tr = obs::PacketTracer::active()) {
    tr->set_channel_name(index, channels_.back()->name());
  }
  return index;
}

}  // namespace hvc::channel
