// A bidirectional virtual channel (a pair of Links) and HvcSet, the bundle
// of parallel heterogeneous channels between two endpoints that steering
// policies choose among.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/link.hpp"
#include "channel/profile.hpp"

namespace hvc::channel {

enum class Direction : std::uint8_t { kDownlink, kUplink };

/// One virtual channel: server→client (down) and client→server (up) links
/// sharing a profile.
class Channel {
 public:
  Channel(sim::Simulator& sim, ChannelProfile profile);

  [[nodiscard]] Link& link(Direction d) {
    return d == Direction::kDownlink ? down_ : up_;
  }
  [[nodiscard]] const Link& link(Direction d) const {
    return d == Direction::kDownlink ? down_ : up_;
  }
  [[nodiscard]] Link& downlink() { return down_; }
  [[nodiscard]] Link& uplink() { return up_; }

  [[nodiscard]] const ChannelProfile& profile() const { return profile_; }
  [[nodiscard]] const std::string& name() const { return profile_.name; }

 private:
  ChannelProfile profile_;
  Link down_;
  Link up_;
};

/// An ordered set of channels between the same endpoint pair. Index 0 is,
/// by convention, the default/high-bandwidth channel (eMBB-like) — every
/// steering policy falls back to it.
class HvcSet {
 public:
  explicit HvcSet(sim::Simulator& sim) : sim_(&sim) {}

  /// Add a channel; returns its index.
  std::size_t add(ChannelProfile profile);

  [[nodiscard]] std::size_t size() const { return channels_.size(); }
  [[nodiscard]] Channel& at(std::size_t i) { return *channels_.at(i); }
  [[nodiscard]] const Channel& at(std::size_t i) const {
    return *channels_.at(i);
  }

 private:
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace hvc::channel
