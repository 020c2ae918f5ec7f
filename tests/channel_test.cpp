// Tests for link emulation: service rate, queueing delay, droptail, loss
// models, and channel profiles.
#include <gtest/gtest.h>

#include <vector>

#include "channel/channel.hpp"
#include "channel/link.hpp"
#include "channel/loss.hpp"
#include "channel/profile.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace hvc::channel {
namespace {

using net::make_packet;
using net::PacketPtr;
using sim::milliseconds;
using sim::seconds;

PacketPtr data_packet(std::int64_t size, net::FlowId flow = 1) {
  auto p = make_packet();
  p->flow = flow;
  p->size_bytes = size;
  p->tp.len = static_cast<std::uint32_t>(size - net::kHeaderBytes);
  return p;
}

LinkConfig basic_config(sim::RateBps rate, sim::Duration delay) {
  LinkConfig cfg;
  cfg.capacity = trace::CapacityTrace::constant(rate);
  cfg.prop_delay = delay;
  return cfg;
}

TEST(Link, DeliversWithPropagationDelay) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(10)));
  sim::Time delivered_at = -1;
  link.set_receiver([&](PacketPtr) { delivered_at = s.now(); });
  link.send(data_packet(1500));
  s.run();
  // 1 ms serialization slot + 10 ms propagation.
  EXPECT_EQ(delivered_at, milliseconds(11));
}

TEST(Link, ServiceRateMatchesTrace) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 3000; ++i) link.send(data_packet(1500));
  s.run_until(seconds(1));
  // 12 Mbps = 1000 MTU/s; allow the boundary opportunity.
  EXPECT_GE(delivered, 999);
  EXPECT_LE(delivered, 1001);
}

TEST(Link, SmallPacketsShareOpportunityInBytesMode) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  // 30 ACK-sized packets (50 B each) fit in one 1500 B opportunity.
  for (int i = 0; i < 30; ++i) link.send(data_packet(50));
  s.run_until(milliseconds(1));
  EXPECT_EQ(delivered, 30);
}

TEST(Link, PacketPerOpportunityModeIsStrict) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(12), 0);
  cfg.mode = ServiceMode::kPacketPerOpportunity;
  Link link(s, cfg);
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 30; ++i) link.send(data_packet(50));
  s.run_until(milliseconds(5));
  EXPECT_EQ(delivered, 5);  // one per opportunity regardless of size
}

TEST(Link, DropTailWhenQueueFull) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(2), 0);
  cfg.queue_limit_bytes = 15000;  // 10 packets
  Link link(s, cfg);
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 100; ++i) link.send(data_packet(1500));
  s.run();
  const std::int64_t dropped = link.stats().dropped_queue_packets;
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(delivered + dropped, 100);
}

TEST(Link, FifoOrderPreserved) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(5)));
  std::vector<std::uint64_t> order;
  link.set_receiver([&](PacketPtr p) { order.push_back(p->id); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    auto p = data_packet(1500);
    sent.push_back(p->id);
    link.send(std::move(p));
  }
  s.run();
  EXPECT_EQ(order, sent);
}

TEST(Link, QueueDelayGrowsWithBacklog) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), 0));
  for (int i = 0; i < 100; ++i) link.send(data_packet(1500));
  // 100 packets at 1 ms each -> ~100 ms estimated queue delay.
  const auto est = link.estimated_queue_delay();
  EXPECT_NEAR(sim::to_millis(est), 100.0, 5.0);
}

TEST(Link, EstimatedDeliveryDelayIncludesPropagation) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(12), milliseconds(25)));
  const auto est = link.estimated_delivery_delay(1500);
  EXPECT_NEAR(sim::to_millis(est), 26.0, 1.0);
}

TEST(Link, ConservationNoLossNoDrops) {
  sim::Simulator s;
  Link link(s, basic_config(sim::mbps(60), milliseconds(5)));
  std::int64_t delivered_bytes = 0;
  link.set_receiver([&](PacketPtr p) { delivered_bytes += p->size_bytes; });
  std::int64_t sent_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t size = 100 + (i % 14) * 100;
    sent_bytes += size;
    link.send(data_packet(size));
  }
  s.run();
  EXPECT_EQ(delivered_bytes, sent_bytes);
  EXPECT_EQ(link.stats().delivered_packets, 500);
}

TEST(LossModel, BernoulliRateApproximatelyRespected) {
  LossModel m({.bernoulli = 0.1}, sim::Rng(77));
  int drops = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (m.should_drop()) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.1, 0.01);
}

TEST(LossModel, LosslessNeverDrops) {
  LossModel m(LossConfig{}, sim::Rng(1));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m.should_drop());
}

TEST(LossModel, GilbertElliottBursts) {
  LossConfig cfg;
  cfg.ge_p_good_to_bad = 0.01;
  cfg.ge_p_bad_to_good = 0.2;
  cfg.ge_loss_in_bad = 0.5;
  LossModel m(cfg, sim::Rng(5));
  // Measure burstiness: conditional drop probability after a drop should
  // exceed the marginal drop probability.
  int drops = 0;
  int after_drop = 0;
  int after_drop_drops = 0;
  bool prev = false;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const bool d = m.should_drop();
    if (prev) {
      ++after_drop;
      if (d) ++after_drop_drops;
    }
    if (d) ++drops;
    prev = d;
  }
  const double marginal = static_cast<double>(drops) / kTrials;
  const double conditional =
      static_cast<double>(after_drop_drops) / after_drop;
  EXPECT_GT(conditional, marginal * 1.5);
}

TEST(Link, WireLossCountsSeparatelyFromQueueDrops) {
  sim::Simulator s;
  auto cfg = basic_config(sim::mbps(60), 0);
  cfg.loss.bernoulli = 0.2;
  cfg.loss_seed = 3;
  Link link(s, cfg);
  int delivered = 0;
  link.set_receiver([&](PacketPtr) { ++delivered; });
  for (int i = 0; i < 1000; ++i) link.send(data_packet(1500));
  s.run();
  EXPECT_EQ(link.stats().dropped_queue_packets, 0);
  EXPECT_GT(link.stats().dropped_wire_packets, 120);
  EXPECT_LT(link.stats().dropped_wire_packets, 280);
  EXPECT_EQ(delivered + link.stats().dropped_wire_packets, 1000);
}

TEST(ChannelProfiles, UrllcMatchesPaperNumbers) {
  const auto p = urllc_profile();
  EXPECT_EQ(p.rtt(), milliseconds(5) / 1 * 1);  // 5 ms RTT
  EXPECT_NEAR(p.capacity_down.average_rate_bps(), 2e6, 2e4);
  EXPECT_TRUE(p.reliable);
}

TEST(ChannelProfiles, EmbbConstantMatchesFig1Setup) {
  const auto p = embb_constant_profile();
  EXPECT_EQ(p.rtt(), milliseconds(50));
  EXPECT_NEAR(p.capacity_down.average_rate_bps(), 60e6, 60e4);
  EXPECT_FALSE(p.reliable);
}

TEST(Link, TraceDrivenOutageStallsDelivery) {
  sim::Simulator s;
  // 100 ms of service, then a 500 ms gap, looping each second.
  std::vector<sim::Time> opps;
  for (int ms = 0; ms < 100; ++ms) opps.push_back(milliseconds(ms));
  for (int ms = 600; ms < 1000; ++ms) opps.push_back(milliseconds(ms));
  LinkConfig cfg;
  cfg.capacity = trace::CapacityTrace::from_opportunities(opps, seconds(1));
  cfg.prop_delay = 0;
  Link link(s, cfg);
  std::vector<sim::Time> arrivals;
  link.set_receiver([&](PacketPtr) { arrivals.push_back(s.now()); });

  // Offer a packet at t=150 ms (inside the outage window).
  s.at(milliseconds(150), [&] { link.send(data_packet(1500)); });
  s.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], milliseconds(600));
}

}  // namespace
}  // namespace hvc::channel
