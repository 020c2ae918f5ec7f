// Tests for steering policies: baselines, the DChannel heuristic, the
// cross-layer priority policy, redundancy, and cost-aware steering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "channel/profile.hpp"
#include "net/node.hpp"
#include "net/shim.hpp"
#include "sim/rng.hpp"
#include "steer/basic_policies.hpp"
#include "steer/cost_aware.hpp"
#include "steer/dchannel.hpp"
#include "steer/flow_binding.hpp"
#include "steer/priority.hpp"
#include "steer/redundant.hpp"
#include "trace/gen5g.hpp"

namespace hvc::steer {
namespace {

using net::AppHeader;
using net::Packet;
using net::PacketType;
using sim::milliseconds;

/// Two-channel view mirroring the Fig. 1 setup: eMBB (25 ms OWD, 60 Mbps)
/// and URLLC (2.5 ms OWD, 2 Mbps), with adjustable backlogs.
std::array<ChannelView, 2> fig1_views(std::int64_t embb_queue = 0,
                                      std::int64_t urllc_queue = 0) {
  ChannelView embb;
  embb.index = 0;
  embb.base_owd = sim::microseconds(25000);
  embb.avg_rate_bps = 60e6;
  embb.recent_rate_bps = 60e6;
  embb.queued_bytes = embb_queue;
  embb.queue_limit_bytes = 4 * 1024 * 1024;

  ChannelView urllc;
  urllc.index = 1;
  urllc.base_owd = sim::microseconds(2500);
  urllc.avg_rate_bps = 2e6;
  urllc.recent_rate_bps = 2e6;
  urllc.queued_bytes = urllc_queue;
  urllc.queue_limit_bytes = 64 * 1024;
  urllc.reliable = true;
  return {embb, urllc};
}

Packet data_packet(std::int64_t size) {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = size;
  return p;
}

Packet ack_packet() {
  Packet p;
  p.type = PacketType::kAck;
  p.size_bytes = net::kHeaderBytes;
  return p;
}

Packet priority_packet(std::uint8_t prio, std::int64_t size = 1200) {
  Packet p = data_packet(size);
  p.app.present = true;
  p.app.message_id = 1;
  p.app.message_bytes = 5000;
  p.app.priority = prio;
  return p;
}

TEST(ChannelViewTest, DeliveryDelayEstimate) {
  const auto v = fig1_views()[1];
  // 1500 B at 2 Mbps = 6 ms serialization + 2.5 ms OWD.
  EXPECT_NEAR(sim::to_millis(v.est_delivery_delay(1500)), 8.5, 0.1);
}

TEST(ChannelViewTest, QueueFillFraction) {
  auto v = fig1_views()[1];
  v.queued_bytes = 32 * 1024;
  EXPECT_NEAR(v.queue_fill(), 0.5, 0.01);
}

TEST(SingleChannel, AlwaysPicksConfigured) {
  SingleChannelPolicy p(1);
  const auto views = fig1_views();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.steer(data_packet(1500), views, 0).channel, 1u);
  }
}

TEST(SingleChannel, OutOfRangeFallsBackToZero) {
  SingleChannelPolicy p(7);
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(), 0).channel, 0u);
}

TEST(RoundRobin, Alternates) {
  RoundRobinPolicy p;
  const auto views = fig1_views();
  EXPECT_EQ(p.steer(data_packet(100), views, 0).channel, 0u);
  EXPECT_EQ(p.steer(data_packet(100), views, 0).channel, 1u);
  EXPECT_EQ(p.steer(data_packet(100), views, 0).channel, 0u);
}

TEST(Weighted, SplitsProportionallyToBandwidth) {
  WeightedPolicy p;
  const auto views = fig1_views();
  std::array<int, 2> counts{0, 0};
  for (int i = 0; i < 620; ++i) {
    ++counts[p.steer(data_packet(1500), views, 0).channel];
  }
  // 60:2 bandwidth ratio -> ~20 packets on URLLC out of 620.
  EXPECT_NEAR(counts[1], 20, 5);
}

TEST(MinDelay, PrefersUrllcWhenEmpty) {
  MinDelayPolicy p;
  // Empty queues: URLLC wins for a small packet (2.66 ms vs 25.2 ms).
  EXPECT_EQ(p.steer(data_packet(100), fig1_views(), 0).channel, 1u);
}

TEST(MinDelay, AvoidsBackloggedUrllc) {
  MinDelayPolicy p;
  // 20 KB backlog on URLLC = 80 ms queue: eMBB wins.
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(0, 20000), 0).channel, 0u);
}

// ---- DChannel heuristic ----

TEST(DChannel, AccelleratesAcksToUrllc) {
  DChannelPolicy p;
  EXPECT_EQ(p.steer(ack_packet(), fig1_views(), 0).channel, 1u);
}

TEST(DChannel, SteersFirstDataPacketWhenRewardExceedsCost) {
  DChannelPolicy p;
  // Empty queues: reward = 25.2 - 8.5 = ~16.7 ms; cost = 6 ms -> steer.
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(), 0).channel, 1u);
}

TEST(DChannel, StopsSteeringWhenUrllcBacklogErasesReward) {
  DChannelPolicy p;
  // 8 KB backlog: est delay = (8000+1500)*8/2e6 + 2.5 ms = 40.5 ms;
  // reward vs 25.2 ms eMBB is negative.
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(0, 8000), 0).channel, 0u);
}

TEST(DChannel, SteersMoreAggressivelyWhenEmbbCongested) {
  DChannelPolicy p;
  // 300 KB on eMBB = 40 ms queue; URLLC with 6 KB backlog still wins.
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(300000, 6000), 0).channel,
            1u);
}

TEST(DChannel, RespectsQueueFillCap) {
  DChannelPolicy p;
  // URLLC nearly full: never steer into it, however attractive.
  auto views = fig1_views(4 * 1024 * 1024, 60 * 1024);
  EXPECT_EQ(p.steer(ack_packet(), views, 0).channel, 0u);
}

TEST(DChannel, IsBlindToAppPriorities) {
  DChannelPolicy p;
  EXPECT_FALSE(p.uses_app_info());
  // Identical decisions for priority-0 and priority-2 packets of the same
  // size and channel state.
  const auto d0 = p.steer(priority_packet(0), fig1_views(0, 5000), 0);
  const auto d2 = p.steer(priority_packet(2), fig1_views(0, 5000), 0);
  EXPECT_EQ(d0.channel, d2.channel);
}

TEST(DChannel, FlowPriorityVariantBarsBackgroundFlows) {
  DChannelPolicy p(DChannelConfig{.use_flow_priority = true});
  EXPECT_TRUE(p.uses_flow_priority());
  Packet bg = ack_packet();
  bg.flow_priority = 1;
  EXPECT_EQ(p.steer(bg, fig1_views(), 0).channel, 0u);
  Packet fg = ack_packet();
  EXPECT_EQ(p.steer(fg, fig1_views(), 0).channel, 1u);
}

TEST(DChannel, SingleChannelDegradesGracefully) {
  DChannelPolicy p;
  std::array<ChannelView, 1> one{fig1_views()[0]};
  EXPECT_EQ(p.steer(data_packet(1500), one, 0).channel, 0u);
}

// ---- Message-priority (cross-layer) policy ----

TEST(MsgPriority, PinsLayer0ToFastChannel) {
  MessagePriorityPolicy p;
  EXPECT_TRUE(p.uses_app_info());
  EXPECT_EQ(p.steer(priority_packet(0), fig1_views(), 0).channel, 1u);
}

TEST(MsgPriority, SendsLowerLayersToEmbb) {
  MessagePriorityPolicy p;
  EXPECT_EQ(p.steer(priority_packet(1), fig1_views(), 0).channel, 0u);
  EXPECT_EQ(p.steer(priority_packet(2), fig1_views(), 0).channel, 0u);
}

TEST(MsgPriority, KeepsWholeMessageOnFastChannelUnderBacklog) {
  // Unlike DChannel, a moderate URLLC backlog does not strand the rest of
  // a high-priority message on eMBB.
  MessagePriorityPolicy p;
  DChannelPolicy dc;
  const auto views = fig1_views(0, 8000);
  EXPECT_EQ(p.steer(priority_packet(0), views, 0).channel, 1u);
  EXPECT_EQ(dc.steer(priority_packet(0), views, 0).channel, 0u);
}

TEST(MsgPriority, OverflowsWhenFastChannelNearlyFull) {
  MessagePriorityPolicy p;
  const auto views = fig1_views(0, 63 * 1024);
  EXPECT_EQ(p.steer(priority_packet(0), views, 0).channel, 0u);
}

TEST(MsgPriority, BackgroundFlowsBarred) {
  MessagePriorityPolicy p;
  Packet bg = priority_packet(0);
  bg.flow_priority = 2;
  EXPECT_EQ(p.steer(bg, fig1_views(), 0).channel, 0u);
}

TEST(MsgPriority, UnannotatedPacketsUseFallbackHeuristic) {
  MessagePriorityPolicy p;
  // Without app info, behaves like DChannel: steer while reward positive.
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(), 0).channel, 1u);
  EXPECT_EQ(p.steer(data_packet(1500), fig1_views(0, 8000), 0).channel, 0u);
}

TEST(MsgPriority, TailAccelerationOption) {
  PrioritySteerConfig cfg;
  cfg.accelerate_tail_bytes = 3000;
  MessagePriorityPolicy p(cfg);
  Packet tail = priority_packet(2);
  tail.app.message_bytes = 50000;
  tail.app.offset = 48000;  // 2000 bytes remain
  EXPECT_EQ(p.steer(tail, fig1_views(), 0).channel, 1u);
  Packet head = priority_packet(2);
  head.app.message_bytes = 50000;
  head.app.offset = 0;
  EXPECT_EQ(p.steer(head, fig1_views(), 0).channel, 0u);
}

// ---- Flow-binding (IANS / Socket Intents granularity) ----

TEST(FlowBinding, BindsByDeclaredIntent) {
  FlowBindingPolicy p;
  Packet sensitive = data_packet(500);
  sensitive.flow = 10;
  sensitive.flow_priority = 0;  // latency-sensitive intent
  Packet bulk = data_packet(1500);
  bulk.flow = 11;
  bulk.flow_priority = 3;
  EXPECT_EQ(p.steer(sensitive, fig1_views(), 0).channel, 1u);
  EXPECT_EQ(p.steer(bulk, fig1_views(), 0).channel, 0u);
}

TEST(FlowBinding, BindingIsSticky) {
  // Whole-flow granularity: once bound, every packet of the flow follows,
  // regardless of instantaneous channel state — the paper's critique.
  FlowBindingPolicy p;
  Packet pkt = data_packet(1000);
  pkt.flow = 20;
  pkt.flow_priority = 0;
  EXPECT_EQ(p.steer(pkt, fig1_views(), 0).channel, 1u);
  // URLLC now deeply backlogged; a per-packet policy would divert.
  EXPECT_EQ(p.steer(pkt, fig1_views(0, 50000), 0).channel, 1u);
  EXPECT_EQ(p.binding(20), 1u);
}

TEST(FlowBinding, DemandEscapeRebindsBigFlows) {
  FlowBindingConfig cfg;
  cfg.max_bytes_on_fast_channel = 10'000;
  FlowBindingPolicy p(cfg);
  Packet pkt = data_packet(1500);
  pkt.flow = 30;
  pkt.flow_priority = 0;
  // First packets ride the fast channel...
  EXPECT_EQ(p.steer(pkt, fig1_views(), 0).channel, 1u);
  // ...until cumulative demand exceeds the cap: re-bound to wide.
  for (int i = 0; i < 10; ++i) (void)p.steer(pkt, fig1_views(), 0);
  EXPECT_EQ(p.steer(pkt, fig1_views(), 0).channel, 0u);
  EXPECT_EQ(p.binding(30), 0u);
}

TEST(FlowBinding, DistinctFlowsBindIndependently) {
  FlowBindingPolicy p;
  for (net::FlowId f = 100; f < 110; ++f) {
    Packet pkt = data_packet(500);
    pkt.flow = f;
    pkt.flow_priority = static_cast<std::uint8_t>(f % 2);
    const auto d = p.steer(pkt, fig1_views(), 0);
    EXPECT_EQ(d.channel, f % 2 == 0 ? 1u : 0u);
  }
}

// ---- Redundant policy ----

TEST(Redundant, MirrorsEverythingWhenConfigured) {
  RedundantPolicy p(std::make_unique<SingleChannelPolicy>(0),
                    RedundantConfig{.mirror_all = true});
  const auto d = p.steer(data_packet(1000), fig1_views(), 0);
  EXPECT_EQ(d.channel, 0u);
  ASSERT_EQ(d.duplicate_on.size(), 1u);
  EXPECT_EQ(d.duplicate_on[0], 1u);
}

TEST(Redundant, MirrorsOnlyImportantByDefault) {
  RedundantPolicy p(std::make_unique<SingleChannelPolicy>(0),
                    RedundantConfig{});
  EXPECT_TRUE(p.steer(priority_packet(0), fig1_views(), 0)
                  .duplicate_on.size() == 1);
  EXPECT_TRUE(
      p.steer(priority_packet(2), fig1_views(), 0).duplicate_on.empty());
  EXPECT_EQ(p.steer(ack_packet(), fig1_views(), 0).duplicate_on.size(), 1u);
}

TEST(Redundant, SkipsFullMirror) {
  RedundantPolicy p(std::make_unique<SingleChannelPolicy>(0),
                    RedundantConfig{.mirror_all = true});
  const auto views = fig1_views(0, 60 * 1024);  // URLLC ~full
  EXPECT_TRUE(p.steer(data_packet(1000), views, 0).duplicate_on.empty());
}

TEST(Redundant, NoMirrorWithSingleChannel) {
  RedundantPolicy p(std::make_unique<SingleChannelPolicy>(0),
                    RedundantConfig{.mirror_all = true});
  std::array<ChannelView, 1> one{fig1_views()[0]};
  EXPECT_TRUE(p.steer(data_packet(1000), one, 0).duplicate_on.empty());
}

// ---- Cost-aware policy ----

std::array<ChannelView, 2> cisp_views() {
  ChannelView fiber;
  fiber.index = 0;
  fiber.base_owd = milliseconds(20);
  fiber.avg_rate_bps = 500e6;
  fiber.recent_rate_bps = 500e6;
  fiber.queue_limit_bytes = 8 * 1024 * 1024;

  ChannelView cisp;
  cisp.index = 1;
  cisp.base_owd = milliseconds(4);
  cisp.avg_rate_bps = 10e6;
  cisp.recent_rate_bps = 10e6;
  cisp.queue_limit_bytes = 256 * 1024;
  cisp.cost_per_megabyte = 0.05;
  return {fiber, cisp};
}

TEST(CostAware, BuysLatencyWithinBudget) {
  CostAwareConfig cfg;
  cfg.budget_per_second = 1.0;
  cfg.max_budget = 1.0;
  cfg.min_ms_saved_per_dollar = 10.0;
  CostAwarePolicy p(cfg);
  const auto d = p.steer(data_packet(1500), cisp_views(), sim::seconds(1));
  EXPECT_EQ(d.channel, 1u);
  EXPECT_GT(p.total_spent(), 0.0);
}

TEST(CostAware, StopsWhenBudgetExhausted) {
  CostAwareConfig cfg;
  cfg.budget_per_second = 0.0;  // nothing accrues
  cfg.max_budget = 0.0;
  CostAwarePolicy p(cfg);
  const auto d = p.steer(data_packet(1500), cisp_views(), sim::seconds(1));
  EXPECT_EQ(d.channel, 0u);
  EXPECT_DOUBLE_EQ(p.total_spent(), 0.0);
}

TEST(CostAware, RejectsPoorValue) {
  CostAwareConfig cfg;
  cfg.budget_per_second = 10.0;
  cfg.max_budget = 10.0;
  cfg.min_ms_saved_per_dollar = 1e9;  // nothing is ever worth it
  cfg.free_control_bytes = 0;
  CostAwarePolicy p(cfg);
  EXPECT_EQ(p.steer(data_packet(1500), cisp_views(), sim::seconds(1)).channel,
            0u);
}

TEST(CostAware, ControlPacketsRideFree) {
  CostAwareConfig cfg;
  cfg.budget_per_second = 0.001;
  cfg.min_ms_saved_per_dollar = 1e9;
  CostAwarePolicy p(cfg);
  EXPECT_EQ(p.steer(ack_packet(), cisp_views(), sim::seconds(1)).channel, 1u);
}

TEST(CostAware, BudgetRefillsOverTime) {
  CostAwareConfig cfg;
  cfg.budget_per_second = 0.0001;
  cfg.max_budget = 0.01;
  cfg.min_ms_saved_per_dollar = 1.0;
  CostAwarePolicy p(cfg);
  // Drain the initial (zero) budget, then advance time to refill.
  EXPECT_EQ(p.steer(data_packet(1500), cisp_views(), 0).channel, 0u);
  const auto late = sim::seconds(100);
  EXPECT_EQ(p.steer(data_packet(1500), cisp_views(), late).channel, 1u);
}

// ---- The views the shim shows a policy -----------------------------------
//
// The shim fills a view's constants once and refreshes only queued bytes,
// down state and the recent-rate hint per decision. A policy that checks
// every view it is shown against one rebuilt from scratch at the same
// instant, through an outage, a rate cliff and a delay spike, pins that
// the refreshed views are the ones a full rebuild would give.

/// The downlink view of channel `i` as the shim built it before its
/// constants were cached: every field read afresh, the recent rate counted
/// straight from the trace. `scale` is the rate cliff the test applied.
ChannelView rebuilt_view(const channel::HvcSet& set, std::size_t i,
                         double scale, sim::Time now) {
  const channel::Channel& ch = set.at(i);
  const channel::Link& link = ch.link(channel::Direction::kDownlink);
  const channel::ChannelProfile& profile = ch.profile();
  const trace::CapacityTrace& trace = profile.capacity_down;
  ChannelView v;
  v.index = i;
  v.base_owd = profile.owd;
  v.avg_rate_bps = trace.average_rate_bps();
  v.queued_bytes = link.queued_bytes();
  v.queue_limit_bytes = profile.queue_limit_bytes;
  v.loss_rate = profile.loss.bernoulli +
                profile.loss.ge_loss_in_bad *
                    (profile.loss.ge_p_good_to_bad > 0 ? 0.1 : 0.0);
  v.reliable = profile.reliable;
  v.cost_per_megabyte = profile.cost_per_megabyte;
  v.down = link.fault_down();
  if (!v.down) {
    const sim::Duration window = milliseconds(200);
    const sim::Time to = std::max<sim::Time>(now, window);
    v.recent_rate_bps = static_cast<double>(
                            trace.opportunities_in(to - window, to)) *
                        static_cast<double>(trace.mtu_bytes()) * 8.0 /
                        sim::to_seconds(window) * scale;
  }
  return v;
}

std::string describe(const ChannelView& v) {
  return "ch" + std::to_string(v.index) + " owd " +
         std::to_string(v.base_owd) + " avg " +
         std::to_string(v.avg_rate_bps) + " recent " +
         std::to_string(v.recent_rate_bps) + " q " +
         std::to_string(v.queued_bytes) + "/" +
         std::to_string(v.queue_limit_bytes) + " loss " +
         std::to_string(v.loss_rate) + " rel " + std::to_string(v.reliable) +
         " cost " + std::to_string(v.cost_per_megabyte) + " down " +
         std::to_string(v.down);
}

bool same_view(const ChannelView& a, const ChannelView& b) {
  // Bit-equal doubles: both sides compute the same expressions.
  return a.index == b.index && a.base_owd == b.base_owd &&
         std::memcmp(&a.avg_rate_bps, &b.avg_rate_bps, sizeof(double)) == 0 &&
         std::memcmp(&a.recent_rate_bps, &b.recent_rate_bps,
                     sizeof(double)) == 0 &&
         a.queued_bytes == b.queued_bytes &&
         a.queue_limit_bytes == b.queue_limit_bytes &&
         std::memcmp(&a.loss_rate, &b.loss_rate, sizeof(double)) == 0 &&
         a.reliable == b.reliable &&
         std::memcmp(&a.cost_per_megabyte, &b.cost_per_megabyte,
                     sizeof(double)) == 0 &&
         a.down == b.down;
}

/// Checks every view it is shown against rebuilt_view(), then picks the
/// fastest channel that is up, so both queues see traffic.
class ViewCheckingPolicy : public SteeringPolicy {
 public:
  explicit ViewCheckingPolicy(const std::array<double, 2>& scale)
      : scale_(scale) {}

  /// The channel set the shim reads; the network that owns it takes the
  /// policy first.
  void watch(const channel::HvcSet* set) { set_ = set; }

  [[nodiscard]] std::string name() const override { return "view-check"; }

  Decision steer(const net::Packet& pkt, std::span<const ChannelView> views,
                 sim::Time now) override {
    EXPECT_EQ(views.size(), set_->size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      const ChannelView want = rebuilt_view(*set_, i, scale_[i], now);
      ++checked;
      if (views[i].down) ++down;
      if (scale_[i] < 1.0) ++cliff;
      if (!same_view(views[i], want) && mismatches++ < 5) {
        ADD_FAILURE() << "t " << now << ": shown " << describe(views[i])
                      << ", rebuilt " << describe(want);
      }
    }
    Decision d;
    d.channel = best_up_channel(views, pkt.size_bytes);
    d.reason = "view-check:min-delay";
    return d;
  }

  std::int64_t checked = 0;
  std::int64_t down = 0;
  std::int64_t cliff = 0;
  std::int64_t mismatches = 0;

 private:
  const channel::HvcSet* set_ = nullptr;
  const std::array<double, 2>& scale_;
};

TEST(ShimViews, EveryViewEqualsOneRebuiltAtTheSameInstant) {
  sim::Simulator s;
  std::array<double, 2> scale{1.0, 1.0};
  auto checker_owner = std::make_unique<ViewCheckingPolicy>(scale);
  ViewCheckingPolicy* checker = checker_owner.get();
  net::TwoHostNetwork net(s, std::make_unique<SingleChannelPolicy>(0),
                          std::move(checker_owner));
  channel::ChannelProfile embb = channel::embb_trace_profile(
      trace::FiveGProfile::kLowbandDriving, sim::seconds(4), 5);
  embb.loss.bernoulli = 0.01;
  net.add_channel(embb);
  channel::ChannelProfile urllc = channel::urllc_profile();
  urllc.loss.ge_p_good_to_bad = 0.02;
  urllc.loss.ge_p_bad_to_good = 0.3;
  urllc.loss.ge_loss_in_bad = 0.5;
  urllc.cost_per_megabyte = 0.25;
  net.add_channel(urllc);
  net.finalize();
  checker->watch(&net.channels());

  channel::Link& embb_down = net.channels().at(0).downlink();
  channel::Link& urllc_down = net.channels().at(1).downlink();
  auto at = [&s](double secs, auto fn) { s.at(sim::seconds_f(secs), fn); };
  // A rate cliff on URLLC, an eMBB outage, a delay spike on URLLC, then a
  // rate cliff on eMBB.
  at(0.5, [&] { urllc_down.fault_set_rate_scale(scale[1] = 0.5); });
  at(0.9, [&] { urllc_down.fault_set_rate_scale(scale[1] = 1.0); });
  at(1.0, [&] { embb_down.fault_set_down(true); });
  at(1.4, [&] { embb_down.fault_set_down(false); });
  at(1.5, [&] { urllc_down.fault_set_extra_delay(milliseconds(40)); });
  at(2.0, [&] { urllc_down.fault_set_extra_delay(0); });
  at(2.0, [&] { embb_down.fault_set_rate_scale(scale[0] = 0.25); });
  at(2.6, [&] { embb_down.fault_set_rate_scale(scale[0] = 1.0); });

  // A packet every 200 us, every tenth instant a burst of three.
  sim::Rng rng(3);
  constexpr std::int64_t kSizes[] = {net::kHeaderBytes, 600, 1500};
  for (sim::Time t = 0; t < sim::seconds(3); t += sim::microseconds(200)) {
    const int burst = (t / sim::microseconds(200)) % 10 == 0 ? 3 : 1;
    for (int b = 0; b < burst; ++b) {
      const std::int64_t size = kSizes[rng.uniform_int(0, 2)];
      s.at(t, [&net, size] {
        auto p = net::make_packet();
        p->flow = 1;
        p->type = size == net::kHeaderBytes ? net::PacketType::kAck
                                            : net::PacketType::kData;
        p->size_bytes = size;
        net.downlink_shim().send(std::move(p));
      });
    }
  }
  s.run();
  EXPECT_EQ(checker->mismatches, 0);
  EXPECT_GT(checker->checked, 30000);
  EXPECT_GT(checker->down, 1000);   // decisions inside the outage
  EXPECT_GT(checker->cliff, 5000);  // and inside both rate cliffs
}

}  // namespace
}  // namespace hvc::steer
