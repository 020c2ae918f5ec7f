// Tests for the fault-injection subsystem (src/fault): FaultPlan
// validation and seeded fuzz-plan generation, the channel::Link fault_*
// hooks (outage, rate cliff, delay spike, GE burst episodes), the
// FaultInjector's scheduling/audit/blackout accounting, per-policy
// failover on channel-down, the transport's bounded-blackout behavior,
// the `faults` spec block (positive, negative, and round-trip paths,
// mirroring exp_test.cpp), and end-to-end determinism of faulted runs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "channel/link.hpp"
#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/node.hpp"
#include "obs/audit.hpp"
#include "obs/telemetry.hpp"
#include "steer/basic_policies.hpp"
#include "steer/redundant.hpp"

namespace hvc {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---- FaultPlan validation ----

fault::FaultEvent outage(std::size_t channel, sim::Time start,
                         sim::Duration duration,
                         fault::FaultDir dir = fault::FaultDir::kBoth) {
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kOutage;
  e.channel = channel;
  e.dir = dir;
  e.start = start;
  e.duration = duration;
  return e;
}

TEST(FaultPlan, AcceptsDisjointAndCrossFamilyEvents) {
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, seconds(1), seconds(1)));
  plan.events.push_back(outage(0, seconds(3), seconds(1)));  // disjoint
  plan.events.push_back(outage(1, seconds(1), seconds(1)));  // other channel
  fault::FaultEvent ge;  // other family, may overlap the outage
  ge.kind = fault::FaultKind::kGeBurst;
  ge.channel = 0;
  ge.start = seconds(1);
  ge.duration = seconds(2);
  ge.loss.ge_p_good_to_bad = 0.1;
  ge.loss.ge_loss_in_bad = 0.9;
  plan.events.push_back(ge);
  EXPECT_NO_THROW(plan.validate(2));
}

TEST(FaultPlan, RejectsChannelOutOfRange) {
  fault::FaultPlan plan;
  plan.events.push_back(outage(2, 0, seconds(1)));
  try {
    plan.validate(2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fault event 0"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, RejectsNonPositiveDurationAndNegativeStart) {
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, 0, 0));
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
  plan.events[0] = outage(0, -1, seconds(1));
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(FaultPlan, RejectsBadKindParameters) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.channel = 0;
  e.start = 0;
  e.duration = seconds(1);

  e.kind = fault::FaultKind::kRateCliff;
  e.rate_scale = 1.0;  // must be in (0, 1)
  plan.events = {e};
  EXPECT_THROW(plan.validate(1), std::invalid_argument);

  e.kind = fault::FaultKind::kGeBurst;
  e.rate_scale = 0.1;
  e.loss = channel::LossConfig{};  // lossless episode = no-op
  plan.events = {e};
  EXPECT_THROW(plan.validate(1), std::invalid_argument);

  e.kind = fault::FaultKind::kDelaySpike;
  e.extra_delay = 0;
  plan.events = {e};
  EXPECT_THROW(plan.validate(1), std::invalid_argument);

  e.kind = fault::FaultKind::kFlap;
  e.extra_delay = milliseconds(100);
  e.flap_up_fraction = 1.5;
  plan.events = {e};
  EXPECT_THROW(plan.validate(1), std::invalid_argument);
}

TEST(FaultPlan, RejectsSameFamilyOverlapOnSameLink) {
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, seconds(1), seconds(2)));
  fault::FaultEvent flap;  // flap shares the availability family
  flap.kind = fault::FaultKind::kFlap;
  flap.channel = 0;
  flap.start = seconds(2);
  flap.duration = seconds(2);
  plan.events.push_back(flap);
  try {
    plan.validate(1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos)
        << e.what();
  }
  // Disjoint directions on the same channel are fine.
  plan.events[0] = outage(0, seconds(1), seconds(2), fault::FaultDir::kUplink);
  plan.events[1].dir = fault::FaultDir::kDownlink;
  EXPECT_NO_THROW(plan.validate(1));
}

TEST(FaultPlan, FuzzedPlansAreValidAndDeterministic) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto a = fault::FaultPlan::fuzzed(seed, 2, seconds(10));
    const auto b = fault::FaultPlan::fuzzed(seed, 2, seconds(10));
    ASSERT_FALSE(a.empty());
    EXPECT_NO_THROW(a.validate(2));
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].kind, b.events[i].kind);
      EXPECT_EQ(a.events[i].channel, b.events[i].channel);
      EXPECT_EQ(a.events[i].start, b.events[i].start);
      EXPECT_EQ(a.events[i].duration, b.events[i].duration);
      EXPECT_EQ(a.events[i].loss_seed, b.events[i].loss_seed);
      // Every event fits the requested horizon.
      EXPECT_GE(a.events[i].start, 0);
      EXPECT_LE(a.events[i].end(), seconds(10));
    }
  }
  // Different seeds do not all collapse onto one plan.
  const auto x = fault::FaultPlan::fuzzed(1, 2, seconds(10));
  const auto y = fault::FaultPlan::fuzzed(2, 2, seconds(10));
  const bool differ = x.events.size() != y.events.size() ||
                      x.events[0].start != y.events[0].start ||
                      x.events[0].kind != y.events[0].kind;
  EXPECT_TRUE(differ);
}

// ---- Link fault hooks ----

struct LinkHarness {
  sim::Simulator s;
  channel::Link link;
  std::vector<sim::Time> delivered_at;

  explicit LinkHarness(channel::LinkConfig cfg = {}) : link(s, std::move(cfg)) {
    link.set_receiver([this](net::PacketPtr) {
      delivered_at.push_back(s.now());
    });
  }

  void send(std::int64_t size = 1000) {
    auto p = net::make_packet();
    p->type = net::PacketType::kData;
    p->size_bytes = size;
    link.send(std::move(p));
  }
};

TEST(LinkFault, OutagePausesServiceUntilClear) {
  LinkHarness h;
  h.s.at(milliseconds(5), [&] { h.link.fault_set_down(true); });
  h.s.at(milliseconds(6), [&] { h.send(); });
  h.s.at(milliseconds(500), [&] { h.link.fault_set_down(false); });
  h.s.run();
  // The packet could only be delivered after the link came back.
  ASSERT_EQ(h.delivered_at.size(), 1u);
  EXPECT_GE(h.delivered_at[0], milliseconds(500));
  EXPECT_EQ(h.link.stats().delivered_packets, 1);
}

TEST(LinkFault, DownLinkStillTakesQueueAndDroptails) {
  channel::LinkConfig cfg;
  cfg.queue_limit_bytes = 3000;
  LinkHarness h(cfg);
  h.link.fault_set_down(true);
  for (int i = 0; i < 5; ++i) h.send(1000);
  // 3 fit the queue, 2 droptail — blackout cost is observable.
  EXPECT_EQ(h.link.stats().enqueued_packets, 3);
  EXPECT_EQ(h.link.stats().dropped_queue_packets, 2);
  EXPECT_TRUE(h.link.fault_down());
  h.link.fault_set_down(false);
  h.s.run();
  EXPECT_EQ(h.link.stats().delivered_packets, 3);
}

TEST(LinkFault, RateCliffThinsDeliveryDeterministically) {
  auto run = [](double scale) {
    channel::LinkConfig cfg;
    cfg.capacity = trace::CapacityTrace::constant(sim::mbps(8));
    LinkHarness h(cfg);
    h.link.fault_set_rate_scale(scale);
    for (int i = 0; i < 200; ++i) {
      h.s.at(milliseconds(i), [&] { h.send(1000); });
    }
    h.s.run_until(milliseconds(210));
    return h.link.stats().delivered_packets;
  };
  const auto full = run(1.0);
  const auto half = run(0.5);
  ASSERT_GT(full, 0);
  // The accumulator admits ~scale of opportunities: within 20% of half.
  EXPECT_NEAR(static_cast<double>(half), 0.5 * static_cast<double>(full),
              0.2 * static_cast<double>(full));
  EXPECT_EQ(run(0.5), half);  // no RNG involved
}

TEST(LinkFault, DelaySpikeAddsToPropagation) {
  channel::LinkConfig cfg;
  cfg.prop_delay = milliseconds(10);
  LinkHarness h(cfg);
  h.send(1000);
  h.s.run();
  ASSERT_EQ(h.delivered_at.size(), 1u);
  const sim::Time base = h.delivered_at[0];

  LinkHarness h2(cfg);
  h2.link.fault_set_extra_delay(milliseconds(40));
  h2.send(1000);
  h2.s.run();
  ASSERT_EQ(h2.delivered_at.size(), 1u);
  EXPECT_EQ(h2.delivered_at[0], base + milliseconds(40));
}

TEST(LinkFault, EpisodeLossIsSeededAndClears) {
  channel::LossConfig episode;
  episode.ge_p_good_to_bad = 0.2;
  episode.ge_p_bad_to_good = 0.2;
  episode.ge_loss_in_bad = 1.0;
  auto run = [&](std::uint64_t seed) {
    LinkHarness h;
    h.link.fault_set_episode_loss(episode, seed);
    for (int i = 0; i < 300; ++i) {
      h.s.at(milliseconds(i), [&] { h.send(100); });
    }
    h.s.run();
    return h.link.stats().dropped_wire_packets;
  };
  const auto a = run(7);
  EXPECT_GT(a, 0);
  EXPECT_EQ(run(7), a);   // same seed, same burst pattern
  EXPECT_NE(run(8), a);   // independent stream
  // Clearing the episode restores losslessness.
  LinkHarness h;
  h.link.fault_set_episode_loss(episode, 7);
  h.link.fault_clear_episode_loss();
  for (int i = 0; i < 100; ++i) h.s.at(milliseconds(i), [&] { h.send(100); });
  h.s.run();
  EXPECT_EQ(h.link.stats().dropped_wire_packets, 0);
}

TEST(LinkFault, DownLinkEstimatesReportUnusable) {
  LinkHarness h;
  h.link.fault_set_down(true);
  EXPECT_EQ(h.link.estimated_delivery_delay(1500), sim::kTimeNever);
  EXPECT_EQ(h.link.recent_delivery_rate_bps(), 0.0);
  h.link.fault_set_down(false);
  EXPECT_LT(h.link.estimated_delivery_delay(1500), sim::kTimeNever);
}

// ---- FaultInjector ----

struct NetHarness {
  sim::Simulator s;
  net::TwoHostNetwork net;

  explicit NetHarness(const char* policy = "min-delay")
      : net(s, core::make_policy(policy), core::make_policy(policy)) {
    net.add_channel(channel::embb_constant_profile());
    net.add_channel(channel::urllc_profile());
    net.finalize();
  }
};

TEST(FaultInjector, AppliesAndReversesWindowsOnSchedule) {
  NetHarness h;
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, milliseconds(100), milliseconds(50)));
  fault::FaultInjector inj(h.s, h.net.channels(), plan);
  ASSERT_EQ(inj.windows().size(), 1u);

  auto& down_link = h.net.channels().at(0).downlink();
  auto& up_link = h.net.channels().at(0).uplink();
  h.s.at(milliseconds(99), [&] { EXPECT_FALSE(down_link.fault_down()); });
  h.s.at(milliseconds(120), [&] {
    EXPECT_TRUE(down_link.fault_down());
    EXPECT_TRUE(up_link.fault_down());  // dir = kBoth
    // The other channel is untouched.
    EXPECT_FALSE(h.net.channels().at(1).downlink().fault_down());
  });
  h.s.at(milliseconds(151), [&] { EXPECT_FALSE(down_link.fault_down()); });
  h.s.run();
}

TEST(FaultInjector, DirectionSelectsOneLink) {
  NetHarness h;
  fault::FaultPlan plan;
  plan.events.push_back(
      outage(0, milliseconds(10), milliseconds(10), fault::FaultDir::kUplink));
  fault::FaultInjector inj(h.s, h.net.channels(), plan);
  h.s.at(milliseconds(15), [&] {
    EXPECT_FALSE(h.net.channels().at(0).downlink().fault_down());
    EXPECT_TRUE(h.net.channels().at(0).uplink().fault_down());
  });
  h.s.run();
}

TEST(FaultInjector, RejectsInvalidPlanUpFront) {
  NetHarness h;
  fault::FaultPlan plan;
  plan.events.push_back(outage(5, 0, seconds(1)));  // only 2 channels
  EXPECT_THROW(fault::FaultInjector(h.s, h.net.channels(), plan),
               std::invalid_argument);
}

TEST(FaultInjector, FlapExpandsToSubWindowsAndEndsUp) {
  NetHarness h;
  fault::FaultPlan plan;
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kFlap;
  flap.channel = 1;
  flap.start = milliseconds(100);
  flap.duration = milliseconds(400);
  flap.flap_period = milliseconds(100);
  flap.flap_up_fraction = 0.5;
  plan.events.push_back(flap);
  fault::FaultInjector inj(h.s, h.net.channels(), plan);
  // One down window per period.
  EXPECT_EQ(inj.windows().size(), 4u);
  for (const auto& w : inj.windows()) {
    EXPECT_TRUE(w.down);
    EXPECT_GE(w.start, flap.start);
    EXPECT_LE(w.end, flap.end());
    EXPECT_LT(w.start, w.end);
  }
  h.s.run();
  // After the event the link is guaranteed back up (queues can drain).
  EXPECT_FALSE(h.net.channels().at(1).downlink().fault_down());
}

TEST(FaultInjector, JitteredFlapIsSeededButStaysInWindow) {
  NetHarness h1, h2, h3;
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kFlap;
  flap.channel = 0;
  flap.start = milliseconds(50);
  flap.duration = milliseconds(600);
  flap.flap_period = milliseconds(150);
  flap.flap_seed = 11;
  fault::FaultPlan plan;
  plan.events.push_back(flap);
  fault::FaultInjector a(h1.s, h1.net.channels(), plan);
  fault::FaultInjector b(h2.s, h2.net.channels(), plan);
  plan.events[0].flap_seed = 12;
  fault::FaultInjector c(h3.s, h3.net.channels(), plan);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  // Jitter varies each down span's *length*; starts stay on the period
  // grid, so seeds are compared by window ends.
  bool same_as_c = a.windows().size() == c.windows().size();
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].start, b.windows()[i].start);
    EXPECT_EQ(a.windows()[i].end, b.windows()[i].end);
    EXPECT_LE(a.windows()[i].end, flap.end());
    if (same_as_c && a.windows()[i].end != c.windows()[i].end) {
      same_as_c = false;
    }
  }
  EXPECT_FALSE(same_as_c);  // the seed actually jitters the spans
}

TEST(FaultInjector, CountsBlackoutCost) {
  // Single channel: with no failover target, traffic sent during the
  // window is committed into the dead link and counted as blackout cost.
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy("embb-only"),
                          core::make_policy("embb-only"));
  net.add_channel(channel::embb_constant_profile());
  net.finalize();
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, milliseconds(100), milliseconds(100),
                               fault::FaultDir::kUplink));
  fault::FaultInjector inj(s, net.channels(), plan);
  const auto flow = net::next_flow_id();
  const net::FlowHandle sink =
      net.server().register_flow(flow, [](net::PacketPtr) {});
  for (int i = 0; i < 300; ++i) {
    s.at(milliseconds(i), [&] {
      auto p = net::make_packet();
      p->flow = flow;
      p->type = net::PacketType::kData;
      p->size_bytes = 1000;
      net.client().send(std::move(p));
    });
  }
  s.run();
  // ~100 ms of 1000 B/ms committed during the window.
  EXPECT_GT(inj.blackout_committed_bytes(), 50 * 1000);
  EXPECT_EQ(inj.blackout_dropped_packets(), 0);  // queue is large enough
}

TEST(FaultInjector, RecordsAuditEdgesWithReasonTags) {
  obs::SteeringAuditLog log;
  obs::ScopedSteeringAuditLog scope(log);
  log.enable(1024);
  NetHarness h;
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, milliseconds(10), milliseconds(20)));
  fault::FaultEvent spike;
  spike.kind = fault::FaultKind::kDelaySpike;
  spike.channel = 1;
  spike.start = milliseconds(40);
  spike.duration = milliseconds(20);
  plan.events.push_back(spike);
  fault::FaultInjector inj(h.s, h.net.channels(), plan);
  h.s.run();
  const std::string jsonl = log.to_jsonl();
  EXPECT_NE(jsonl.find("\"policy\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("fault:outage-start"), std::string::npos);
  EXPECT_NE(jsonl.find("fault:outage-end"), std::string::npos);
  EXPECT_NE(jsonl.find("fault:delay-spike-start"), std::string::npos);
  EXPECT_NE(jsonl.find("fault:delay-spike-end"), std::string::npos);
}

TEST(FaultInjector, FaultDownProbeIsSampled) {
  obs::TelemetrySampler ts;
  obs::ScopedTelemetrySampler scope(ts);
  ts.enable({.period = milliseconds(10), .groups = {"fault"}});
  NetHarness h;
  fault::FaultPlan plan;
  plan.events.push_back(outage(0, milliseconds(20), milliseconds(30)));
  fault::FaultInjector inj(h.s, h.net.channels(), plan);
  ts.attach(h.s);
  h.s.run_until(milliseconds(100));
  bool saw_down = false, saw_up = false;
  std::string down_series;
  for (const auto& name : ts.series_names()) {
    if (name.find("fault_down") == std::string::npos) continue;
    down_series = name;
    for (const auto& s : ts.samples(name)) {
      (s.value > 0 ? saw_down : saw_up) = true;
    }
  }
  // The series must show both states: down during [20,50), up after.
  EXPECT_FALSE(down_series.empty());
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_up);
}

// ---- Steering failover on channel-down ----

class FailoverTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FailoverTest, AvoidsDownChannelAndTagsReason) {
  auto policy = core::make_policy(GetParam());
  steer::ChannelView embb;
  embb.index = 0;
  embb.base_owd = milliseconds(25);
  embb.avg_rate_bps = 60e6;
  embb.recent_rate_bps = 60e6;
  embb.queue_limit_bytes = 4 * 1024 * 1024;
  steer::ChannelView urllc;
  urllc.index = 1;
  urllc.base_owd = sim::microseconds(2500);
  urllc.avg_rate_bps = 2e6;
  urllc.recent_rate_bps = 2e6;
  urllc.queue_limit_bytes = 64 * 1024;
  urllc.reliable = true;
  std::array<steer::ChannelView, 2> views = {embb, urllc};
  views[0].down = true;

  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 1200;
  for (int i = 0; i < 8; ++i) {  // stateful policies get several looks
    const auto d = policy->steer(pkt, views, milliseconds(i));
    EXPECT_EQ(d.channel, 1u) << GetParam() << " steered into a down channel";
    for (const auto dup : d.duplicate_on) EXPECT_NE(dup, 0u);
    ASSERT_NE(d.reason, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FailoverTest,
                         ::testing::Values("embb-only", "round-robin",
                                           "weighted", "min-delay",
                                           "dchannel", "dchannel+prio",
                                           "msg-priority", "redundant",
                                           "cost-aware", "flow-binding"));

TEST(Failover, AllChannelsDownFallsBackToDefault) {
  std::array<steer::ChannelView, 2> views;
  views[0].index = 0;
  views[0].down = true;
  views[1].index = 1;
  views[1].down = true;
  EXPECT_EQ(steer::first_up_channel(views), 0u);
  EXPECT_EQ(steer::best_up_channel(views, 1500), 0u);
  auto policy = core::make_policy("min-delay");
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 1200;
  EXPECT_LT(policy->steer(pkt, views, 0).channel, views.size());
}

TEST(Failover, RedundantDuplicatesOnlyOnSurvivors) {
  steer::RedundantPolicy policy(std::make_unique<steer::MinDelayPolicy>(),
                                steer::RedundantConfig{.mirror_all = true});
  std::array<steer::ChannelView, 3> views;
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].index = i;
    views[i].avg_rate_bps = 10e6;
    views[i].recent_rate_bps = 10e6;
    views[i].base_owd = milliseconds(10);
  }
  views[1].down = true;
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = 500;
  const auto d = policy.steer(pkt, views, 0);
  EXPECT_NE(d.channel, 1u);
  ASSERT_EQ(d.duplicate_on.size(), 1u);  // only the surviving alternative
  EXPECT_NE(d.duplicate_on[0], 1u);
}

// ---- Transport behavior through a blackout ----

TEST(TransportFault, BlackoutBackoffIsBoundedNotAStorm) {
  // Single-channel topology: no failover possible, the transport must
  // ride out a 4 s blackout on RTO backoff without a retransmit storm.
  core::ScenarioConfig cfg;
  cfg.channels = {channel::embb_constant_profile()};
  cfg.up_policy = "embb-only";
  cfg.down_policy = "embb-only";
  fault::FaultEvent e = outage(0, seconds(2), seconds(4));
  cfg.faults.events.push_back(e);
  const auto r = core::run_bulk(cfg, "cubic", seconds(10));
  // Goodput survives outside the window.
  EXPECT_GT(r.goodput_bps, 1e6);
  // Consecutive RTOs escalate to single-probe mode: the bytes committed
  // into the dead link over 4 s stay far below one congestion window's
  // worth per RTO (a storm would re-blast hundreds of kB repeatedly).
  EXPECT_GT(r.rto_count, 0);
  EXPECT_LT(r.fault_blackout_committed_bytes, 400 * 1000);
}

TEST(TransportFault, RecoversFullGoodputAfterOutageViaFailover) {
  core::ScenarioConfig cfg = core::ScenarioConfig::fig1("dchannel");
  cfg.faults.events.push_back(outage(0, seconds(4), seconds(2)));
  const auto r = core::run_bulk(cfg, "cubic", seconds(12));
  const auto baseline =
      core::run_bulk(core::ScenarioConfig::fig1("dchannel"), "cubic",
                     seconds(12));
  // The outage costs throughput but the connection survives and resumes
  // (well above the URLLC-only floor of ~2 Mbps).
  EXPECT_GT(r.goodput_bps, 0.3 * baseline.goodput_bps);
  EXPECT_GT(r.goodput_bps, 4e6);
  // With a surviving channel, nothing new is committed into the dead one.
  EXPECT_EQ(r.fault_blackout_committed_bytes, 0);
}

// ---- The `faults` spec block ----

TEST(FaultSpec, ParsesEveryKindWithDefaults) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "workload": "bulk",
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "faults": [
      {"kind": "outage", "channel": 0, "start_s": 1, "duration_s": 2},
      {"kind": "rate_cliff", "channel": 1, "start_s": 4, "rate_scale": 0.25,
       "direction": "down"},
      {"kind": "ge_burst", "channel": 0, "start_s": 6, "p_good_to_bad": 0.1,
       "loss_in_bad": 0.8, "seed": 9},
      {"kind": "delay_spike", "channel": 1, "start_s": 6,
       "extra_delay_ms": 250},
      {"kind": "flap", "channel": 0, "start_s": 8, "duration_s": 2,
       "period_s": 0.25, "up_fraction": 0.6}
    ]
  })");
  ASSERT_EQ(s.faults.size(), 5u);
  EXPECT_EQ(s.faults[0].kind, "outage");
  EXPECT_DOUBLE_EQ(s.faults[0].duration_s, 2.0);
  EXPECT_EQ(s.faults[0].direction, "both");
  EXPECT_EQ(s.faults[1].direction, "down");
  EXPECT_DOUBLE_EQ(s.faults[1].rate_scale, 0.25);
  EXPECT_EQ(s.faults[2].seed, 9);
  EXPECT_DOUBLE_EQ(s.faults[2].loss_in_bad, 0.8);
  EXPECT_EQ(s.faults[3].kind, "delay_spike");
  EXPECT_DOUBLE_EQ(s.faults[3].extra_delay_ms, 250.0);
  EXPECT_DOUBLE_EQ(s.faults[4].period_s, 0.25);
  EXPECT_DOUBLE_EQ(s.faults[4].up_fraction, 0.6);
  EXPECT_EQ(s.faults[4].seed, -1);  // default: strictly periodic
}

TEST(FaultSpec, RoundTripsThroughToJson) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "workload": "bulk", "duration_s": 10,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "faults": [
      {"kind": "outage", "channel": 0, "start_s": 2, "duration_s": 1,
       "direction": "up"},
      {"kind": "ge_burst", "channel": 1, "start_s": 5, "seed": 3}
    ]
  })");
  const std::string json = s.to_json();
  const auto s2 = exp::ScenarioSpec::from_json_text(json);
  EXPECT_EQ(s2.to_json(), json);
  ASSERT_EQ(s2.faults.size(), 2u);
  EXPECT_TRUE(s2.faults == s.faults);
}

std::string fault_error(const std::string& faults_json) {
  try {
    (void)exp::ScenarioSpec::from_json_text(
        R"({"workload": "bulk", "channels": [{"type": "embb"}, )"
        R"({"type": "urllc"}], "faults": )" +
        faults_json + "}");
    return "";
  } catch (const exp::SpecError& e) {
    return e.what();
  }
}

TEST(FaultSpec, RejectsUnknownKindWithPath) {
  const std::string err = fault_error(R"([{"kind": "meteor"}])");
  EXPECT_NE(err.find("faults.0.kind"), std::string::npos) << err;
}

TEST(FaultSpec, RejectsStructuralErrorsWithPaths) {
  // Not an array.
  EXPECT_NE(fault_error(R"({"kind": "outage"})").find("faults"),
            std::string::npos);
  // Channel out of range for the scenario's channel set.
  EXPECT_NE(fault_error(R"([{"kind": "outage", "channel": 2}])")
                .find("faults.0.channel"),
            std::string::npos);
  // Unknown key inside an event.
  EXPECT_NE(fault_error(R"([{"kind": "outage", "blast_radius": 3}])")
                .find("faults.0"),
            std::string::npos);
  // Bad direction string.
  EXPECT_NE(fault_error(R"([{"kind": "outage", "direction": "sideways"}])")
                .find("faults.0.direction"),
            std::string::npos);
}

TEST(FaultSpec, RejectsNegativeDurationsAndRanges) {
  EXPECT_NE(fault_error(R"([{"kind": "outage", "duration_s": -1}])")
                .find("faults.0.duration_s"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "outage", "start_s": -0.5}])")
                .find("faults.0.start_s"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "rate_cliff", "rate_scale": 1.0}])")
                .find("faults.0.rate_scale"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "flap", "up_fraction": 0}])")
                .find("faults.0.up_fraction"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "ge_burst", "seed": -2}])")
                .find("faults.0.seed"),
            std::string::npos);
}

TEST(FaultSpec, RejectsKindForeignKnobs) {
  // Dead parameters can't ride along silently (same contract as policy
  // knobs in exp_test.cpp).
  EXPECT_NE(fault_error(R"([{"kind": "outage", "rate_scale": 0.5}])")
                .find("faults.0.rate_scale"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "rate_cliff", "extra_delay_ms": 5}])")
                .find("faults.0.extra_delay_ms"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "delay_spike", "p_good_to_bad": 0.1}])")
                .find("faults.0.p_good_to_bad"),
            std::string::npos);
  EXPECT_NE(fault_error(R"([{"kind": "outage", "seed": 1}])")
                .find("faults.0.seed"),
            std::string::npos);
}

TEST(FaultSpec, RejectsOverlappingAvailabilityWindows) {
  const std::string err = fault_error(
      R"([{"kind": "outage", "channel": 0, "start_s": 1, "duration_s": 3},
          {"kind": "flap", "channel": 0, "start_s": 2, "duration_s": 3}])");
  EXPECT_NE(err.find("faults.1"), std::string::npos) << err;
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
  // Disjoint in time or on different channels is fine.
  EXPECT_EQ(fault_error(
                R"([{"kind": "outage", "channel": 0, "start_s": 1},
                    {"kind": "outage", "channel": 0, "start_s": 5}])"),
            "");
  EXPECT_EQ(fault_error(
                R"([{"kind": "outage", "channel": 0, "start_s": 1},
                    {"kind": "outage", "channel": 1, "start_s": 1}])"),
            "");
}

// ---- End-to-end determinism under faults ----

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultDeterminism, GeBurstRunsAreByteIdentical) {
  const auto spec = exp::ScenarioSpec::from_json_text(R"({
    "name": "ge_det", "workload": "bulk", "duration_s": 4,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel",
    "faults": [
      {"kind": "ge_burst", "channel": 0, "start_s": 1, "duration_s": 2,
       "p_good_to_bad": 0.05, "p_bad_to_good": 0.3, "loss_in_bad": 0.9},
      {"kind": "flap", "channel": 1, "start_s": 1, "duration_s": 2,
       "period_s": 0.4, "seed": 5}
    ],
    "telemetry": {"period_ms": 20, "audit": true}
  })");
  const std::string p1 = ::testing::TempDir() + "fault_det_a";
  const std::string p2 = ::testing::TempDir() + "fault_det_b";
  exp::RunOptions o1, o2;
  o1.out_prefix = p1;
  o2.out_prefix = p2;
  const auto r1 = exp::run_scenario(spec, o1);
  const auto r2 = exp::run_scenario(spec, o2);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  ASSERT_TRUE(r2.error.empty()) << r2.error;
  EXPECT_EQ(exp::to_jsonl({r1}), exp::to_jsonl({r2}));
  const std::string t1 = slurp(p1 + ".telemetry.jsonl");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, slurp(p2 + ".telemetry.jsonl"));
  EXPECT_EQ(slurp(p1 + ".audit.jsonl"), slurp(p2 + ".audit.jsonl"));
}

TEST(FaultDeterminism, OutageRecoveryMetricIsReported) {
  const auto spec = exp::ScenarioSpec::from_json_text(R"({
    "name": "trec", "workload": "bulk", "duration_s": 6,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel",
    "faults": [{"kind": "outage", "channel": 0, "start_s": 2,
                "duration_s": 1}]
  })");
  const auto r = exp::run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.metrics.contains("fault.outage0.time_to_recover_ms"));
  const double trec = r.metrics.at("fault.outage0.time_to_recover_ms");
  // ACKs keep flowing over URLLC, so recovery is near-immediate.
  EXPECT_GE(trec, 0.0);
  EXPECT_LT(trec, 1000.0);
  EXPECT_TRUE(r.metrics.contains("fault.blackout_committed_bytes"));
}

}  // namespace
}  // namespace hvc
