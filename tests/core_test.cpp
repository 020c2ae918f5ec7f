// Tests for the core façade: policy factory, scenario construction, and
// the one-call experiment runners (which back every benchmark).
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "steer/dchannel.hpp"
#include "trace/gen5g.hpp"

namespace hvc::core {
namespace {

using sim::seconds;

TEST(PolicyFactory, AllNamesResolve) {
  for (const char* name :
       {"embb-only", "urllc-only", "round-robin", "weighted", "min-delay",
        "dchannel", "dchannel+prio", "msg-priority", "redundant",
        "cost-aware"}) {
    EXPECT_NE(make_policy(name), nullptr) << name;
  }
  EXPECT_THROW(make_policy("nope"), std::invalid_argument);
}

TEST(PolicyFactory, VariantsDeclareCorrectLayer) {
  EXPECT_FALSE(make_policy("dchannel")->uses_app_info());
  EXPECT_FALSE(make_policy("dchannel")->uses_flow_priority());
  EXPECT_TRUE(make_policy("dchannel+prio")->uses_flow_priority());
  EXPECT_TRUE(make_policy("msg-priority")->uses_app_info());
}

TEST(ScenarioConfig, Fig1HasPaperChannels) {
  const auto cfg = ScenarioConfig::fig1();
  ASSERT_EQ(cfg.channels.size(), 2u);
  EXPECT_EQ(cfg.channels[0].rtt(), sim::milliseconds(50));
  EXPECT_EQ(cfg.channels[1].rtt(), sim::milliseconds(5));
}

TEST(Scenario, FactoryOverridesNamedPolicy) {
  auto cfg = ScenarioConfig::fig1("embb-only");
  bool used = false;
  cfg.up_factory = [&] {
    used = true;
    return make_policy("urllc-only");
  };
  Scenario sc(cfg);
  EXPECT_TRUE(used);
}

TEST(RunBulk, GoodputMatchesChannelForSingleChannelPolicy) {
  const auto r = run_bulk(ScenarioConfig::fig1("embb-only"), "cubic",
                          seconds(20));
  EXPECT_GT(r.goodput_bps, 30e6);
  EXPECT_LT(r.goodput_bps, 62e6);
  // All data on channel 0.
  EXPECT_EQ(r.data_packets_per_channel[1], 0);
  EXPECT_FALSE(r.rtt_ms.empty());
  EXPECT_GT(r.goodput_mbps.size(), 10u);
}

TEST(RunBulk, Fig1ShapeHolds) {
  // The paper's core qualitative claim, as a regression test: under
  // steering, loss-based CUBIC far outperforms delay-based Vegas.
  const auto cubic = run_bulk(ScenarioConfig::fig1(), "cubic", seconds(30));
  const auto vegas = run_bulk(ScenarioConfig::fig1(), "vegas", seconds(30));
  EXPECT_GT(cubic.goodput_bps, 5 * vegas.goodput_bps);
  EXPECT_LT(vegas.goodput_bps, 10e6);
}

TEST(RunBulk, HvcAwareCcaFixesSteeringCollapse) {
  const auto bbr = run_bulk(ScenarioConfig::fig1(), "bbr", seconds(30));
  const auto hvc = run_bulk(ScenarioConfig::fig1(), "hvc", seconds(30));
  EXPECT_GT(hvc.goodput_bps, 3 * bbr.goodput_bps);
  EXPECT_GT(hvc.goodput_bps, 40e6);
}

TEST(RunVideo, SchemesOrderAsInFig2) {
  const auto mk = [&](const char* policy) {
    return run_video(
        ScenarioConfig::traced(trace::FiveGProfile::kMmWaveDriving, policy,
                               seconds(60), 42),
        {}, {}, seconds(30));
  };
  const auto embb = mk("embb-only");
  const auto dch = mk("dchannel");
  const auto prio = mk("msg-priority");
  const double p95_embb = embb.stats.latency_ms.percentile(95);
  const double p95_dch = dch.stats.latency_ms.percentile(95);
  const double p95_prio = prio.stats.latency_ms.percentile(95);
  EXPECT_LT(p95_prio, p95_dch);
  EXPECT_LT(p95_dch, p95_embb);
  // SSIM ordering is the mirror image (quality traded for latency).
  EXPECT_GE(embb.stats.ssim.mean(), prio.stats.ssim.mean() - 0.01);
  // CDF vectors are sorted and sized to the frame count.
  EXPECT_EQ(prio.latency_cdf_ms.size(),
            static_cast<std::size_t>(prio.stats.frames_decoded));
  EXPECT_TRUE(std::is_sorted(prio.latency_cdf_ms.begin(),
                             prio.latency_cdf_ms.end()));
}

TEST(RunWeb, ProducesPltSamplesForEveryLoad) {
  const auto corpus = app::web::generate_corpus({.pages = 4, .seed = 11});
  WebRunConfig web;
  web.loads_per_page = 2;
  const auto r = run_web(
      ScenarioConfig::traced(trace::FiveGProfile::kLowbandStationary,
                             "embb-only", seconds(60), 42),
      corpus, web);
  EXPECT_EQ(r.plt_ms.count(), 8u);
  EXPECT_EQ(r.per_page_mean_ms.count(), 4u);
  EXPECT_EQ(r.timeouts, 0);
  EXPECT_GT(r.plt_ms.min(), 50.0);
}

TEST(RunWeb, DChannelBeatsEmbbOnlyOnDrivingTrace) {
  const auto corpus = app::web::generate_corpus({.pages = 6, .seed = 11});
  WebRunConfig web;
  web.loads_per_page = 2;
  auto embb_cfg = ScenarioConfig::traced(
      trace::FiveGProfile::kLowbandDriving, "embb-only", seconds(90), 42);
  auto dch_cfg = ScenarioConfig::traced(
      trace::FiveGProfile::kLowbandDriving, "dchannel", seconds(90), 42);
  dch_cfg.up_factory = dch_cfg.down_factory = [] {
    return std::make_unique<steer::DChannelPolicy>(
        steer::DChannelConfig::web_tuned());
  };
  const auto embb = run_web(embb_cfg, corpus, web);
  const auto dch = run_web(dch_cfg, corpus, web);
  EXPECT_LT(dch.plt_ms.mean(), embb.plt_ms.mean());
}

TEST(Experiments, DeterministicAcrossInvocations) {
  const auto a = run_bulk(ScenarioConfig::fig1(), "bbr", seconds(10));
  const auto b = run_bulk(ScenarioConfig::fig1(), "bbr", seconds(10));
  EXPECT_DOUBLE_EQ(a.goodput_bps, b.goodput_bps);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
}

}  // namespace
}  // namespace hvc::core
