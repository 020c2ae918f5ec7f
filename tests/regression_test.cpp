// Paper-shape regression tests: the headline quantitative relationships
// from each reproduced figure/table, pinned as fast assertions so that
// future changes to any module cannot silently break the reproduction.
// (The full-scale versions live in bench/; these run in seconds.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "exp/report.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "net/node.hpp"
#include "quic/mp_connection.hpp"
#include "sim/seed.hpp"
#include "steer/basic_policies.hpp"
#include "steer/dchannel.hpp"
#include "trace/gen5g.hpp"

namespace hvc {
namespace {

using sim::seconds;

// Fig. 1a, distilled: under aggressive DChannel steering, CUBIC retains
// most of the fat channel while BBR and Vivace collapse below 20% of it.
TEST(PaperShape, Fig1aOrdering) {
  const auto cubic =
      core::run_bulk(core::ScenarioConfig::fig1(), "cubic", seconds(30));
  const auto bbr =
      core::run_bulk(core::ScenarioConfig::fig1(), "bbr", seconds(30));
  const auto vivace =
      core::run_bulk(core::ScenarioConfig::fig1(), "vivace", seconds(30));
  EXPECT_GT(cubic.goodput_bps, 40e6);
  EXPECT_LT(bbr.goodput_bps, 12e6);
  EXPECT_LT(vivace.goodput_bps, 5e6);
  EXPECT_GT(cubic.goodput_bps, 4 * bbr.goodput_bps);
}

// Fig. 1b, distilled: the RTT signal BBR sees under steering spans the
// URLLC floor to the eMBB value — variance manufactured by steering.
TEST(PaperShape, Fig1bRttOscillation) {
  const auto r =
      core::run_bulk(core::ScenarioConfig::fig1(), "bbr", seconds(15));
  double mn = 1e18, mx = 0;
  for (const auto& p : r.rtt_ms.points()) {
    mn = std::min(mn, p.value);
    mx = std::max(mx, p.value);
  }
  EXPECT_LT(mn, 15.0);  // URLLC-steered samples
  EXPECT_GT(mx, 25.0);  // eMBB path samples
}

// Fig. 2, distilled: on an outage-prone trace, priority steering's p95
// frame latency beats DChannel's by >1.5x and eMBB-only's by >5x, at an
// SSIM cost below 0.08 (paper: 2.26x, 26x, 0.068).
TEST(PaperShape, Fig2VideoOrdering) {
  const auto run = [](const char* policy) {
    return core::run_video(
        core::ScenarioConfig::traced(trace::FiveGProfile::kMmWaveDriving,
                                     policy, seconds(60), 42),
        {}, {}, seconds(40));
  };
  const auto embb = run("embb-only");
  const auto dch = run("dchannel");
  const auto prio = run("msg-priority");
  const double p_embb = embb.stats.latency_ms.percentile(95);
  const double p_dch = dch.stats.latency_ms.percentile(95);
  const double p_prio = prio.stats.latency_ms.percentile(95);
  EXPECT_GT(p_dch / p_prio, 1.5);
  EXPECT_GT(p_embb / p_prio, 5.0);
  EXPECT_LT(embb.stats.ssim.mean() - prio.stats.ssim.mean(), 0.08);
}

// Table 1, distilled: web-tuned DChannel cuts mean PLT vs eMBB-only on
// the driving trace by at least 15% (paper: 36.8%).
TEST(PaperShape, Table1WebGain) {
  const auto corpus = app::web::generate_corpus({.pages = 8, .seed = 2023});
  core::WebRunConfig web;
  web.loads_per_page = 3;
  const auto embb = core::run_web(
      core::ScenarioConfig::traced(trace::FiveGProfile::kLowbandDriving,
                                   "embb-only", seconds(120), 42),
      corpus, web);
  auto dch_cfg = core::ScenarioConfig::traced(
      trace::FiveGProfile::kLowbandDriving, "dchannel", seconds(120), 42);
  dch_cfg.up_factory = dch_cfg.down_factory = [] {
    return std::make_unique<steer::DChannelPolicy>(
        steer::DChannelConfig::web_tuned());
  };
  const auto dch = core::run_web(dch_cfg, corpus, web);
  EXPECT_LT(dch.plt_ms.mean(), 0.85 * embb.plt_ms.mean());
}

// §3.2, distilled: the HVC-aware CCA recovers what BBR loses.
TEST(PaperShape, HvcCcaRecovery) {
  const auto bbr =
      core::run_bulk(core::ScenarioConfig::fig1(), "bbr", seconds(20));
  const auto hvc =
      core::run_bulk(core::ScenarioConfig::fig1(), "hvc", seconds(20));
  EXPECT_GT(hvc.goodput_bps, 40e6);
  EXPECT_GT(hvc.goodput_bps / bbr.goodput_bps, 4.0);
}

// scenarios/outage_recovery.json, distilled: a 3 s eMBB blackout under
// DChannel steering fails over within milliseconds of the outage end and
// commits nothing into the dead link, while a single-channel baseline
// blasts bytes into the blackout and needs RTO probes to come back.
// (The full artifact-producing versions are scenarios/outage_recovery.json
// and scenarios/outage_recovery_single_channel.json.)
TEST(PaperShape, OutageRecoveryGoldenNumbers) {
  const auto outage = [] {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kOutage;
    e.channel = 0;
    e.dir = fault::FaultDir::kBoth;
    e.start = seconds(10);
    e.duration = seconds(3);
    return e;
  }();
  // Time from outage end until cumulative acked bytes first grow again —
  // the same "time to recover" hvc_run reports for outage scenarios.
  const auto recover_ms = [&](const core::BulkResult& r) {
    const sim::Time end = outage.start + outage.duration;
    double at_end = 0.0;
    for (const auto& p : r.acked_bytes.points()) {
      if (p.t <= end) {
        at_end = p.value;
      } else if (p.value > at_end) {
        return sim::to_millis(p.t - end);
      }
    }
    return -1.0;
  };

  auto dch_cfg = core::ScenarioConfig::fig1("dchannel");
  dch_cfg.faults.events.push_back(outage);
  const auto dch = core::run_bulk(dch_cfg, "cubic", seconds(20));

  auto solo_cfg = core::ScenarioConfig::fig1("embb-only");
  solo_cfg.channels.resize(1);  // no failover target: the honest baseline
  solo_cfg.faults.events.push_back(outage);
  const auto solo = core::run_bulk(solo_cfg, "cubic", seconds(20));

  // Bytes acked inside the blackout window itself: the continuity the
  // paper's heterogeneous-channel story buys. (End-to-run goodput is the
  // wrong yardstick here — failover parks CUBIC on the 2 Mbps URLLC pipe
  // and it regrows slowly, while the solo flow slow-start-restarts over
  // the fat link the moment it returns.)
  // Skip the first 500 ms of the window: data already in flight when the
  // link dies still drains into ACKs for about one RTT.
  const auto acked_in_blackout = [&](const core::BulkResult& r) {
    const sim::Time from = outage.start + sim::milliseconds(500);
    double before = 0.0, during = 0.0;
    for (const auto& p : r.acked_bytes.points()) {
      if (p.t <= from) before = p.value;
      if (p.t <= outage.start + outage.duration) during = p.value;
    }
    return during - before;
  };

  // Failover keeps data flowing through the blackout and wastes nothing.
  EXPECT_GT(acked_in_blackout(dch), 100'000.0);  // ~2 Mbps * 3 s feasible
  EXPECT_EQ(dch.fault_blackout_committed_bytes, 0);
  EXPECT_GT(dch.goodput_bps, 8e6);  // still a live, useful flow
  const double dch_rec = recover_ms(dch);
  EXPECT_GE(dch_rec, 0.0);
  EXPECT_LT(dch_rec, 200.0);
  // The stuck baseline stalls for the whole window, pays for every probe
  // sent into the dead link, and only resumes once an RTO-backed-off
  // probe lands after the outage.
  EXPECT_LT(acked_in_blackout(solo), 1'000.0);
  EXPECT_GT(solo.fault_blackout_committed_bytes, 20'000);
  EXPECT_GT(solo.rto_count, 0);
  const double solo_rec = recover_ms(solo);
  EXPECT_GE(solo_rec, 0.0);
  EXPECT_LT(solo_rec, 3000.0);
}

// §3.1 deployment claim, distilled: DChannel's gains require only the
// shim — the transports and applications here are identical binaries
// across the two runs; only the policy object differs.
TEST(PaperShape, SteeringIsTransparentToEndpoints) {
  const auto with =
      core::run_bulk(core::ScenarioConfig::fig1("min-delay"), "cubic",
                     seconds(10));
  const auto without =
      core::run_bulk(core::ScenarioConfig::fig1("embb-only"), "cubic",
                     seconds(10));
  // Both complete; steering used the second channel; no-steering did not.
  EXPECT_GT(with.data_packets_per_channel[1], 0);
  EXPECT_EQ(without.data_packets_per_channel[1], 0);
}

// ---- Transport golden: exact counts, not bounds ----
//
// PaperShape above pins only coarse bounds (BBR < 12 Mbps), and
// diffsim_test compares configurations of one binary against each other,
// so neither notices a transport change that shifts a single
// retransmission. This table pins the exact integer outcome of a 5 s
// Fig. 1 bulk download for every CCA under eMBB-only and DChannel
// steering. A change that claims to leave transport behaviour untouched
// (a data-structure or complexity rewrite) must leave every number here
// unchanged; a change that means to alter behaviour re-captures them and
// says why.

struct BulkGolden {
  const char* cca;
  const char* policy;
  std::int64_t retransmissions;
  std::int64_t rto_count;
  std::size_t rtt_samples;
  std::int64_t acked_bytes;  ///< final cumulative acked bytes
  std::vector<std::int64_t> data_packets_per_channel;
};

// Without this gtest prints a BulkGolden as its raw bytes, pointers
// included, which ASLR makes differ on every run; the printed value is
// part of the CTest name.
void PrintTo(const BulkGolden& g, std::ostream* os) {
  *os << g.cca << ' ' << g.policy;
}

const BulkGolden kBulkGoldens[] = {
    {"cubic", "embb-only", 0, 0, 14862, 21713120, {15061, 0}},
    {"cubic", "dchannel", 26, 0, 2284, 3308360, {1488, 830}},
    {"bbr", "embb-only", 0, 0, 4491, 6558320, {4617, 0}},
    {"bbr", "dchannel", 0, 0, 2257, 3293760, {1437, 833}},
    {"vegas", "embb-only", 0, 0, 23211, 33902660, {23758, 0}},
    {"vegas", "dchannel", 16, 0, 2652, 3860240, {1844, 831}},
    {"vivace", "embb-only", 0, 0, 1408, 2057140, {1428, 0}},
    {"vivace", "dchannel", 0, 0, 635, 928560, {168, 468}},
    {"hvc", "embb-only", 0, 0, 2595, 3790160, {2666, 0}},
    {"hvc", "dchannel", 0, 0, 14647, 21383160, {13954, 833}},
};

class TransportGoldenTest : public ::testing::TestWithParam<BulkGolden> {};

TEST_P(TransportGoldenTest, Fig1BulkCountsAreExact) {
  const BulkGolden& g = GetParam();
  const net::IdScope ids;  // ids from 1, whatever ran before in-process
  const auto r = core::run_bulk(core::ScenarioConfig::fig1(g.policy), g.cca,
                                seconds(5));
  ASSERT_FALSE(r.acked_bytes.empty());
  const auto acked =
      static_cast<std::int64_t>(r.acked_bytes.points().back().value);
  std::string per_channel;
  for (const auto n : r.data_packets_per_channel) {
    per_channel += (per_channel.empty() ? "" : ", ") + std::to_string(n);
  }
  SCOPED_TRACE(::testing::Message()
               << "actual: {\"" << g.cca << "\", \"" << g.policy << "\", "
               << r.retransmissions << ", " << r.rto_count << ", "
               << r.rtt_ms.size() << ", " << acked << ", {" << per_channel
               << "}}");
  EXPECT_EQ(r.retransmissions, g.retransmissions);
  EXPECT_EQ(r.rto_count, g.rto_count);
  EXPECT_EQ(r.rtt_ms.size(), g.rtt_samples);
  EXPECT_EQ(acked, g.acked_bytes);
  EXPECT_EQ(r.data_packets_per_channel, g.data_packets_per_channel);
}

INSTANTIATE_TEST_SUITE_P(
    Fig1, TransportGoldenTest, ::testing::ValuesIn(kBulkGoldens),
    [](const ::testing::TestParamInfo<BulkGolden>& p) {
      std::string name = std::string(p.param.cca) + "_" + p.param.policy;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- City golden: exact results rows and span digests ----
//
// The transport golden's counterpart for the population engine. A 20 s,
// 2000-user city grid under both policies, with spans on, must produce
// exactly these results.jsonl rows and spans.jsonl bytes (FNV-1a 64 of
// each file). The rows carry city.events, city.span_bytes and every
// cohort statistic; the span files carry every retention decision. A
// change that claims to leave city behaviour untouched (src/pop,
// src/obs/span, src/stats, the event queue) must leave them unchanged; a
// change that means to alter it re-captures them and says why.

constexpr const char* kCityGoldenSweep = R"({
  "name": "city_golden",
  "base": {
    "name": "city_golden", "workload": "city", "duration_s": 20, "seed": 5,
    "channels": [
      {"type": "embb", "rate_mbps": 200, "rtt_ms": 50},
      {"type": "urllc", "rate_mbps": 5, "rtt_ms": 5}
    ],
    "city": {"users": 2000,
             "churn": {"arrival_rate_per_s": 2, "mean_session_s": 30}},
    "spans": {}
  },
  "axes": {"policy": ["embb-only", "dchannel"]}
})";

struct CityGolden {
  std::string row;             ///< the run's results.jsonl line
  std::uint64_t spans_fnv;     ///< sim::fnv1a64 of its spans.jsonl
};

const CityGolden kCityGoldens[] = {
    {
        R"({"run":0,"name":"city_golden","params":{"policy":"embb-only"})"
        R"(,"metrics":{"city.arrivals":46)"
        R"(,"city.background.xput_mbps.count":1.8e+02)"
        R"(,"city.background.xput_mbps.max":6.3055267333984375)"
        R"(,"city.background.xput_mbps.mean":0.3147719489203559)"
        R"(,"city.background.xput_mbps.min":0.2317962646484375)"
        R"(,"city.background.xput_mbps.p25":0.240234375)"
        R"(,"city.background.xput_mbps.p5":0.232421875)"
        R"(,"city.background.xput_mbps.p50":0.26171875)"
        R"(,"city.background.xput_mbps.p75":0.30859375)"
        R"(,"city.background.xput_mbps.p90":0.35546875)"
        R"(,"city.background.xput_mbps.p95":0.37109375)"
        R"(,"city.background.xput_mbps.p99":0.6015625)"
        R"(,"city.background.xput_mbps.stddev":0.4506671787738787)"
        R"(,"city.bg_transfers":1.8e+02,"city.chunks":1187)"
        R"(,"city.departures":951,"city.events":28886)"
        R"(,"city.jain.background":0.580842233999584)"
        R"(,"city.jain.background.users":142)"
        R"(,"city.jain.video":0.9427933357932361)"
        R"(,"city.jain.video.users":433,"city.jain.web":0.8313106506830834)"
        R"(,"city.jain.web.users":977,"city.pages":2568)"
        R"(,"city.peak_active":2e+03,"city.span_bytes":53914)"
        R"(,"city.spans_offered":3755,"city.spans_retained":46)"
        R"(,"city.stats_bytes":46795,"city.urllc_admitted":0)"
        R"(,"city.urllc_spill_rate":0,"city.urllc_spilled":0)"
        R"(,"city.users":2e+03,"city.video.latency_ms.count":1187)"
        R"(,"city.video.latency_ms.max":17347.557174682617)"
        R"(,"city.video.latency_ms.mean":9983.225192024212)"
        R"(,"city.video.latency_ms.min":186.15478515625)"
        R"(,"city.video.latency_ms.p25":6336)"
        R"(,"city.video.latency_ms.p5":4064)"
        R"(,"city.video.latency_ms.p50":10368)"
        R"(,"city.video.latency_ms.p75":13696)"
        R"(,"city.video.latency_ms.p90":15488)"
        R"(,"city.video.latency_ms.p95":1.6e+04)"
        R"(,"city.video.latency_ms.p99":1.664e+04)"
        R"(,"city.video.latency_ms.stddev":4033.4277344451716)"
        R"(,"city.web.plt_ms.count":2568)"
        R"(,"city.web.plt_ms.max":8541.371185302734)"
        R"(,"city.web.plt_ms.mean":1456.3291448195032)"
        R"(,"city.web.plt_ms.min":72.89546203613281)"
        R"(,"city.web.plt_ms.p25":888,"city.web.plt_ms.p5":452)"
        R"(,"city.web.plt_ms.p50":1.36e+03,"city.web.plt_ms.p75":1.84e+03)"
        R"(,"city.web.plt_ms.p90":2336,"city.web.plt_ms.p95":2656)"
        R"(,"city.web.plt_ms.p99":4928)"
        R"(,"city.web.plt_ms.stddev":845.7265067712553})"
        R"(,"obs":{"pop.arrivals":46,"pop.bg_transfers":1.8e+02)"
        R"(,"pop.chunks":1187,"pop.departures":951,"pop.pages":2568)"
        R"(,"pop.peak_active":2e+03,"pop.urllc_admitted":0)"
        R"(,"pop.urllc_spilled":0}})",
        0x99cc438b49d5c470ull},
    {
        R"({"run":1,"name":"city_golden","params":{"policy":"dchannel"})"
        R"(,"metrics":{"city.arrivals":46)"
        R"(,"city.background.xput_mbps.count":184)"
        R"(,"city.background.xput_mbps.max":6.34442138671875)"
        R"(,"city.background.xput_mbps.mean":0.3234647667926291)"
        R"(,"city.background.xput_mbps.min":0.23919677734375)"
        R"(,"city.background.xput_mbps.p25":0.248046875)"
        R"(,"city.background.xput_mbps.p5":0.240234375)"
        R"(,"city.background.xput_mbps.p50":0.26953125)"
        R"(,"city.background.xput_mbps.p75":0.31640625)"
        R"(,"city.background.xput_mbps.p90":0.37109375)"
        R"(,"city.background.xput_mbps.p95":0.38671875)"
        R"(,"city.background.xput_mbps.p99":0.6171875)"
        R"(,"city.background.xput_mbps.stddev":0.4481690525100296)"
        R"(,"city.bg_transfers":184,"city.chunks":1222)"
        R"(,"city.departures":951,"city.events":29229)"
        R"(,"city.jain.background":0.5974475207793921)"
        R"(,"city.jain.background.users":145)"
        R"(,"city.jain.video":0.942160457764135,"city.jain.video.users":433)"
        R"(,"city.jain.web":0.8285809107334071,"city.jain.web.users":979)"
        R"(,"city.pages":2595,"city.peak_active":2e+03)"
        R"(,"city.span_bytes":53578,"city.spans_offered":3817)"
        R"(,"city.spans_retained":48,"city.stats_bytes":46795)"
        R"(,"city.urllc_admitted":6704)"
        R"(,"city.urllc_spill_rate":0.39087770307105213)"
        R"(,"city.urllc_spilled":4302,"city.users":2e+03)"
        R"(,"city.video.latency_ms.count":1222)"
        R"(,"city.video.latency_ms.max":16869.458892822266)"
        R"(,"city.video.latency_ms.mean":9865.812584485242)"
        R"(,"city.video.latency_ms.min":185.81446838378906)"
        R"(,"city.video.latency_ms.p25":6208)"
        R"(,"city.video.latency_ms.p5":3936)"
        R"(,"city.video.latency_ms.p50":10112)"
        R"(,"city.video.latency_ms.p75":1.344e+04)"
        R"(,"city.video.latency_ms.p90":15232)"
        R"(,"city.video.latency_ms.p95":15744)"
        R"(,"city.video.latency_ms.p99":1.664e+04)"
        R"(,"city.video.latency_ms.stddev":4003.782516202074)"
        R"(,"city.web.plt_ms.count":2595)"
        R"(,"city.web.plt_ms.max":8283.87973022461)"
        R"(,"city.web.plt_ms.mean":1408.3841514925507)"
        R"(,"city.web.plt_ms.min":72.89546203613281)"
        R"(,"city.web.plt_ms.p25":856,"city.web.plt_ms.p5":436)"
        R"(,"city.web.plt_ms.p50":1296,"city.web.plt_ms.p75":1776)"
        R"(,"city.web.plt_ms.p90":2208,"city.web.plt_ms.p95":2592)"
        R"(,"city.web.plt_ms.p99":4.8e+03)"
        R"(,"city.web.plt_ms.stddev":824.2556199968227})"
        R"(,"obs":{"pop.arrivals":46,"pop.bg_transfers":184)"
        R"(,"pop.chunks":1222,"pop.departures":951,"pop.pages":2595)"
        R"(,"pop.peak_active":2e+03,"pop.urllc_admitted":6704)"
        R"(,"pop.urllc_spilled":4302}})",
        0xdda0fefe23545600ull},
};

TEST(CityGolden, ResultsRowsAndSpanDigestsAreExact) {
  const std::string prefix = ::testing::TempDir() + "hvc_city_golden";
  const auto results = exp::run_sweep(
      exp::SweepSpec::from_json_text(kCityGoldenSweep), 1, nullptr, prefix);
  ASSERT_EQ(results.size(), std::size(kCityGoldens));
  std::istringstream rows(exp::to_jsonl(results));
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string row;
    ASSERT_TRUE(std::getline(rows, row));
    const std::string spans = exp::read_file(
        prefix + ".run" + std::to_string(i) + ".spans.jsonl");
    SCOPED_TRACE(::testing::Message()
                 << "run " << i << " actual spans fnv 0x" << std::hex
                 << sim::fnv1a64(spans) << ", row:\n" << row);
    EXPECT_EQ(row, kCityGoldens[i].row);
    EXPECT_EQ(sim::fnv1a64(spans), kCityGoldens[i].spans_fnv);
  }
}

// ---- Trace golden: every generated opportunity, and two traced runs ----
//
// The capacity traces behind Fig. 2 and Table 1 (each 5G profile, down
// and up) and the LEO channel, pinned as a count and an FNV-1a 64 digest
// of every opportunity time (its 8 bytes, low byte first). 7.0035 s is
// not a multiple of the 10 ms Markov step, so the last step is cut. The
// values were captured when every opportunity had its own vector entry;
// a change to how traces are stored must leave them unchanged. Two short
// runs on those traces pin what links, steering snapshots and the
// transports then do with them: their exact results rows.

std::uint64_t opportunity_digest(const trace::CapacityTrace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const sim::Time at : t.opportunities()) {
    const auto v = static_cast<std::uint64_t>(at);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct TraceDigest {
  const char* profile;  ///< a 5g profile name, or "leo"
  double duration_s;
  std::uint64_t seed;
  std::size_t down_count;
  std::uint64_t down_fnv;
  std::size_t up_count;
  std::uint64_t up_fnv;
};

const TraceDigest kTraceDigests[] = {
    {"lowband-stationary", 60, 1, 280949, 0x031175520e89d640ull, 70843,
     0x12e90e81c2289ab4ull},
    {"lowband-stationary", 7.0035, 43, 33620, 0x6b0022586be93687ull, 8316,
     0x11f93ec0652ec777ull},
    {"lowband-driving", 60, 1, 160993, 0x2d730b817dc3d609ull, 50084,
     0xc311a79d970d2e66ull},
    {"lowband-driving", 7.0035, 43, 17948, 0xf28d74d927bda998ull, 3804,
     0xb995da0eb207b95dull},
    {"mmwave-driving", 60, 1, 1747577, 0x57c2c0a4521b621dull, 521511,
     0xd1d3e3b9f26552d4ull},
    {"mmwave-driving", 7.0035, 43, 152438, 0xc75acb0b608ca379ull, 19845,
     0x5e1c207248b7f704ull},
    {"leo", 60, 1, 861557, 0x07bba909db4c4d78ull, 852244,
     0x9c8010c897b85300ull},
    {"leo", 7.0035, 43, 103919, 0xd9da16b829fd4500ull, 93554,
     0xe469bad0e1cb1eb5ull},
};

TEST(TraceGolden, GeneratedOpportunitiesAreExact) {
  for (const TraceDigest& g : kTraceDigests) {
    const std::string profile = g.profile;
    const sim::Duration d = sim::seconds_f(g.duration_s);
    channel::ChannelProfile p;
    if (profile == "leo") {
      p = channel::leo_profile(g.seed, d);
    } else {
      const trace::FiveGProfile fp =
          profile == "lowband-stationary"
              ? trace::FiveGProfile::kLowbandStationary
          : profile == "lowband-driving" ? trace::FiveGProfile::kLowbandDriving
                                         : trace::FiveGProfile::kMmWaveDriving;
      p = channel::embb_trace_profile(fp, d, g.seed);
    }
    const trace::CapacityTrace& down = p.capacity_down;
    const trace::CapacityTrace& up = p.capacity_up;
    SCOPED_TRACE(::testing::Message()
                 << profile << " " << g.duration_s << " s seed " << g.seed
                 << ": actual down " << down.opportunities_per_period()
                 << " 0x" << std::hex << opportunity_digest(down) << std::dec
                 << ", up " << up.opportunities_per_period() << " 0x"
                 << std::hex << opportunity_digest(up));
    EXPECT_EQ(down.opportunities_per_period(), g.down_count);
    EXPECT_EQ(opportunity_digest(down), g.down_fnv);
    EXPECT_EQ(up.opportunities_per_period(), g.up_count);
    EXPECT_EQ(opportunity_digest(up), g.up_fnv);
  }
}

constexpr const char* kTraceGoldenWeb = R"({
  "name": "trace_golden_web", "workload": "web", "duration_s": 30,
  "seed": 7, "cca": "cubic",
  "channels": [{"type": "5g", "profile": "lowband-driving"},
               {"type": "urllc"}],
  "policy": {"name": "dchannel", "preset": "web-tuned",
             "use_flow_priority": true},
  "web": {"pages": 4, "corpus_seed": 2023, "loads_per_page": 2,
          "bg_upload_bytes": 5000, "bg_download_bytes": 10000}
})";

constexpr const char* kTraceGoldenVideo = R"({
  "name": "trace_golden_video", "workload": "video", "duration_s": 20.005,
  "seed": 7,
  "channels": [{"type": "5g", "profile": "mmwave-driving"},
               {"type": "urllc"}],
  "policy": "msg-priority",
  "video": {"duration_s": 10, "fps": 30, "layer_kbps": [400, 4100, 7500]}
})";

const char* const kTraceGoldenRows[] = {
        R"({"run":0,"name":"trace_golden_web","params":{})"
        R"(,"metrics":{"web.per_page_mean_ms":910.7772755000001)"
        R"(,"web.plt_ms.count":8,"web.plt_ms.max":2145.975418)"
        R"(,"web.plt_ms.mean":910.7772755,"web.plt_ms.min":313.821617)"
        R"(,"web.plt_ms.p25":474.742265,"web.plt_ms.p5":365.78000075)"
        R"(,"web.plt_ms.p50":621.10923,"web.plt_ms.p75":1202.07860725)"
        R"(,"web.plt_ms.p90":1736.0643492999998)"
        R"(,"web.plt_ms.p95":1941.0198836499997)"
        R"(,"web.plt_ms.p99":2104.9843111299997,"web.timeouts":0})"
        R"(,"obs":{"app.web.objects_loaded":3.6e+02)"
        R"(,"app.web.pages_loaded":8,"app.web.plt_ms.count":8)"
        R"(,"app.web.plt_ms.max":2145.975418)"
        R"(,"app.web.plt_ms.mean":910.7772755)"
        R"(,"app.web.plt_ms.p50":621.10923)"
        R"(,"app.web.plt_ms.p95":1941.0198836499997)"
        R"(,"app.web.plt_ms.p99":2104.9843111299997)"
        R"(,"link.embb-lowband-driving-down.delivered_bytes":11189895)"
        R"(,"link.embb-lowband-driving-down.delivered_packets":8839)"
        R"(,"link.embb-lowband-driving-down.dropped_queue":0)"
        R"(,"link.embb-lowband-driving-down.dropped_wire":0)"
        R"(,"link.embb-lowband-driving-up.delivered_bytes":1.702e+06)"
        R"(,"link.embb-lowband-driving-up.delivered_packets":2445)"
        R"(,"link.embb-lowband-driving-up.dropped_queue":0)"
        R"(,"link.embb-lowband-driving-up.dropped_wire":0)"
        R"(,"link.urllc-down.delivered_bytes":933206)"
        R"(,"link.urllc-down.delivered_packets":1165)"
        R"(,"link.urllc-down.dropped_queue":0)"
        R"(,"link.urllc-down.dropped_wire":0)"
        R"(,"link.urllc-up.delivered_bytes":4.1544e+05)"
        R"(,"link.urllc-up.delivered_packets":7556)"
        R"(,"link.urllc-up.dropped_queue":0,"link.urllc-up.dropped_wire":0)"
        R"(,"node.client.duplicates_suppressed":0)"
        R"(,"node.client.unroutable":0)"
        R"(,"node.server.duplicates_suppressed":0)"
        R"(,"node.server.unroutable":0,"shim.down.ch0.bytes":11189975)"
        R"(,"shim.down.ch0.packets":8841,"shim.down.ch1.bytes":933206)"
        R"(,"shim.down.ch1.packets":1165,"shim.down.duplicates":0)"
        R"(,"shim.up.ch0.bytes":1.702e+06,"shim.up.ch0.packets":2445)"
        R"(,"shim.up.ch1.bytes":4.1544e+05,"shim.up.ch1.packets":7556)"
        R"(,"shim.up.duplicates":0)"
        R"(,"steer.dchannel+flowprio.down.decisions.ch0":8841)"
        R"(,"steer.dchannel+flowprio.down.decisions.ch1":1165)"
        R"(,"steer.dchannel+flowprio.up.decisions.ch0":2445)"
        R"(,"steer.dchannel+flowprio.up.decisions.ch1":7556)"
        R"(,"transport.tcp.packets_sent":9964)"
        R"(,"transport.tcp.retransmissions":236,"transport.tcp.rto_count":0)"
        R"(,"transport.tcp.spurious_loss_marks":18}})",
        R"({"run":0,"name":"trace_golden_video","params":{})"
        R"(,"metrics":{"video.decoded_at_layer0":0)"
        R"(,"video.decoded_at_layer1":83,"video.decoded_at_layer2":0)"
        R"(,"video.decoded_at_layer3":218,"video.frames_concealed":24)"
        R"(,"video.frames_decoded":301,"video.latency_ms.count":301)"
        R"(,"video.latency_ms.max":79.5001)"
        R"(,"video.latency_ms.mean":69.60636229235882)"
        R"(,"video.latency_ms.min":65.500093)"
        R"(,"video.latency_ms.p25":68.500017)"
        R"(,"video.latency_ms.p5":67.166681)"
        R"(,"video.latency_ms.p50":69.500031)"
        R"(,"video.latency_ms.p75":70.500056)"
        R"(,"video.latency_ms.p90":71.500091)"
        R"(,"video.latency_ms.p95":72.166764)"
        R"(,"video.latency_ms.p99":76.50006,"video.ssim.count":301)"
        R"(,"video.ssim.max":0.9870844246437918)"
        R"(,"video.ssim.mean":0.9461040615451628)"
        R"(,"video.ssim.min":0.8605861546576394)"
        R"(,"video.ssim.p25":0.8907001293157011)"
        R"(,"video.ssim.p5":0.8731159018868402)"
        R"(,"video.ssim.p50":0.9690380423937475)"
        R"(,"video.ssim.p75":0.9730496309998167)"
        R"(,"video.ssim.p90":0.9772419950850671)"
        R"(,"video.ssim.p95":0.9807538744738551)"
        R"(,"video.ssim.p99":0.9836198504811855})"
        R"(,"obs":{"app.video.frame_latency_ms.count":301)"
        R"(,"app.video.frame_latency_ms.max":79.5001)"
        R"(,"app.video.frame_latency_ms.mean":69.60636229235882)"
        R"(,"app.video.frame_latency_ms.p50":69.500031)"
        R"(,"app.video.frame_latency_ms.p95":72.166764)"
        R"(,"app.video.frame_latency_ms.p99":76.50006)"
        R"(,"app.video.frames_concealed":24,"app.video.frames_decoded":301)"
        R"(,"app.video.ssim.count":301)"
        R"(,"app.video.ssim.max":0.9870844246437918)"
        R"(,"app.video.ssim.mean":0.9461040615451628)"
        R"(,"app.video.ssim.p50":0.9690380423937475)"
        R"(,"app.video.ssim.p95":0.9807538744738551)"
        R"(,"app.video.ssim.p99":0.9836198504811855)"
        R"(,"link.embb-mmwave-driving-down.delivered_bytes":15857078)"
        R"(,"link.embb-mmwave-driving-down.delivered_packets":10874)"
        R"(,"link.embb-mmwave-driving-down.dropped_queue":0)"
        R"(,"link.embb-mmwave-driving-down.dropped_wire":0)"
        R"(,"link.embb-mmwave-driving-up.delivered_bytes":0)"
        R"(,"link.embb-mmwave-driving-up.delivered_packets":0)"
        R"(,"link.embb-mmwave-driving-up.dropped_queue":0)"
        R"(,"link.embb-mmwave-driving-up.dropped_wire":0)"
        R"(,"link.urllc-down.delivered_bytes":555708)"
        R"(,"link.urllc-down.delivered_packets":543)"
        R"(,"link.urllc-down.dropped_queue":0)"
        R"(,"link.urllc-down.dropped_wire":0)"
        R"(,"link.urllc-up.delivered_bytes":0)"
        R"(,"link.urllc-up.delivered_packets":0)"
        R"(,"link.urllc-up.dropped_queue":0,"link.urllc-up.dropped_wire":0)"
        R"(,"node.client.duplicates_suppressed":0)"
        R"(,"node.client.unroutable":0)"
        R"(,"node.server.duplicates_suppressed":0)"
        R"(,"node.server.unroutable":0,"shim.down.ch0.bytes":15857078)"
        R"(,"shim.down.ch0.packets":10874,"shim.down.ch1.bytes":555708)"
        R"(,"shim.down.ch1.packets":543,"shim.down.duplicates":0)"
        R"(,"shim.up.ch0.bytes":0,"shim.up.ch0.packets":0)"
        R"(,"shim.up.ch1.bytes":0,"shim.up.ch1.packets":0)"
        R"(,"shim.up.duplicates":0)"
        R"(,"steer.msg-priority.down.decisions.ch0":10874)"
        R"(,"steer.msg-priority.down.decisions.ch1":543)"
        R"(,"steer.msg-priority.up.decisions.ch0":0)"
        R"(,"steer.msg-priority.up.decisions.ch1":0}})",
};

TEST(TraceGolden, TracedRunRowsAreExact) {
  const char* specs[] = {kTraceGoldenWeb, kTraceGoldenVideo};
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const exp::RunResult r =
        exp::run_scenario(exp::ScenarioSpec::from_json_text(specs[i]));
    std::string row = exp::to_jsonl({r});
    ASSERT_FALSE(row.empty());
    row.pop_back();  // the trailing newline
    EXPECT_EQ(row, kTraceGoldenRows[i]);
  }
}

// ---- Steering golden: the policies no other golden runs ----
//
// TraceGolden pins dchannel and msg-priority; these rows pin redundant,
// flow-binding and cost-aware steering, whose tuning values (mirror
// queue-fill cap, mirrored priority, latency-sensitive priority) are
// constants in src/steer. Redundant mirrors SVC layer 0 over a
// trace-driven eMBB, flow-binding splits page loads from background
// flows, and cost-aware buys cISP latency for web objects over fiber.
// A change that claims to leave steering untouched must leave every
// row unchanged.

constexpr const char* kSteerGoldenSpecs[] = {
    R"({"name": "steer_golden_redundant", "workload": "video",
        "duration_s": 6, "seed": 7,
        "channels": [{"type": "5g", "profile": "lowband-driving"},
                     {"type": "urllc"}],
        "policy": "redundant", "video": {"duration_s": 3}})",
    R"({"name": "steer_golden_flow_binding", "workload": "web",
        "duration_s": 20, "seed": 7, "cca": "cubic",
        "channels": [{"type": "5g", "profile": "lowband-stationary"},
                     {"type": "urllc"}],
        "policy": "flow-binding",
        "web": {"pages": 2, "loads_per_page": 1}})",
    R"({"name": "steer_golden_cost_aware", "workload": "web",
        "duration_s": 20, "seed": 7, "cca": "cubic",
        "channels": [{"type": "fiber"}, {"type": "cisp"}],
        "policy": "cost-aware",
        "web": {"pages": 2, "loads_per_page": 1}})",
};

const char* const kSteerGoldenRows[] = {
    R"({"run":0,"name":"steer_golden_redundant","params":{})"
    R"(,"metrics":{"video.decoded_at_layer0":0)"
    R"(,"video.decoded_at_layer1":6e+01,"video.decoded_at_layer2":2)"
    R"(,"video.decoded_at_layer3":29,"video.frames_concealed":5e+01)"
    R"(,"video.frames_decoded":91,"video.latency_ms.count":91)"
    R"(,"video.latency_ms.max":296.166685)"
    R"(,"video.latency_ms.mean":156.09802764835166)"
    R"(,"video.latency_ms.min":67.500001)"
    R"(,"video.latency_ms.p25":70.000001)"
    R"(,"video.latency_ms.p5":67.500018)"
    R"(,"video.latency_ms.p50":92.105288)"
    R"(,"video.latency_ms.p75":259.47438)"
    R"(,"video.latency_ms.p90":280.416682)"
    R"(,"video.latency_ms.p95":284.96430150000003)"
    R"(,"video.latency_ms.p99":290.91668439999995,"video.ssim.count":91)"
    R"(,"video.ssim.max":0.9840732976780505)"
    R"(,"video.ssim.mean":0.9102310505677117)"
    R"(,"video.ssim.min":0.863377629728223)"
    R"(,"video.ssim.p25":0.8767608733096965)"
    R"(,"video.ssim.p5":0.8706324506198817)"
    R"(,"video.ssim.p50":0.8818819007249233)"
    R"(,"video.ssim.p75":0.9695593155463038)"
    R"(,"video.ssim.p90":0.9766300570713113)"
    R"(,"video.ssim.p95":0.9813734802789085)"
    R"(,"video.ssim.p99":0.9829803455520266})"
    R"(,"obs":{"app.video.frame_latency_ms.count":91)"
    R"(,"app.video.frame_latency_ms.max":296.166685)"
    R"(,"app.video.frame_latency_ms.mean":156.09802764835166)"
    R"(,"app.video.frame_latency_ms.p50":92.105288)"
    R"(,"app.video.frame_latency_ms.p95":284.96430150000003)"
    R"(,"app.video.frame_latency_ms.p99":290.91668439999995)"
    R"(,"app.video.frames_concealed":5e+01)"
    R"(,"app.video.frames_decoded":91,"app.video.ssim.count":91)"
    R"(,"app.video.ssim.max":0.9840732976780505)"
    R"(,"app.video.ssim.mean":0.9102310505677117)"
    R"(,"app.video.ssim.p50":0.8818819007249233)"
    R"(,"app.video.ssim.p95":0.9813734802789085)"
    R"(,"app.video.ssim.p99":0.9829803455520266)"
    R"(,"link.embb-lowband-driving-down.delivered_bytes":4220836)"
    R"(,"link.embb-lowband-driving-down.delivered_packets":2909)"
    R"(,"link.embb-lowband-driving-down.dropped_queue":0)"
    R"(,"link.embb-lowband-driving-down.dropped_wire":0)"
    R"(,"link.embb-lowband-driving-up.delivered_bytes":0)"
    R"(,"link.embb-lowband-driving-up.delivered_packets":0)"
    R"(,"link.embb-lowband-driving-up.dropped_queue":0)"
    R"(,"link.embb-lowband-driving-up.dropped_wire":0)"
    R"(,"link.urllc-down.delivered_bytes":723191)"
    R"(,"link.urllc-down.delivered_packets":562)"
    R"(,"link.urllc-down.dropped_queue":197)"
    R"(,"link.urllc-down.dropped_wire":0)"
    R"(,"link.urllc-up.delivered_bytes":0)"
    R"(,"link.urllc-up.delivered_packets":0)"
    R"(,"link.urllc-up.dropped_queue":0,"link.urllc-up.dropped_wire":0)"
    R"(,"node.client.duplicates_suppressed":132)"
    R"(,"node.client.unroutable":0)"
    R"(,"node.server.duplicates_suppressed":0)"
    R"(,"node.server.unroutable":0,"shim.down.ch0.bytes":4220836)"
    R"(,"shim.down.ch0.packets":2909,"shim.down.ch1.bytes":1013339)"
    R"(,"shim.down.ch1.packets":759,"shim.down.duplicates":132)"
    R"(,"shim.up.ch0.bytes":0,"shim.up.ch0.packets":0)"
    R"(,"shim.up.ch1.bytes":0,"shim.up.ch1.packets":0)"
    R"(,"shim.up.duplicates":0)"
    R"(,"steer.redundant(min-delay).down.decisions.ch0":2799)"
    R"(,"steer.redundant(min-delay).down.decisions.ch1":737)"
    R"(,"steer.redundant(min-delay).up.decisions.ch0":0)"
    R"(,"steer.redundant(min-delay).up.decisions.ch1":0}})",
    R"({"run":0,"name":"steer_golden_flow_binding","params":{})"
    R"(,"metrics":{"web.per_page_mean_ms":2497.159158)"
    R"(,"web.plt_ms.count":2,"web.plt_ms.max":3240.766965)"
    R"(,"web.plt_ms.mean":2497.159158,"web.plt_ms.min":1753.551351)"
    R"(,"web.plt_ms.p25":2125.3552545000002)"
    R"(,"web.plt_ms.p5":1827.9121317,"web.plt_ms.p50":2497.159158)"
    R"(,"web.plt_ms.p75":2868.9630615,"web.plt_ms.p90":3092.0454036)"
    R"(,"web.plt_ms.p95":3166.4061843)"
    R"(,"web.plt_ms.p99":3225.8948088599996,"web.timeouts":0})"
    R"(,"obs":{"app.web.objects_loaded":64,"app.web.pages_loaded":2)"
    R"(,"app.web.plt_ms.count":2,"app.web.plt_ms.max":3240.766965)"
    R"(,"app.web.plt_ms.mean":2497.159158)"
    R"(,"app.web.plt_ms.p50":2497.159158)"
    R"(,"app.web.plt_ms.p95":3166.4061843)"
    R"(,"app.web.plt_ms.p99":3225.8948088599996)"
    R"(,"link.embb-lowband-stationary-down.delivered_bytes":1.72233e+06)"
    R"(,"link.embb-lowband-stationary-down.delivered_packets":2.03e+03)"
    R"(,"link.embb-lowband-stationary-down.dropped_queue":0)"
    R"(,"link.embb-lowband-stationary-down.dropped_wire":0)"
    R"(,"link.embb-lowband-stationary-up.delivered_bytes":1.06112e+06)"
    R"(,"link.embb-lowband-stationary-up.delivered_packets":1623)"
    R"(,"link.embb-lowband-stationary-up.dropped_queue":0)"
    R"(,"link.embb-lowband-stationary-up.dropped_wire":0)"
    R"(,"link.urllc-down.delivered_bytes":1159917)"
    R"(,"link.urllc-down.delivered_packets":872)"
    R"(,"link.urllc-down.dropped_queue":64)"
    R"(,"link.urllc-down.dropped_wire":0)"
    R"(,"link.urllc-up.delivered_bytes":7.856e+04)"
    R"(,"link.urllc-up.delivered_packets":1284)"
    R"(,"link.urllc-up.dropped_queue":0,"link.urllc-up.dropped_wire":0)"
    R"(,"node.client.duplicates_suppressed":0)"
    R"(,"node.client.unroutable":0)"
    R"(,"node.server.duplicates_suppressed":0)"
    R"(,"node.server.unroutable":0,"shim.down.ch0.bytes":1.72233e+06)"
    R"(,"shim.down.ch0.packets":2.03e+03,"shim.down.ch1.bytes":1255575)"
    R"(,"shim.down.ch1.packets":936,"shim.down.duplicates":0)"
    R"(,"shim.up.ch0.bytes":1.06112e+06,"shim.up.ch0.packets":1623)"
    R"(,"shim.up.ch1.bytes":7.856e+04,"shim.up.ch1.packets":1284)"
    R"(,"shim.up.duplicates":0)"
    R"(,"steer.flow-binding.down.decisions.ch0":2.03e+03)"
    R"(,"steer.flow-binding.down.decisions.ch1":936)"
    R"(,"steer.flow-binding.up.decisions.ch0":1623)"
    R"(,"steer.flow-binding.up.decisions.ch1":1284)"
    R"(,"transport.tcp.packets_sent":2959)"
    R"(,"transport.tcp.retransmissions":113,"transport.tcp.rto_count":3)"
    R"(,"transport.tcp.spurious_loss_marks":1}})",
    R"({"run":0,"name":"steer_golden_cost_aware","params":{})"
    R"(,"metrics":{"web.per_page_mean_ms":346.1561855)"
    R"(,"web.plt_ms.count":2,"web.plt_ms.max":358.549511)"
    R"(,"web.plt_ms.mean":346.1561855,"web.plt_ms.min":333.76286)"
    R"(,"web.plt_ms.p25":339.95952274999996)"
    R"(,"web.plt_ms.p5":335.00219254999996,"web.plt_ms.p50":346.1561855)"
    R"(,"web.plt_ms.p75":352.35284825,"web.plt_ms.p90":356.0708459)"
    R"(,"web.plt_ms.p95":357.31017845,"web.plt_ms.p99":358.30164449)"
    R"(,"web.timeouts":0},"obs":{"app.web.objects_loaded":64)"
    R"(,"app.web.pages_loaded":2,"app.web.plt_ms.count":2)"
    R"(,"app.web.plt_ms.max":358.549511)"
    R"(,"app.web.plt_ms.mean":346.1561855)"
    R"(,"app.web.plt_ms.p50":346.1561855)"
    R"(,"app.web.plt_ms.p95":357.31017845)"
    R"(,"app.web.plt_ms.p99":358.30164449)"
    R"(,"link.cisp-down.delivered_bytes":243514)"
    R"(,"link.cisp-down.delivered_packets":508)"
    R"(,"link.cisp-down.dropped_queue":0)"
    R"(,"link.cisp-down.dropped_wire":0)"
    R"(,"link.cisp-up.delivered_bytes":2.7682e+05)"
    R"(,"link.cisp-up.delivered_packets":1688)"
    R"(,"link.cisp-up.dropped_queue":0,"link.cisp-up.dropped_wire":5)"
    R"(,"link.fiber-down.delivered_bytes":1902688)"
    R"(,"link.fiber-down.delivered_packets":1284)"
    R"(,"link.fiber-down.dropped_queue":0)"
    R"(,"link.fiber-down.dropped_wire":0)"
    R"(,"link.fiber-up.delivered_bytes":1.0332e+05)"
    R"(,"link.fiber-up.delivered_packets":101)"
    R"(,"link.fiber-up.dropped_queue":0,"link.fiber-up.dropped_wire":0)"
    R"(,"node.client.duplicates_suppressed":0)"
    R"(,"node.client.unroutable":0)"
    R"(,"node.server.duplicates_suppressed":0)"
    R"(,"node.server.unroutable":0,"shim.down.ch0.bytes":1902688)"
    R"(,"shim.down.ch0.packets":1284,"shim.down.ch1.bytes":252334)"
    R"(,"shim.down.ch1.packets":515,"shim.down.duplicates":0)"
    R"(,"shim.up.ch0.bytes":1.0332e+05,"shim.up.ch0.packets":101)"
    R"(,"shim.up.ch1.bytes":2.7784e+05,"shim.up.ch1.packets":1693)"
    R"(,"shim.up.duplicates":0)"
    R"(,"steer.cost-aware.bucket_dollars":4.1300000000001844e-05)"
    R"(,"steer.cost-aware.down.decisions.ch0":1284)"
    R"(,"steer.cost-aware.down.decisions.ch1":515)"
    R"(,"steer.cost-aware.spent_dollars":0.011942700000000037)"
    R"(,"steer.cost-aware.up.decisions.ch0":101)"
    R"(,"steer.cost-aware.up.decisions.ch1":1693)"
    R"(,"transport.tcp.packets_sent":1789)"
    R"(,"transport.tcp.retransmissions":16,"transport.tcp.rto_count":1)"
    R"(,"transport.tcp.spurious_loss_marks":2}})",
};

TEST(SteerGolden, PolicyRunRowsAreExact) {
  for (std::size_t i = 0; i < std::size(kSteerGoldenSpecs); ++i) {
    const exp::RunResult r = exp::run_scenario(
        exp::ScenarioSpec::from_json_text(kSteerGoldenSpecs[i]));
    std::string row = exp::to_jsonl({r});
    ASSERT_FALSE(row.empty());
    row.pop_back();  // the trailing newline
    EXPECT_EQ(row, kSteerGoldenRows[i]);
  }
}

// ---- MPQUIC golden: exact counts per scheduler and ACK path ----
//
// quic_test checks each scheduler's shape with bounds; this pins the
// exact outcome of one short mixed run over a lossy eMBB path and URLLC,
// under every scheduler × ACK path: bulk, small interactive messages,
// interactive messages large enough that only their tails ride the fast
// path, and priority-1 realtime with a deadline (pinned to the fast path
// by priority alone). The counts and the transport.quic.* registry
// values move with the scheduler, the tail threshold, the fast-path
// priority, the packet threshold and the per-path CCA. (The time
// threshold does not bind here: the RTO floor is larger.)

struct MpGolden {
  quic::SchedulerKind scheduler;
  bool ack_on_fast_path;
  std::vector<std::int64_t> packets_per_path;  ///< server (data) side
  std::int64_t retransmitted_chunks;           ///< server side
  int messages;                                ///< completed at the client
  const char* quic_obs;  ///< the run's transport.quic.* registry values
};

const MpGolden kMpGoldens[] = {
    {quic::SchedulerKind::kMinRtt, false, {1284, 535}, 24, 37,
     "transport.quic.message_latency_ms.count=37;"
     "transport.quic.message_latency_ms.max=556.5;"
     "transport.quic.message_latency_ms.mean=157.34324324324325;"
     "transport.quic.message_latency_ms.p50=125.09999999999999;"
     "transport.quic.message_latency_ms.p95=440.25999999999971;"
     "transport.quic.message_latency_ms.p99=532.452;"
     "transport.quic.packets_sent=1817;"
     "transport.quic.retransmitted_chunks=24;"},
    {quic::SchedulerKind::kMinRtt, true, {2491, 516}, 19, 69,
     "transport.quic.message_latency_ms.count=69;"
     "transport.quic.message_latency_ms.max=393;"
     "transport.quic.message_latency_ms.mean=81.810144927536243;"
     "transport.quic.message_latency_ms.p50=66;"
     "transport.quic.message_latency_ms.p95=222.39999999999986;"
     "transport.quic.message_latency_ms.p99=335.87999999999943;"
     "transport.quic.packets_sent=3005;"
     "transport.quic.retransmitted_chunks=19;"},
    {quic::SchedulerKind::kEcf, false, {1284, 535}, 24, 37,
     "transport.quic.message_latency_ms.count=37;"
     "transport.quic.message_latency_ms.max=556.5;"
     "transport.quic.message_latency_ms.mean=157.34324324324325;"
     "transport.quic.message_latency_ms.p50=125.09999999999999;"
     "transport.quic.message_latency_ms.p95=440.25999999999971;"
     "transport.quic.message_latency_ms.p99=532.452;"
     "transport.quic.packets_sent=1817;"
     "transport.quic.retransmitted_chunks=24;"},
    {quic::SchedulerKind::kEcf, true, {2492, 521}, 19, 69,
     "transport.quic.message_latency_ms.count=69;"
     "transport.quic.message_latency_ms.max=394;"
     "transport.quic.message_latency_ms.mean=82.994202898550725;"
     "transport.quic.message_latency_ms.p50=67;"
     "transport.quic.message_latency_ms.p95=208.79999999999998;"
     "transport.quic.message_latency_ms.p99=336.87999999999943;"
     "transport.quic.packets_sent=3011;"
     "transport.quic.retransmitted_chunks=19;"},
    {quic::SchedulerKind::kHvcAware, false, {1280, 597}, 102, 47,
     "transport.quic.message_latency_ms.count=47;"
     "transport.quic.message_latency_ms.max=776.89999999999998;"
     "transport.quic.message_latency_ms.mean=208.28723404255317;"
     "transport.quic.message_latency_ms.p50=149;"
     "transport.quic.message_latency_ms.p95=629.41999999999973;"
     "transport.quic.message_latency_ms.p99=734.21199999999999;"
     "transport.quic.packets_sent=1875;"
     "transport.quic.retransmitted_chunks=102;"},
    {quic::SchedulerKind::kHvcAware, true, {2496, 515}, 19, 69,
     "transport.quic.message_latency_ms.count=69;"
     "transport.quic.message_latency_ms.max=407;"
     "transport.quic.message_latency_ms.mean=81.159420289855092;"
     "transport.quic.message_latency_ms.p50=67;"
     "transport.quic.message_latency_ms.p95=219.99999999999989;"
     "transport.quic.message_latency_ms.p99=337.6399999999993;"
     "transport.quic.packets_sent=3009;"
     "transport.quic.retransmitted_chunks=19;"},
};

std::string join_counts(const std::vector<std::int64_t>& v) {
  std::string s;
  for (const auto n : v) s += (s.empty() ? "" : ", ") + std::to_string(n);
  return s;
}

TEST(MpQuicGolden, SchedulerAndAckPathCountsAreExact) {
  for (const MpGolden& g : kMpGoldens) {
    const exp::RunIsolation iso;
    std::vector<std::int64_t> per_path;
    std::int64_t retx = 0;
    int messages = 0;
    {
      sim::Simulator s;
      net::TwoHostNetwork net(
          s, std::make_unique<steer::PinnedChannelPolicy>(),
          std::make_unique<steer::PinnedChannelPolicy>());
      auto embb = channel::embb_constant_profile();
      embb.loss.bernoulli = 0.01;
      net.add_channel(std::move(embb));
      net.add_channel(channel::urllc_profile());
      net.finalize();
      quic::MpConfig cfg;
      cfg.scheduler = g.scheduler;
      cfg.ack_on_fast_path = g.ack_on_fast_path;
      auto conn =
          quic::MpConnection::make_pair(net.client(), net.server(), 2, cfg);
      const auto bulk = conn.server->open_stream(quic::StreamIntents::bulk());
      const auto small =
          conn.server->open_stream(quic::StreamIntents::interactive(1));
      const auto tailed =
          conn.server->open_stream(quic::StreamIntents::interactive(2));
      const auto realtime =
          conn.server->open_stream(quic::StreamIntents::realtime(1, 80));
      conn.client->set_on_message(
          [&](const quic::MpEndpoint::MessageEvent&) { ++messages; });
      for (int i = 0; i < 20; ++i) {
        s.at(sim::milliseconds(100 * i),
             [&] { conn.server->send_message(bulk, 200'000); });
        s.at(sim::milliseconds(100 * i + 20),
             [&] { conn.server->send_message(small, 1'500); });
        s.at(sim::milliseconds(100 * i + 40),
             [&] { conn.server->send_message(tailed, 12'000); });
        s.at(sim::milliseconds(100 * i + 60),
             [&] { conn.server->send_message(realtime, 6'000); });
      }
      s.run_until(seconds(3));
      per_path = conn.server->stats().packets_per_path;
      retx = conn.server->stats().retransmitted_chunks;
    }
    std::ostringstream quic_obs;
    quic_obs.precision(17);
    for (const auto& [k, v] : iso.registry.snapshot()) {
      if (k.rfind("transport.quic.", 0) == 0) quic_obs << k << '=' << v << ';';
    }
    SCOPED_TRACE(::testing::Message()
                 << "actual: {" << static_cast<int>(g.scheduler) << ", "
                 << g.ack_on_fast_path << ", {" << join_counts(per_path)
                 << "}, " << retx << ", " << messages << ", \""
                 << quic_obs.str() << "\"}");
    EXPECT_EQ(per_path, g.packets_per_path);
    EXPECT_EQ(retx, g.retransmitted_chunks);
    EXPECT_EQ(messages, g.messages);
    EXPECT_EQ(quic_obs.str(), g.quic_obs);
  }
}

// ---- Export golden: the bytes of every file run_scenario writes ----
//
// Two runs of committed scenario files, each artifact pinned as a byte
// count and an FNV-1a 64 digest. The Fig. 2 telemetry run is cut to 6 s
// of video and traced, so it writes telemetry, audit and the lifecycle
// Chrome trace; its hvc_report --merged trace is pinned too. Outage
// recovery's audit ring wraps, so its audit file starts with the meta
// line. The values were captured when every exporter built its artifact
// in one string and formatted numbers through snprintf; a change to how
// artifacts are written must leave them unchanged.

struct ArtifactDigest {
  const char* suffix;   ///< appended to the run's prefix
  std::size_t bytes;
  std::uint64_t fnv;    ///< sim::fnv1a64 of the file
};

void expect_digests(const std::string& prefix,
                    const std::vector<ArtifactDigest>& want) {
  for (const ArtifactDigest& d : want) {
    const std::string bytes = exp::read_file(prefix + d.suffix);
    SCOPED_TRACE(::testing::Message()
                 << d.suffix << ": actual {\"" << d.suffix << "\", "
                 << bytes.size() << ", 0x" << std::hex
                 << sim::fnv1a64(bytes) << "ull}");
    EXPECT_EQ(bytes.size(), d.bytes);
    EXPECT_EQ(sim::fnv1a64(bytes), d.fnv);
  }
}

TEST(ExportGolden, Fig2TelemetryAuditTraceAndMergedBytesAreExact) {
  exp::ScenarioSpec spec = exp::ScenarioSpec::from_file(
      std::string(HVC_SCENARIO_DIR) + "/fig2_video_telemetry.json");
  spec.video.duration_s = 6;
  const std::string prefix = ::testing::TempDir() + "hvc_export_golden_f2t";
  exp::RunOptions opts;
  opts.out_prefix = prefix;
  opts.trace_path = prefix + ".lifecycle.json";
  const exp::RunResult r = exp::run_scenario(spec, opts);
  ASSERT_EQ(r.error, "");
  exp::write_file(prefix + ".results.jsonl", exp::to_jsonl({r}));
  exp::write_file(prefix + ".merged.json",
                  exp::Report::load(prefix, opts.trace_path)
                      .to_chrome_trace());
  expect_digests(prefix, {
                             {".telemetry.jsonl", 3795306,
                              0x9c35f79ac195d6e6ull},
                             {".audit.jsonl", 1433033, 0xb2f45e45b6edb2cull},
                             {".lifecycle.json", 4473714,
                              0x1215cef97cb3c408ull},
                             {".merged.json", 10726376,
                              0x5c3062e397bce5b2ull},
                         });
}

TEST(ExportGolden, OutageRecoveryWrappedAuditBytesAreExact) {
  const exp::ScenarioSpec spec = exp::ScenarioSpec::from_file(
      std::string(HVC_SCENARIO_DIR) + "/outage_recovery.json");
  const std::string prefix =
      ::testing::TempDir() + "hvc_export_golden_outage";
  exp::RunOptions opts;
  opts.out_prefix = prefix;
  const exp::RunResult r = exp::run_scenario(spec, opts);
  ASSERT_EQ(r.error, "");
  expect_digests(prefix, {
                             {".telemetry.jsonl", 2072758,
                              0x9425fe19b669dca3ull},
                             {".audit.jsonl", 13583170,
                              0x851136b15a958880ull},
                         });
}

}  // namespace
}  // namespace hvc
