// Transport tests: CCA unit behaviour, reliable delivery under loss,
// RTT estimation, messages, datagrams, and connections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "fault/injector.hpp"
#include "net/node.hpp"
#include "steer/basic_policies.hpp"
#include "transport/bbr.hpp"
#include "transport/connection.hpp"
#include "transport/cubic.hpp"
#include "transport/datagram.hpp"
#include "transport/hvc_cc.hpp"
#include "transport/rtt.hpp"
#include "transport/tcp.hpp"
#include "transport/vegas.hpp"
#include "transport/vivace.hpp"

namespace hvc::transport {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---- RTT estimator ----

TEST(Rtt, FirstSampleInitializes) {
  RttEstimator r;
  r.add_sample(milliseconds(100));
  EXPECT_EQ(r.srtt(), milliseconds(100));
  EXPECT_EQ(r.rttvar(), milliseconds(50));
}

TEST(Rtt, ConvergesToStableValue) {
  RttEstimator r;
  for (int i = 0; i < 100; ++i) r.add_sample(milliseconds(80));
  EXPECT_NEAR(sim::to_millis(r.srtt()), 80.0, 1.0);
  EXPECT_LT(r.rttvar(), milliseconds(5));
}

TEST(Rtt, RtoHasFloorAndTracksVariance) {
  RttEstimator r;
  for (int i = 0; i < 50; ++i) r.add_sample(milliseconds(10));
  EXPECT_EQ(r.rto(), milliseconds(200));  // min RTO floor
  RttEstimator jittery;
  for (int i = 0; i < 50; ++i) {
    jittery.add_sample(milliseconds(i % 2 == 0 ? 50 : 250));
  }
  EXPECT_GT(jittery.rto(), milliseconds(300));
}

TEST(Rtt, IgnoresNonPositiveSamples) {
  RttEstimator r;
  r.add_sample(0);
  r.add_sample(-5);
  EXPECT_FALSE(r.has_sample());
}

// ---- CCA units ----

TEST(CubicCca, SlowStartDoublesPerRtt) {
  Cubic c;
  const auto initial = c.cwnd_bytes();
  AckEvent ev;
  ev.now = milliseconds(100);
  ev.rtt = milliseconds(50);
  ev.acked_bytes = initial;
  c.on_ack(ev);
  EXPECT_GE(c.cwnd_bytes(), 2 * initial - kMss);
}

TEST(CubicCca, LossReducesWindowByBeta) {
  Cubic c;
  AckEvent grow;
  grow.now = milliseconds(10);
  grow.rtt = milliseconds(50);
  grow.acked_bytes = 100 * kMss;
  c.on_ack(grow);
  const auto before = c.cwnd_bytes();
  c.on_loss({milliseconds(20), kMss, before, false});
  EXPECT_NEAR(static_cast<double>(c.cwnd_bytes()),
              0.7 * static_cast<double>(before),
              static_cast<double>(kMss));
}

TEST(CubicCca, OneReductionPerRtt) {
  Cubic c;
  AckEvent grow;
  grow.now = milliseconds(10);
  grow.rtt = milliseconds(50);
  grow.acked_bytes = 100 * kMss;
  c.on_ack(grow);
  c.on_loss({milliseconds(20), kMss, c.cwnd_bytes(), false});
  const auto after_first = c.cwnd_bytes();
  c.on_loss({milliseconds(25), kMss, after_first, false});  // same window
  EXPECT_EQ(c.cwnd_bytes(), after_first);
}

TEST(CubicCca, GrowsTowardWmaxAfterLoss) {
  Cubic c;
  AckEvent grow;
  grow.now = milliseconds(10);
  grow.rtt = milliseconds(50);
  grow.acked_bytes = 200 * kMss;
  c.on_ack(grow);
  c.on_loss({milliseconds(20), kMss, c.cwnd_bytes(), false});
  const auto floor = c.cwnd_bytes();
  AckEvent ca;
  ca.rtt = milliseconds(50);
  ca.acked_bytes = kMss;
  for (int i = 0; i < 200; ++i) {
    ca.now = milliseconds(30 + i * 10);
    c.on_ack(ca);
  }
  EXPECT_GT(c.cwnd_bytes(), floor);
}

TEST(BbrCca, StartupExitsOnBandwidthPlateau) {
  Bbr b;
  EXPECT_EQ(b.mode(), Bbr::Mode::kStartup);
  AckEvent ev;
  ev.rtt = milliseconds(50);
  ev.acked_bytes = 10 * kMss;
  ev.delivery_rate_bps = 50e6;
  for (int i = 0; i < 10; ++i) {
    ev.now = milliseconds(50 * (i + 1));
    ev.round_trips = i;
    ev.bytes_in_flight = 100 * kMss;
    b.on_ack(ev);
  }
  EXPECT_NE(b.mode(), Bbr::Mode::kStartup);
  EXPECT_NEAR(b.btl_bw_bps(), 50e6, 1e6);
}

TEST(BbrCca, CwndIsGainTimesBdp) {
  Bbr b;
  AckEvent ev;
  ev.rtt = milliseconds(50);
  ev.acked_bytes = 10 * kMss;
  ev.delivery_rate_bps = 60e6;
  ev.now = milliseconds(50);
  b.on_ack(ev);
  // BDP = 60 Mbps * 50 ms = 375 kB; cwnd = 2x.
  EXPECT_NEAR(static_cast<double>(b.cwnd_bytes()), 2 * 375000.0, 40000.0);
}

TEST(BbrCca, MinRttPollutionShrinksCwnd) {
  // The Fig. 1 pathology in miniature: one 5 ms sample collapses RTprop.
  Bbr b;
  AckEvent ev;
  ev.rtt = milliseconds(50);
  ev.acked_bytes = 10 * kMss;
  ev.delivery_rate_bps = 60e6;
  ev.now = milliseconds(50);
  b.on_ack(ev);
  const auto before = b.cwnd_bytes();
  ev.now = milliseconds(100);
  ev.rtt = milliseconds(5);  // URLLC-steered probe
  b.on_ack(ev);
  EXPECT_LT(b.cwnd_bytes(), before / 5);
}

TEST(BbrCca, ProbeRttAfterWindowExpiry) {
  Bbr b;
  AckEvent ev;
  ev.acked_bytes = 10 * kMss;
  ev.delivery_rate_bps = 60e6;
  // One 50 ms minimum, then persistent queueing keeps samples above it:
  // the RTprop window expires after 10 s and PROBE_RTT engages.
  ev.rtt = milliseconds(50);
  ev.now = milliseconds(50);
  ev.bytes_in_flight = 2 * kMss;
  b.on_ack(ev);
  sim::Time t = milliseconds(50);
  for (int i = 0; i < 300; ++i) {
    t += milliseconds(50);
    ev.now = t;
    ev.round_trips = i;
    ev.bytes_in_flight = 2 * kMss;  // low inflight lets PROBE_RTT finish
    ev.rtt = milliseconds(51 + (i % 3));  // never beats the first min
    b.on_ack(ev);
    if (b.mode() == Bbr::Mode::kProbeRtt) break;
  }
  EXPECT_EQ(b.mode(), Bbr::Mode::kProbeRtt);
  EXPECT_EQ(b.cwnd_bytes(), 4 * kMss);
}

TEST(BbrCca, ConstantRttKeepsRefreshingRtProp) {
  // With samples repeatedly matching the minimum, PROBE_RTT never fires
  // (matching Linux BBR's `rtt <= min_rtt` refresh rule).
  Bbr b;
  AckEvent ev;
  ev.acked_bytes = 10 * kMss;
  ev.delivery_rate_bps = 60e6;
  ev.bytes_in_flight = 2 * kMss;
  for (int i = 1; i < 400; ++i) {
    ev.now = milliseconds(50) * i;
    ev.round_trips = i;
    ev.rtt = milliseconds(50);
    b.on_ack(ev);
    ASSERT_NE(b.mode(), Bbr::Mode::kProbeRtt);
  }
}

TEST(VegasCca, HoldsWindowInsideAlphaBetaBand) {
  Vegas v;
  AckEvent ev;
  // Establish base RTT = 50 ms and leave slow start.
  ev.rtt = milliseconds(50);
  ev.now = milliseconds(50);
  ev.round_trips = 1;
  v.on_ack(ev);
  ev.rtt = milliseconds(80);  // diff > gamma: exits slow start
  ev.now = milliseconds(130);
  ev.round_trips = 2;
  v.on_ack(ev);
  // Choose an RTT that puts the backlog estimate between alpha and beta
  // for the current window; Vegas must hold the window there.
  const auto w = v.cwnd_bytes();
  const double w_pkts = static_cast<double>(w) / kMss;
  // diff = w_pkts * (rtt - 50)/rtt == 3  =>  rtt = 50 / (1 - 3/w_pkts).
  const auto rtt = static_cast<sim::Duration>(
      50e6 / (1.0 - 3.0 / w_pkts));
  for (int i = 3; i < 10; ++i) {
    ev.rtt = rtt;
    ev.now = milliseconds(80 * i);
    ev.round_trips = i;
    v.on_ack(ev);
    EXPECT_EQ(v.cwnd_bytes(), w) << "round " << i;
  }
}

TEST(VegasCca, BaseRttIsLifetimeMin) {
  Vegas v;
  AckEvent ev;
  ev.rtt = milliseconds(50);
  ev.now = milliseconds(50);
  ev.round_trips = 1;
  v.on_ack(ev);
  EXPECT_EQ(v.base_rtt(), milliseconds(50));
  ev.rtt = milliseconds(5);  // steered packet poisons the base
  ev.round_trips = 2;
  v.on_ack(ev);
  EXPECT_EQ(v.base_rtt(), milliseconds(5));
  ev.rtt = milliseconds(60);
  ev.round_trips = 3;
  v.on_ack(ev);
  EXPECT_EQ(v.base_rtt(), milliseconds(5));  // never recovers
}

TEST(VegasCca, ShrinksWhenDiffExceedsBeta) {
  Vegas v;
  AckEvent ev;
  // Poison base RTT at 5 ms, then run rounds at 50 ms.
  ev.rtt = milliseconds(5);
  ev.now = milliseconds(5);
  ev.round_trips = 1;
  v.on_ack(ev);
  const auto before = v.cwnd_bytes();
  ev.rtt = milliseconds(50);
  for (int i = 2; i < 30; ++i) {
    ev.round_trips = i;
    ev.now = milliseconds(50 * i);
    v.on_ack(ev);
  }
  EXPECT_LT(v.cwnd_bytes(), before);
  // Vegas settles where the backlog estimate falls inside (alpha, beta):
  // cwnd_pkts * 0.9 in (2, 4) -> at most ~4.4 packets.
  EXPECT_LE(v.cwnd_bytes(), 5 * kMss);
}

TEST(VivaceCca, RateStaysWithinBounds) {
  Vivace v;
  AckEvent ev;
  ev.rtt = milliseconds(30);
  ev.acked_bytes = kMss;
  for (int i = 0; i < 2000; ++i) {
    ev.now = milliseconds(5 * i);
    v.on_ack(ev);
  }
  EXPECT_GE(v.pacing_rate_bps(), 0.2e6 * 0.9);
  EXPECT_LE(v.pacing_rate_bps(), 500e6 * 1.1);
}

TEST(VivaceCca, RttRampPushesRateDown) {
  Vivace v;
  AckEvent ev;
  ev.acked_bytes = 2 * kMss;
  // Continuously rising RTT within every MI → negative utility gradient.
  for (int i = 0; i < 3000; ++i) {
    ev.now = milliseconds(2 * i);
    ev.rtt = milliseconds(20 + (i % 50));
    v.on_ack(ev);
  }
  EXPECT_LT(v.base_rate_bps(), Vivace().base_rate_bps() * 1.5);
}

TEST(HvcCca, WeightedRttResistsPollution) {
  HvcAwareCc h;
  AckEvent embb;
  embb.rtt = milliseconds(50);
  embb.acked_bytes = 50 * kMss;
  embb.channel = 0;
  embb.delivery_rate_bps = 60e6;
  AckEvent urllc;
  urllc.rtt = milliseconds(5);
  urllc.acked_bytes = kMss;
  urllc.channel = 1;
  urllc.delivery_rate_bps = 60e6;
  sim::Time t = 0;
  for (int i = 0; i < 100; ++i) {
    t += milliseconds(25);
    embb.now = t;
    embb.round_trips = i;
    h.on_ack(embb);
    urllc.now = t + milliseconds(1);
    urllc.round_trips = i;
    h.on_ack(urllc);
  }
  // Weighted RTT should stay near eMBB's 50 ms, not collapse to 5 ms.
  EXPECT_GT(h.weighted_rtt(), milliseconds(35));
}

TEST(CcaFactory, CreatesAllAndRejectsUnknown) {
  for (const char* name : {"cubic", "bbr", "vegas", "vivace", "hvc"}) {
    EXPECT_EQ(make_cca(name)->name(), name);
  }
  EXPECT_THROW(make_cca("reno"), std::invalid_argument);
}

// ---- End-to-end transport over a single channel ----

struct Harness {
  sim::Simulator s;
  std::unique_ptr<net::TwoHostNetwork> net;
  FlowPair flows = make_flow_pair();

  explicit Harness(channel::ChannelProfile profile) {
    net = std::make_unique<net::TwoHostNetwork>(
        s, std::make_unique<steer::SingleChannelPolicy>(0),
        std::make_unique<steer::SingleChannelPolicy>(0));
    net->add_channel(std::move(profile));
    net->finalize();
  }
};

// Runs `s` to `until` in 1 ms steps and audits the sender's loss-detection
// indexes (RACK list, lost index, in_flight_) after every step, so each
// ACK, RTO and send is checked within a millisecond of when it ran.
::testing::AssertionResult RunAuditingLossIndexes(sim::Simulator& s,
                                                  const TcpSender& snd,
                                                  sim::Time until) {
  while (s.now() < until) {
    s.run_until(std::min(s.now() + milliseconds(1), until));
    if (!snd.loss_index_consistent_for_test()) {
      return ::testing::AssertionFailure()
             << "loss indexes diverge at t=" << s.now() << " ns";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Tcp, TransfersAllBytesReliably) {
  Harness h(channel::embb_constant_profile());
  TcpConfig cfg;
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"), cfg);
  TcpReceiver rcv(h.net->client(), h.flows, cfg);
  // Server-side sender must egress via the downlink shim.
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(1'000'000);
  h.s.run_until(seconds(30));
  EXPECT_EQ(received, 1'000'000);
  EXPECT_TRUE(snd.idle());
}

TEST(Tcp, ThroughputApproachesLinkRate) {
  Harness h(channel::embb_constant_profile());  // 60 Mbps down
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"));
  TcpReceiver rcv(h.net->client(), h.flows);
  snd.write(200'000'000);
  h.s.run_until(seconds(20));
  const double goodput = snd.goodput_bps(seconds(5), seconds(20));
  EXPECT_GT(goodput, 45e6);
  EXPECT_LT(goodput, 62e6);
}

TEST(Tcp, RttSamplesReflectPathAndQueueing) {
  Harness h(channel::embb_constant_profile());
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"));
  TcpReceiver rcv(h.net->client(), h.flows);
  snd.write(5'000'000);
  h.s.run_until(seconds(10));
  ASSERT_FALSE(snd.stats().rtt_samples_ms.empty());
  for (const auto& pt : snd.stats().rtt_samples_ms.points()) {
    EXPECT_GE(pt.value, 49.0);  // never below the base RTT
  }
}

TEST(Tcp, RecoversFromRandomLoss) {
  auto profile = channel::embb_constant_profile();
  profile.loss.bernoulli = 0.02;
  Harness h(std::move(profile));
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"));
  TcpReceiver rcv(h.net->client(), h.flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(2'000'000);
  ASSERT_TRUE(RunAuditingLossIndexes(h.s, snd, seconds(60)));
  EXPECT_EQ(received, 2'000'000);
  EXPECT_GT(snd.stats().retransmissions, 0);
}

TEST(Tcp, RecoversFromBurstLoss) {
  auto profile = channel::embb_constant_profile();
  profile.loss.ge_p_good_to_bad = 0.002;
  profile.loss.ge_p_bad_to_good = 0.1;
  profile.loss.ge_loss_in_bad = 0.5;
  Harness h(std::move(profile));
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"));
  TcpReceiver rcv(h.net->client(), h.flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(2'000'000);
  ASSERT_TRUE(RunAuditingLossIndexes(h.s, snd, seconds(120)));
  EXPECT_EQ(received, 2'000'000);
}

// FaultFuzz-shaped bulk sweep over the loss paths. Per seed, an eMBB
// outage runs while the URLLC channel first flaps, then goes dark too:
// RTOs, then (with both channels down) backed-off single-segment probes.
// A later GE burst on the eMBB downlink punches holes that SACK recovery
// repairs. Odd seeds report a single SACK block, so ACKs for packets that
// fill lower holes carry no news and the dupack fallback marks the head
// lost. The indexes must match the brute-force audit throughout, and
// every byte must arrive.
TEST(Tcp, LossIndexesStayConsistentThroughFaultSweep) {
  std::int64_t rtos = 0;
  std::int64_t retransmissions = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng(seed ^ 0x1055);
    sim::Simulator s;
    net::TwoHostNetwork net(s, core::make_policy("dchannel"),
                            core::make_policy("dchannel"));
    net.add_channel(channel::embb_constant_profile());
    net.add_channel(channel::urllc_profile());
    net.finalize();

    fault::FaultEvent outage;
    outage.kind = fault::FaultKind::kOutage;
    outage.channel = 0;
    outage.start = sim::seconds_f(rng.uniform(0.3, 0.8));
    outage.duration = sim::seconds_f(rng.uniform(2.0, 3.0));
    fault::FaultEvent flap;
    flap.kind = fault::FaultKind::kFlap;
    flap.channel = 1;
    flap.start = outage.start;
    flap.duration = outage.duration / 2;
    flap.flap_period = milliseconds(rng.uniform_int(150, 400));
    flap.flap_up_fraction = rng.uniform(0.2, 0.5);
    flap.flap_seed = seed + 1;
    fault::FaultEvent dark = outage;
    dark.channel = 1;
    dark.start = flap.end();
    dark.duration = outage.end() - flap.end();
    fault::FaultEvent burst;
    burst.kind = fault::FaultKind::kGeBurst;
    burst.channel = 0;
    burst.dir = fault::FaultDir::kDownlink;
    burst.start = outage.end() + sim::seconds_f(rng.uniform(0.5, 1.0));
    burst.duration = seconds(1);
    burst.loss.ge_p_good_to_bad = rng.uniform(0.01, 0.2);
    burst.loss.ge_p_bad_to_good = rng.uniform(0.1, 0.5);
    burst.loss.ge_loss_in_bad = rng.uniform(0.5, 1.0);
    burst.loss_seed = rng.next_u64();
    fault::FaultInjector inj(s, net.channels(),
                             {{outage, flap, dark, burst}});

    TcpConfig cfg;
    cfg.max_sack_blocks = seed % 2 == 0 ? 4 : 1;
    const auto flows = make_flow_pair();
    TcpSender snd(net.server(), flows, make_cca(seed % 3 == 2 ? "bbr" : "cubic"),
                  cfg);
    TcpReceiver rcv(net.client(), flows, cfg);
    std::int64_t received = 0;
    rcv.set_on_data([&](std::int64_t n) { received += n; });
    constexpr std::int64_t kBytes = 12'000'000;
    snd.write(kBytes);
    ASSERT_TRUE(RunAuditingLossIndexes(s, snd, seconds(90)));
    EXPECT_EQ(received, kBytes);
    rtos += snd.stats().rto_count;
    retransmissions += snd.stats().retransmissions;
  }
  EXPECT_GT(rtos, 0);
  EXPECT_GT(retransmissions, rtos);
}

TEST(Tcp, MessageCompletionCallback) {
  Harness h(channel::embb_constant_profile());
  TcpConfig cfg;
  cfg.annotate_app_info = true;
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"), cfg);
  TcpReceiver rcv(h.net->client(), h.flows, cfg);
  std::vector<std::uint64_t> completed;
  rcv.set_on_message([&](const net::AppHeader& hdr, sim::Time) {
    completed.push_back(hdr.message_id);
  });
  const auto id1 = snd.write_message(10'000, 0);
  const auto id2 = snd.write_message(50'000, 1);
  h.s.run_until(seconds(10));
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed[0], id1);
  EXPECT_EQ(completed[1], id2);
}

TEST(Tcp, DelayedAckHalvesAckCount) {
  Harness h1(channel::embb_constant_profile());
  TcpSender s1(h1.net->server(), h1.flows, make_cca("cubic"));
  TcpReceiver r1(h1.net->client(), h1.flows);
  s1.write(1'000'000);
  h1.s.run_until(seconds(10));

  Harness h2(channel::embb_constant_profile());
  TcpConfig cfg;
  cfg.delayed_ack = true;
  TcpSender s2(h2.net->server(), h2.flows, make_cca("cubic"), cfg);
  TcpReceiver r2(h2.net->client(), h2.flows, cfg);
  s2.write(1'000'000);
  h2.s.run_until(seconds(10));

  EXPECT_LT(r2.stats().acks_sent, r1.stats().acks_sent * 3 / 4);
}

TEST(Tcp, SmallTransferLatencyDominatedByRtt) {
  Harness h(channel::embb_constant_profile());
  TcpSender snd(h.net->server(), h.flows, make_cca("cubic"));
  TcpReceiver rcv(h.net->client(), h.flows);
  sim::Time done = -1;
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) {
    received += n;
    if (received >= 10'000) done = h.s.now();
  });
  snd.write(10'000);
  h.s.run();
  // 10 kB in the initial window: one-way delay + serialization, well
  // under 2 RTTs.
  EXPECT_GT(done, milliseconds(25));
  EXPECT_LT(done, milliseconds(100));
}

TEST(Datagram, MessageReassemblyAndTiming) {
  Harness h(channel::urllc_profile());
  const auto flow = net::next_flow_id();
  DatagramSocket tx(h.net->server(), flow);
  DatagramSocket rx(h.net->client(), flow);
  net::AppHeader done_hdr;
  sim::Time done_at = -1;
  rx.set_on_message([&](const DatagramSocket::MessageEvent& ev) {
    done_hdr = ev.header;
    done_at = ev.completed;
    EXPECT_EQ(ev.sent_at, 0);  // sent at t=0
    EXPECT_LE(ev.first_arrival, ev.completed);
  });
  tx.send_message(4000, 1);  // 3 packets at 2 Mbps
  h.s.run();
  EXPECT_EQ(done_hdr.message_bytes, 4000u);
  EXPECT_EQ(done_hdr.priority, 1);
  // ~16.5 ms serialization + 2.5 ms OWD.
  EXPECT_GT(done_at, milliseconds(15));
  EXPECT_LT(done_at, milliseconds(30));
}

TEST(Datagram, NoRetransmissionOnLoss) {
  auto profile = channel::urllc_profile();
  profile.loss.bernoulli = 0.5;
  profile.loss.ge_loss_in_bad = 0.0;
  Harness h(std::move(profile));
  const auto flow = net::next_flow_id();
  DatagramSocket tx(h.net->server(), flow);
  DatagramSocket rx(h.net->client(), flow);
  int messages = 0;
  rx.set_on_message(
      [&](const DatagramSocket::MessageEvent&) { ++messages; });
  for (int i = 0; i < 50; ++i) tx.send_message(10'000, 0);  // 7 pkts each
  h.s.run();
  // With 50% loss, nearly all multi-packet messages lose something and
  // are never completed (no retransmission exists).
  EXPECT_LT(messages, 10);
}

TEST(Connection, HandshakeCompletesInOneRtt) {
  Harness h(channel::embb_constant_profile());
  Connection conn(h.net->client(), h.net->server());
  sim::Time ready_at = -1;
  conn.handshake([&] { ready_at = h.s.now(); });
  h.s.run();
  EXPECT_TRUE(conn.established());
  EXPECT_GE(ready_at, milliseconds(50));
  EXPECT_LT(ready_at, milliseconds(60));
}

TEST(Connection, RequestResponseExchange) {
  Harness h(channel::embb_constant_profile());
  TcpConfig cfg;
  cfg.annotate_app_info = true;
  Connection conn(h.net->client(), h.net->server(), cfg);

  // Server: on request message, respond with 100 kB.
  conn.server_receiver().set_on_message(
      [&](const net::AppHeader&, sim::Time) {
        conn.server_sender().write_message(100'000, 0);
      });
  sim::Time response_done = -1;
  conn.client_receiver().set_on_message(
      [&](const net::AppHeader&, sim::Time t) { response_done = t; });
  conn.handshake([&] { conn.client_sender().write_message(400, 0); });
  h.s.run_until(seconds(5));
  EXPECT_GT(response_done, milliseconds(100));  // 2 RTT + transfer
  EXPECT_LT(response_done, milliseconds(600));
}

}  // namespace
}  // namespace hvc::transport
