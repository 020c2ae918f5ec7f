// Cross-module integration tests: full transfers through steering shims
// over heterogeneous channels — the paper's core scenarios in miniature.
#include <gtest/gtest.h>

#include "channel/profile.hpp"
#include "net/node.hpp"
#include "steer/basic_policies.hpp"
#include "steer/dchannel.hpp"
#include "steer/priority.hpp"
#include "transport/datagram.hpp"
#include "transport/tcp.hpp"

namespace hvc {
namespace {

using sim::milliseconds;
using sim::seconds;

std::unique_ptr<net::TwoHostNetwork> make_fig1_net(
    sim::Simulator& s, std::unique_ptr<steer::SteeringPolicy> up,
    std::unique_ptr<steer::SteeringPolicy> down,
    sim::Duration resequence = milliseconds(40)) {
  auto n = std::make_unique<net::TwoHostNetwork>(s, std::move(up),
                                                 std::move(down));
  n->add_channel(channel::embb_constant_profile());
  n->add_channel(channel::urllc_profile());
  if (resequence > 0) n->enable_resequencing(resequence);
  n->finalize();
  return n;
}

TEST(Integration, BulkTransferUnderDChannelSteeringCompletes) {
  sim::Simulator s;
  auto net = make_fig1_net(s, std::make_unique<steer::DChannelPolicy>(),
                           std::make_unique<steer::DChannelPolicy>());
  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net->server(), flows,
                           transport::make_cca("cubic"));
  transport::TcpReceiver rcv(net->client(), flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(10'000'000);
  s.run_until(seconds(30));
  EXPECT_EQ(received, 10'000'000);
  // DChannel must actually have used both channels.
  EXPECT_GT(net->downlink_shim().stats().packets_per_channel[1], 0);
  EXPECT_GT(net->downlink_shim().stats().packets_per_channel[0], 0);
}

TEST(Integration, DChannelSteersAcksToUrllc) {
  sim::Simulator s;
  auto net = make_fig1_net(s, std::make_unique<steer::DChannelPolicy>(),
                           std::make_unique<steer::DChannelPolicy>());
  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net->server(), flows,
                           transport::make_cca("cubic"));
  transport::TcpReceiver rcv(net->client(), flows);
  snd.write(5'000'000);
  s.run_until(seconds(10));
  // ACKs travel uplink; most should ride URLLC (tiny, huge reward).
  const auto& up = net->uplink_shim().stats();
  EXPECT_GT(up.packets_per_channel[1], up.packets_per_channel[0]);
}

TEST(Integration, FlowPrioritySteeringAcceleratesSmallFlowUnderBulkLoad) {
  // A small transfer competing with a bulk flow (§3.3's scenario): plain
  // DChannel lets the bulk flow congest URLLC too, so only the
  // flow-priority variant reliably accelerates the foreground transfer.
  auto run_with = [&](auto make_policy, std::uint8_t bulk_priority) {
    sim::Simulator s;
    auto net = make_fig1_net(s, make_policy(), make_policy());
    // Background bulk flow building an eMBB downlink queue.
    const auto bulk_flows = transport::make_flow_pair();
    transport::TcpConfig bulk_cfg;
    bulk_cfg.flow_priority = bulk_priority;
    transport::TcpSender bulk(net->server(), bulk_flows,
                              transport::make_cca("cubic"), bulk_cfg);
    transport::TcpReceiver bulk_rcv(net->client(), bulk_flows, bulk_cfg);
    bulk.write(100'000'000);

    // At t=5s, a small 20 kB response-like transfer; measure completion.
    const auto flows = transport::make_flow_pair();
    transport::TcpSender snd(net->server(), flows,
                             transport::make_cca("cubic"));
    transport::TcpReceiver rcv(net->client(), flows);
    sim::Time done = -1;
    std::int64_t got = 0;
    rcv.set_on_data([&](std::int64_t n) {
      got += n;
      if (got >= 20'000 && done < 0) done = s.now();
    });
    s.at(seconds(5), [&] { snd.write(20'000); });
    s.run_until(seconds(15));
    return done < 0 ? seconds(999) : done - seconds(5);
  };

  const auto embb_only = run_with(
      [] { return std::make_unique<steer::SingleChannelPolicy>(0); }, 0);
  const auto dchannel = run_with(
      [] { return std::make_unique<steer::DChannelPolicy>(); }, 0);
  const auto dchannel_prio = run_with(
      [] {
        return std::make_unique<steer::DChannelPolicy>(
            steer::DChannelConfig{.use_flow_priority = true});
      },
      1);
  // Flow priority keeps the bulk flow off URLLC: the small transfer rides
  // an empty low-latency channel and beats both alternatives.
  EXPECT_LT(dchannel_prio, embb_only);
  EXPECT_LE(dchannel_prio, dchannel);
  // All schemes complete within the run.
  EXPECT_LT(embb_only, seconds(11));
  EXPECT_LT(dchannel, seconds(11));
}

TEST(Integration, PrioritySteeringProtectsLayer0UnderOutage) {
  // Outage-prone eMBB + URLLC; high-priority datagram messages keep
  // arriving on time only under the cross-layer policy.
  auto run_with = [&](std::unique_ptr<steer::SteeringPolicy> policy) {
    sim::Simulator s;
    auto net = std::make_unique<net::TwoHostNetwork>(
        s, std::make_unique<steer::SingleChannelPolicy>(0),
        std::move(policy));
    auto embb = channel::embb_constant_profile();
    // Replace the constant trace with one that has a 2 s outage.
    std::vector<sim::Time> opps;
    for (int ms = 0; ms < 10000; ++ms) {
      if (ms >= 4000 && ms < 6000) continue;  // outage
      for (int k = 0; k < 5; ++k) {           // 60 Mbps
        opps.push_back(milliseconds(ms) + k * milliseconds(1) / 5);
      }
    }
    embb.capacity_down =
        trace::CapacityTrace::from_opportunities(opps, seconds(10));
    net->add_channel(std::move(embb));
    net->add_channel(channel::urllc_profile());
    net->finalize();

    const auto flow = net::next_flow_id();
    transport::DatagramSocket tx(net->server(), flow);
    transport::DatagramSocket rx(net->client(), flow);
    sim::Summary latency_ms;
    std::map<std::uint64_t, sim::Time> sent_at;
    rx.set_on_message(
        [&](const transport::DatagramSocket::MessageEvent& ev) {
          if (ev.header.priority == 0) {
            latency_ms.add(
                sim::to_millis(ev.completed - sent_at[ev.header.message_id]));
          }
        });
    // 30 fps: layer 0 (1.6 kB) + layer 1 (17 kB) per frame.
    for (int f = 0; f < 270; ++f) {
      s.at(milliseconds(33 * f), [&, f] {
        (void)f;
        sent_at[tx.send_message(1600, 0)] = s.now();
        tx.send_message(17000, 1);
      });
    }
    s.run_until(seconds(10));
    return latency_ms;
  };

  auto embb_only = run_with(std::make_unique<steer::SingleChannelPolicy>(0));
  auto priority = run_with(std::make_unique<steer::MessagePriorityPolicy>());
  ASSERT_GT(priority.count(), 200u);
  // Under priority steering, layer-0 p95 latency stays low; eMBB-only
  // suffers the outage (~2 s tail).
  EXPECT_LT(priority.percentile(95), 60.0);
  EXPECT_GT(embb_only.percentile(95), 300.0);
}

TEST(Integration, FlowPriorityKeepsBackgroundOffUrllc) {
  sim::Simulator s;
  auto net = make_fig1_net(
      s,
      std::make_unique<steer::DChannelPolicy>(
          steer::DChannelConfig{.use_flow_priority = true}),
      std::make_unique<steer::DChannelPolicy>(
          steer::DChannelConfig{.use_flow_priority = true}));
  // Background flow with flow_priority 1.
  const auto bg_flows = transport::make_flow_pair();
  transport::TcpConfig bg_cfg;
  bg_cfg.flow_priority = 1;
  transport::TcpSender bg(net->server(), bg_flows,
                          transport::make_cca("cubic"), bg_cfg);
  transport::TcpReceiver bg_rcv(net->client(), bg_flows, bg_cfg);
  bg.write(20'000'000);
  s.run_until(seconds(5));
  // Nothing from the background flow (data or its acks) touched URLLC.
  EXPECT_EQ(net->downlink_shim().stats().packets_per_channel[1], 0);
  EXPECT_EQ(net->uplink_shim().stats().packets_per_channel[1], 0);
}

TEST(Integration, AdaptiveRackToleratesCrossChannelReordering) {
  // Steering across channels with a ~20 ms delay gap reorders packets
  // wholesale; the sender's adaptive RACK window must absorb it without a
  // spurious-retransmission storm. (Interesting ablation: a receiver-side
  // resequencer with too small a hold *hides* reordering from RACK's
  // adaptation and makes things worse — see
  // scenarios/ablation_resequencer.json.)
  sim::Simulator s;
  auto net = make_fig1_net(s, std::make_unique<steer::DChannelPolicy>(),
                           std::make_unique<steer::DChannelPolicy>(),
                           /*resequence=*/0);
  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net->server(), flows,
                           transport::make_cca("cubic"));
  transport::TcpReceiver rcv(net->client(), flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(20'000'000);
  s.run_until(seconds(10));
  EXPECT_EQ(received, 20'000'000);
  // Lossless channels: every retransmission is spurious. Require < 2% of
  // packets.
  EXPECT_LT(snd.stats().retransmissions,
            snd.stats().packets_sent / 50);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run = [&] {
    sim::Simulator s;
    auto net = make_fig1_net(s, std::make_unique<steer::DChannelPolicy>(),
                             std::make_unique<steer::DChannelPolicy>());
    const auto flows = transport::make_flow_pair();
    transport::TcpSender snd(net->server(), flows,
                             transport::make_cca("bbr"));
    transport::TcpReceiver rcv(net->client(), flows);
    snd.write(5'000'000);
    s.run_until(seconds(10));
    return std::make_tuple(snd.stats().packets_sent,
                           snd.stats().bytes_acked,
                           snd.stats().retransmissions,
                           rcv.stats().acks_sent);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hvc
