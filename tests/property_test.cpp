// Property-based tests: invariants that must hold across the whole
// parameter space — packet conservation, per-channel FIFO, steering
// budget discipline, and transport reliability — exercised with
// parameterized sweeps (TEST_P) over policies, loads, and channel shapes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/node.hpp"
#include "steer/basic_policies.hpp"
#include "transport/datagram.hpp"
#include "transport/tcp.hpp"

namespace hvc {
namespace {

using sim::milliseconds;
using sim::seconds;

// ---- Conservation: every packet is delivered exactly once or dropped ---

class ConservationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConservationTest, NoPacketDuplicatedOrVanishes) {
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy(GetParam()),
                          core::make_policy(GetParam()));
  net.add_channel(channel::embb_constant_profile());
  net.add_channel(channel::urllc_profile());
  net.finalize();

  const auto flow = net::next_flow_id();
  std::map<std::uint64_t, int> seen;  // packet id -> deliveries
  const net::FlowHandle sink =
      net.server().register_flow(flow, [&](net::PacketPtr p) {
        ++seen[p->id];
      });
  sim::Rng rng(17);
  constexpr int kPackets = 2000;
  for (int i = 0; i < kPackets; ++i) {
    s.at(static_cast<sim::Time>(rng.uniform(0, 2e9)), [&] {
      auto p = net::make_packet();
      p->flow = flow;
      p->type = net::PacketType::kData;
      p->size_bytes = rng.uniform_int(41, 1500);
      net.client().send(std::move(p));
    });
  }
  s.run();

  std::int64_t delivered = 0;
  for (const auto& [id, n] : seen) {
    EXPECT_EQ(n, 1) << "packet delivered " << n << " times";
    delivered += n;
  }
  std::int64_t dropped = 0;
  std::int64_t dup_sent = net.uplink_shim().stats().duplicates_sent;
  for (std::size_t c = 0; c < net.channels().size(); ++c) {
    dropped += net.channels().at(c).uplink().stats().dropped_queue_packets;
    dropped += net.channels().at(c).uplink().stats().dropped_wire_packets;
  }
  // sent + duplicates == delivered + dropped + suppressed-duplicates
  EXPECT_EQ(kPackets + dup_sent,
            delivered + dropped + net.server().duplicates_suppressed());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ConservationTest,
                         ::testing::Values("embb-only", "urllc-only",
                                           "round-robin", "weighted",
                                           "min-delay", "dchannel",
                                           "msg-priority", "redundant",
                                           "cost-aware"));

// ---- FIFO within each channel ----

class FifoTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FifoTest, PerChannelOrderPreserved) {
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy(GetParam()),
                          core::make_policy(GetParam()));
  net.add_channel(channel::embb_constant_profile());
  net.add_channel(channel::urllc_profile());
  net.finalize();

  const auto flow = net::next_flow_id();
  std::map<int, std::uint64_t> last_id_per_channel;
  bool fifo = true;
  const net::FlowHandle sink =
      net.server().register_flow(flow, [&](net::PacketPtr p) {
        auto& last = last_id_per_channel[p->channel];
        if (p->id < last) fifo = false;
        last = p->id;
      });
  for (int i = 0; i < 3000; ++i) {
    s.at(milliseconds(i), [&] {
      auto p = net::make_packet();
      p->flow = flow;
      p->type = net::PacketType::kData;
      p->size_bytes = 500;
      net.client().send(std::move(p));
    });
  }
  s.run();
  EXPECT_TRUE(fifo);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FifoTest,
                         ::testing::Values("round-robin", "weighted",
                                           "min-delay", "dchannel"));

// ---- Transport reliability across loss rates (TEST_P sweep) ----

// The CCA is a std::string, not a const char*: inside a tuple gtest prints a
// const char* with its address, which ASLR makes differ on every run, and
// the printed value is part of the CTest name.
class ReliabilityTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ReliabilityTest, AllBytesDeliveredUnderLoss) {
  const auto [cca, loss] = GetParam();
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy("dchannel"),
                          core::make_policy("dchannel"));
  auto embb = channel::embb_constant_profile();
  embb.loss.bernoulli = loss;
  net.add_channel(std::move(embb));
  net.add_channel(channel::urllc_profile());
  net.finalize();

  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net.server(), flows, transport::make_cca(cca));
  transport::TcpReceiver rcv(net.client(), flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(1'000'000);
  s.run_until(seconds(120));
  EXPECT_EQ(received, 1'000'000)
      << cca << " with loss " << loss << " failed to deliver";
}

INSTANTIATE_TEST_SUITE_P(
    CcaLossGrid, ReliabilityTest,
    ::testing::Combine(::testing::Values(std::string("cubic"),
                                         std::string("bbr"),
                                         std::string("vegas"),
                                         std::string("hvc")),
                       ::testing::Values(0.0, 0.01, 0.05)));

// ---- Steering sanity across packet sizes ----

class DecisionRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(DecisionRangeTest, PolicyAlwaysReturnsValidChannel) {
  const int size = GetParam();
  for (const char* name :
       {"embb-only", "round-robin", "weighted", "min-delay", "dchannel",
        "msg-priority", "redundant", "cost-aware"}) {
    auto policy = core::make_policy(name);
    std::array<steer::ChannelView, 3> views{};
    sim::Rng rng(size);
    for (std::size_t i = 0; i < views.size(); ++i) {
      views[i].index = i;
      views[i].base_owd = milliseconds(rng.uniform_int(1, 50));
      views[i].avg_rate_bps = views[i].recent_rate_bps =
          rng.uniform(1e6, 100e6);
      views[i].queued_bytes = rng.uniform_int(0, 100000);
      views[i].queue_limit_bytes = 200000;
      views[i].cost_per_megabyte = rng.uniform(0.0, 0.1);
    }
    for (int trial = 0; trial < 200; ++trial) {
      net::Packet pkt;
      pkt.type = trial % 3 == 0 ? net::PacketType::kAck
                                : net::PacketType::kData;
      pkt.size_bytes = size;
      pkt.app.present = trial % 2 == 0;
      pkt.app.priority = static_cast<std::uint8_t>(trial % 4);
      const auto d =
          policy->steer(pkt, views, static_cast<sim::Time>(trial) * 1000);
      EXPECT_LT(d.channel, views.size()) << name;
      for (const auto dup : d.duplicate_on) {
        EXPECT_LT(dup, views.size()) << name;
        EXPECT_NE(dup, d.channel) << name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DecisionRangeTest,
                         ::testing::Values(40, 100, 576, 1500));

// ---- Datagram messages complete exactly once per id ----

TEST(MessageProperty, EachMessageCompletesAtMostOnce) {
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy("redundant"),
                          core::make_policy("redundant"));
  net.add_channel(channel::embb_constant_profile());
  net.add_channel(channel::urllc_profile());
  net.finalize();

  const auto flow = net::next_flow_id();
  transport::DatagramSocket tx(net.server(), flow);
  transport::DatagramSocket rx(net.client(), flow);
  std::map<std::uint64_t, int> completions;
  rx.set_on_message([&](const transport::DatagramSocket::MessageEvent& ev) {
    ++completions[ev.header.message_id];
  });
  for (int i = 0; i < 500; ++i) {
    s.at(milliseconds(5 * i), [&] { tx.send_message(4000, 0); });
  }
  s.run();
  for (const auto& [id, n] : completions) EXPECT_EQ(n, 1);
  EXPECT_EQ(completions.size(), 500u);
}

// ---- Throughput never exceeds aggregate capacity ----

class CapacityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CapacityTest, GoodputBoundedByAggregateCapacity) {
  const auto r = core::run_bulk(core::ScenarioConfig::fig1(GetParam()),
                                "cubic", seconds(20));
  EXPECT_LE(r.goodput_bps, 62.5e6);  // 60 + 2 Mbps + measurement slack
}

INSTANTIATE_TEST_SUITE_P(Policies, CapacityTest,
                         ::testing::Values("embb-only", "dchannel",
                                           "min-delay", "weighted"));

// ---- Invariants under randomized fault plans (FaultFuzz*) ----
//
// Every core invariant above must also hold while a seeded-random
// FaultPlan (outages, rate cliffs, GE bursts, delay spikes, flaps) is
// disrupting the channels. The suites are named FaultFuzz* so the tsan
// preset (CMakePresets.json, scripts/check.sh) can select exactly them.

class FaultFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzzTest, ConservationFifoAndTerminationUnderFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  static constexpr const char* kPolicies[] = {
      "min-delay", "dchannel", "round-robin", "weighted", "redundant"};
  const char* policy = kPolicies[seed % std::size(kPolicies)];
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy(policy),
                          core::make_policy(policy));
  net.add_channel(channel::embb_constant_profile());
  net.add_channel(channel::urllc_profile());
  net.finalize();
  const auto plan = fault::FaultPlan::fuzzed(seed, 2, seconds(3));
  fault::FaultInjector inj(s, net.channels(), plan);

  const auto flow = net::next_flow_id();
  std::map<std::uint64_t, int> seen;
  std::map<int, std::uint64_t> last_id_per_channel;
  bool fifo = true;
  const net::FlowHandle sink =
      net.server().register_flow(flow, [&](net::PacketPtr p) {
        ++seen[p->id];
        auto& last = last_id_per_channel[p->channel];
        if (p->id < last) fifo = false;
        last = p->id;
      });
  sim::Rng rng(seed ^ 0xf00d);
  constexpr int kPackets = 1200;
  for (int i = 0; i < kPackets; ++i) {
    s.at(static_cast<sim::Time>(rng.uniform(0, 3e9)), [&] {
      auto p = net::make_packet();
      p->flow = flow;
      p->type = net::PacketType::kData;
      p->size_bytes = rng.uniform_int(41, 1500);
      net.client().send(std::move(p));
    });
  }
  // Termination: the injector's window list is finite and every window
  // ends with the fault reversed, so the event queue must drain.
  s.run();

  // Conservation: nothing vanishes, nothing is delivered twice.
  std::int64_t delivered = 0;
  for (const auto& [id, n] : seen) {
    EXPECT_EQ(n, 1) << "packet delivered " << n << " times (seed " << seed
                    << ", policy " << policy << ")";
    delivered += n;
  }
  std::int64_t dropped = 0;
  const std::int64_t dup_sent = net.uplink_shim().stats().duplicates_sent;
  for (std::size_t c = 0; c < net.channels().size(); ++c) {
    dropped += net.channels().at(c).uplink().stats().dropped_queue_packets;
    dropped += net.channels().at(c).uplink().stats().dropped_wire_packets;
  }
  EXPECT_EQ(kPackets + dup_sent,
            delivered + dropped + net.server().duplicates_suppressed())
      << "seed " << seed << ", policy " << policy;
  // Per-channel FIFO survives outages (queued packets keep their order).
  EXPECT_TRUE(fifo) << "seed " << seed << ", policy " << policy;
  // All faults reversed: every link serves again.
  for (std::size_t c = 0; c < net.channels().size(); ++c) {
    EXPECT_FALSE(net.channels().at(c).uplink().fault_down());
    EXPECT_FALSE(net.channels().at(c).downlink().fault_down());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzTest, ::testing::Range(0, 50));

// TCP must still deliver every byte exactly once through arbitrary
// disruption episodes — blackouts stall it (bounded backoff) but must
// never corrupt or lose application data.

class FaultFuzzTcpTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzzTcpTest, TcpDeliversAllBytesThroughFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  sim::Simulator s;
  net::TwoHostNetwork net(s, core::make_policy("dchannel"),
                          core::make_policy("dchannel"));
  net.add_channel(channel::embb_constant_profile());
  net.add_channel(channel::urllc_profile());
  net.finalize();
  const auto plan = fault::FaultPlan::fuzzed(seed, 2, seconds(5));
  fault::FaultInjector inj(s, net.channels(), plan);

  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net.server(), flows,
                           transport::make_cca("cubic"));
  transport::TcpReceiver rcv(net.client(), flows);
  std::int64_t received = 0;
  rcv.set_on_data([&](std::int64_t n) { received += n; });
  snd.write(600'000);
  s.run_until(seconds(120));
  EXPECT_EQ(received, 600'000) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzTcpTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace hvc
