// Tests for the network layer: shim steering + layering enforcement,
// node demux/dedup, topology wiring, and the resequencing buffer.
#include <gtest/gtest.h>

#include "channel/profile.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/reorder.hpp"
#include "net/shim.hpp"
#include "steer/basic_policies.hpp"
#include "steer/dchannel.hpp"
#include "steer/priority.hpp"
#include "steer/redundant.hpp"

namespace hvc::net {
namespace {

using sim::milliseconds;

PacketPtr seq_packet(FlowId flow, std::uint64_t seq, std::uint32_t len) {
  auto p = make_packet();
  p->flow = flow;
  p->type = PacketType::kData;
  p->size_bytes = len + kHeaderBytes;
  p->tp.seq = seq;
  p->tp.len = len;
  return p;
}

std::unique_ptr<TwoHostNetwork> fig1_network(
    std::unique_ptr<steer::SteeringPolicy> up,
    std::unique_ptr<steer::SteeringPolicy> down, sim::Simulator& s) {
  auto net = std::make_unique<TwoHostNetwork>(s, std::move(up),
                                              std::move(down));
  net->add_channel(channel::embb_constant_profile());
  net->add_channel(channel::urllc_profile());
  net->finalize();
  return net;
}

TEST(Packet, IdsAreUnique) {
  auto a = make_packet();
  auto b = make_packet();
  EXPECT_NE(a->id, b->id);
}

TEST(Packet, CloneGetsFreshIdButSameContent) {
  auto a = make_packet();
  a->flow = 9;
  a->size_bytes = 777;
  a->tp.seq = 42;
  auto b = clone_packet(*a);
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(b->flow, 9u);
  EXPECT_EQ(b->size_bytes, 777);
  EXPECT_EQ(b->tp.seq, 42u);
}

TEST(Packet, MakeAckShape) {
  auto a = make_ack(5, 1000, milliseconds(3));
  EXPECT_EQ(a->type, PacketType::kAck);
  EXPECT_EQ(a->size_bytes, kHeaderBytes);
  EXPECT_TRUE(a->tp.has_ack);
  EXPECT_EQ(a->tp.ack, 1000u);
  EXPECT_EQ(a->tp.ts_echo, milliseconds(3));
}

TEST(Node, RoutesToRegisteredFlow) {
  sim::Simulator s;
  Node n(s, "n");
  int got = 0;
  const FlowHandle h = n.register_flow(1, [&](PacketPtr) { ++got; });
  auto p = make_packet();
  p->flow = 1;
  n.deliver(std::move(p));
  EXPECT_EQ(got, 1);
}

TEST(Node, HandleOwnsTheRegistration) {
  sim::Simulator s;
  Node n(s, "n");
  int got = 0;
  auto deliver_one = [&] {
    auto p = make_packet();
    p->flow = 1;
    n.deliver(std::move(p));
  };
  FlowHandle handle;
  {
    FlowHandle first = n.register_flow(1, [&](PacketPtr) { ++got; });
    handle = std::move(first);
  }  // the moved-from handle dies here; the flow stays routed
  deliver_one();
  EXPECT_EQ(got, 1);
  // Re-registering over a live handle for the same flow: releasing the
  // old registration must not erase the new one.
  handle = n.register_flow(1, [&](PacketPtr) { got += 10; });
  deliver_one();
  EXPECT_EQ(got, 11);
  EXPECT_EQ(n.unroutable_packets(), 0);
  // Dropping the handle unregisters: the next packet is unroutable.
  handle.reset();
  deliver_one();
  EXPECT_EQ(got, 11);
  EXPECT_EQ(n.unroutable_packets(), 1);
}

TEST(Node, UnknownFlowCounted) {
  sim::Simulator s;
  Node n(s, "n");
  auto p = make_packet();
  p->flow = 99;
  n.deliver(std::move(p));
  EXPECT_EQ(n.unroutable_packets(), 1);
}

TEST(Node, DeduplicatesCopies) {
  sim::Simulator s;
  Node n(s, "n");
  int got = 0;
  const FlowHandle h = n.register_flow(1, [&](PacketPtr) { ++got; });
  auto p = make_packet();
  p->flow = 1;
  p->dup_group = 12345;
  auto copy = clone_packet(*p);
  n.deliver(std::move(p));
  n.deliver(std::move(copy));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(n.duplicates_suppressed(), 1);
}

TEST(Shim, CountsPerChannel) {
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::SingleChannelPolicy>(0),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  for (int i = 0; i < 5; ++i) {
    auto p = make_packet();
    p->flow = 1;
    p->size_bytes = 1500;
    net->client().send(std::move(p));
  }
  EXPECT_EQ(net->uplink_shim().stats().packets_per_channel[0], 5);
  EXPECT_EQ(net->uplink_shim().stats().packets_per_channel[1], 0);
}

TEST(Shim, StampsChosenChannelOnPacket) {
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::SingleChannelPolicy>(1),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  std::uint8_t seen = 255;
  const FlowHandle h =
      net->server().register_flow(1, [&](PacketPtr p) { seen = p->channel; });
  auto p = make_packet();
  p->flow = 1;
  p->size_bytes = 200;
  net->client().send(std::move(p));
  s.run();
  EXPECT_EQ(seen, 1);
}

TEST(Shim, EnforcesLayeringAgainstNetworkLayerPolicies) {
  // A DChannel policy must see blanked app info even if the packet
  // carries it. We verify indirectly: a priority-0 packet gets the same
  // treatment as an unannotated one under URLLC backlog that makes the
  // heuristic decline (the cross-layer policy would pin it to URLLC).
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::DChannelPolicy>(),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  // Build URLLC backlog so dchannel_choose declines data packets.
  for (int i = 0; i < 12; ++i) {
    auto filler = make_packet();
    filler->flow = 2;
    filler->size_bytes = 1500;
    filler->type = PacketType::kData;
    net->channels().at(1).uplink().send(std::move(filler));
  }
  auto p = make_packet();
  p->flow = 1;
  p->size_bytes = 1500;
  p->type = PacketType::kData;
  p->app.present = true;
  p->app.priority = 0;  // would pin to URLLC under MessagePriorityPolicy
  net->client().send(std::move(p));
  EXPECT_EQ(net->uplink_shim().stats().packets_per_channel[0], 1);
}

TEST(Shim, CrossLayerPolicySeesAppInfo) {
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::MessagePriorityPolicy>(),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  for (int i = 0; i < 12; ++i) {
    auto filler = make_packet();
    filler->flow = 2;
    filler->size_bytes = 1500;
    filler->type = PacketType::kData;
    net->channels().at(1).uplink().send(std::move(filler));
  }
  auto p = make_packet();
  p->flow = 1;
  p->size_bytes = 1500;
  p->type = PacketType::kData;
  p->app.present = true;
  p->app.priority = 0;
  net->client().send(std::move(p));
  EXPECT_EQ(net->uplink_shim().stats().packets_per_channel[1], 1);
}

TEST(Shim, DuplicatesDeliveredOnceEndToEnd) {
  sim::Simulator s;
  auto net = fig1_network(
      std::make_unique<steer::RedundantPolicy>(
          std::make_unique<steer::SingleChannelPolicy>(0),
          steer::RedundantConfig{.mirror_all = true}),
      std::make_unique<steer::SingleChannelPolicy>(0), s);
  int got = 0;
  const FlowHandle h =
      net->server().register_flow(1, [&](PacketPtr) { ++got; });
  auto p = make_packet();
  p->flow = 1;
  p->size_bytes = 500;
  p->type = PacketType::kData;
  net->client().send(std::move(p));
  s.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net->uplink_shim().stats().duplicates_sent, 1);
  EXPECT_EQ(net->server().duplicates_suppressed(), 1);
}

TEST(Network, BidirectionalDelivery) {
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::SingleChannelPolicy>(0),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  bool up = false;
  bool down = false;
  const FlowHandle hu =
      net->server().register_flow(1, [&](PacketPtr) { up = true; });
  const FlowHandle hd =
      net->client().register_flow(2, [&](PacketPtr) { down = true; });
  auto pu = make_packet();
  pu->flow = 1;
  pu->size_bytes = 100;
  net->client().send(std::move(pu));
  auto pd = make_packet();
  pd->flow = 2;
  pd->size_bytes = 100;
  net->server().send(std::move(pd));
  s.run();
  EXPECT_TRUE(up);
  EXPECT_TRUE(down);
}

TEST(Network, UrllcIsFasterForSmallPackets) {
  sim::Simulator s;
  auto net = fig1_network(std::make_unique<steer::SingleChannelPolicy>(1),
                          std::make_unique<steer::SingleChannelPolicy>(0),
                          s);
  sim::Time arrival = -1;
  const FlowHandle h =
      net->server().register_flow(1, [&](PacketPtr) { arrival = s.now(); });
  auto p = make_packet();
  p->flow = 1;
  p->size_bytes = 100;
  net->client().send(std::move(p));
  s.run();
  // URLLC: <1 ms serialization + 2.5 ms OWD.
  EXPECT_LT(arrival, milliseconds(5));
}

// ---- Resequencing buffer ----

TEST(Reorder, PassesInOrderTrafficThrough) {
  sim::Simulator s;
  std::vector<std::uint64_t> seqs;
  ReorderBuffer rb(s, milliseconds(40),
                   [&](PacketPtr p) { seqs.push_back(p->tp.seq); });
  rb.accept(seq_packet(1, 0, 100));
  rb.accept(seq_packet(1, 100, 100));
  rb.accept(seq_packet(1, 200, 100));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 100, 200}));
  EXPECT_EQ(rb.stats().held, 0);
}

TEST(Reorder, HoldsAheadPacketUntilGapFills) {
  sim::Simulator s;
  std::vector<std::uint64_t> seqs;
  ReorderBuffer rb(s, milliseconds(40),
                   [&](PacketPtr p) { seqs.push_back(p->tp.seq); });
  rb.accept(seq_packet(1, 0, 100));
  rb.accept(seq_packet(1, 200, 100));  // gap at [100, 200)
  EXPECT_EQ(seqs.size(), 1u);
  rb.accept(seq_packet(1, 100, 100));  // fills the gap
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 100, 200}));
  EXPECT_EQ(rb.stats().released_by_gap_fill, 1);
}

TEST(Reorder, ReleasesOnTimeout) {
  sim::Simulator s;
  std::vector<std::uint64_t> seqs;
  ReorderBuffer rb(s, milliseconds(40),
                   [&](PacketPtr p) { seqs.push_back(p->tp.seq); });
  rb.accept(seq_packet(1, 0, 100));
  rb.accept(seq_packet(1, 200, 100));
  s.run();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 200}));
  EXPECT_EQ(rb.stats().released_by_timeout, 1);
}

TEST(Reorder, AcksBypassBuffer) {
  sim::Simulator s;
  int delivered = 0;
  ReorderBuffer rb(s, milliseconds(40), [&](PacketPtr) { ++delivered; });
  auto ack = make_ack(1, 500, 0);
  rb.accept(std::move(ack));
  EXPECT_EQ(delivered, 1);
}

TEST(Reorder, IndependentPerFlow) {
  sim::Simulator s;
  std::vector<std::pair<FlowId, std::uint64_t>> out;
  ReorderBuffer rb(s, milliseconds(40), [&](PacketPtr p) {
    out.emplace_back(p->flow, p->tp.seq);
  });
  rb.accept(seq_packet(1, 0, 100));
  rb.accept(seq_packet(2, 500, 100));  // flow 2 starts at 500: in order
  EXPECT_EQ(out.size(), 2u);
}

TEST(Reorder, RetransmissionDeliversImmediately) {
  sim::Simulator s;
  std::vector<std::uint64_t> seqs;
  ReorderBuffer rb(s, milliseconds(40),
                   [&](PacketPtr p) { seqs.push_back(p->tp.seq); });
  rb.accept(seq_packet(1, 0, 100));
  rb.accept(seq_packet(1, 100, 100));
  rb.accept(seq_packet(1, 0, 100));  // dup/retx below expected
  EXPECT_EQ(seqs.size(), 3u);
}

}  // namespace
}  // namespace hvc::net
