#include "net/packet.hpp"

#include <atomic>

#include "net/pool.hpp"
#include "obs/prof.hpp"

namespace hvc::net {

namespace {
// Thread-local so concurrent simulations (src/exp sweeps) never contend
// or perturb each other's id sequences.
thread_local std::uint64_t g_next_packet_id = 1;
}  // namespace

PacketPtr make_packet() {
  HVC_PROF_SCOPE(obs::prof::Hook::kPacketAlloc);
  // PooledAllocator reports the bytes to the prof hooks while recycling
  // the fused object+control-block allocation (see pool.hpp).
  auto p = std::allocate_shared<Packet>(PooledAllocator<Packet>{});
  p->id = g_next_packet_id++;
  return p;
}

void reset_packet_ids_for_test() { g_next_packet_id = 1; }

std::uint64_t packet_id_counter() { return g_next_packet_id; }

void set_packet_id_counter(std::uint64_t next) { g_next_packet_id = next; }

PacketPtr make_ack(FlowId flow, std::uint64_t ack, sim::Time ts_echo) {
  auto p = make_packet();
  p->flow = flow;
  p->type = PacketType::kAck;
  p->size_bytes = kHeaderBytes;
  p->tp.ack = ack;
  p->tp.has_ack = true;
  p->tp.ts_echo = ts_echo;
  return p;
}

PacketPtr clone_packet(const Packet& src) {
  HVC_PROF_SCOPE(obs::prof::Hook::kPacketAlloc);
  auto p = std::allocate_shared<Packet>(PooledAllocator<Packet>{}, src);
  p->id = g_next_packet_id++;
  return p;
}

}  // namespace hvc::net
