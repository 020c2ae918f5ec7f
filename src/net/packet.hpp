// The packet: the common currency between transports, the steering shim,
// and emulated channels.
//
// Because the whole stack is ours, the packet carries its transport header
// directly (no serialization), plus an optional cross-layer application
// header (message id / boundary / priority). Network-layer policies such as
// DChannel must not read `app` — that separation is what §3.1 vs §3.3 of
// the paper is about, and the policy base class enforces it (see
// steer/steering_policy.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/units.hpp"

namespace hvc::net {

using FlowId = std::uint64_t;

enum class PacketType : std::uint8_t {
  kData,     ///< transport payload
  kAck,      ///< pure acknowledgment
  kControl,  ///< handshake / probe / other control
};

/// Cross-layer application header (§3.3): present only when the
/// application opted in through the intents API.
struct AppHeader {
  bool present = false;
  std::uint64_t message_id = 0;
  std::uint32_t message_bytes = 0;     ///< total size of the message
  std::uint32_t offset = 0;            ///< this packet's offset in message
  bool message_end = false;            ///< last packet of the message
  std::uint8_t priority = 0;           ///< 0 = most important
};

/// Transport header, shared by the TCP-like and QUIC-like transports.
struct TransportHeader {
  std::uint64_t seq = 0;       ///< first payload byte / packet number
  std::uint32_t len = 0;       ///< payload bytes
  std::uint64_t ack = 0;       ///< cumulative ack (next expected)
  bool has_ack = false;
  sim::Time ts = 0;            ///< sender timestamp
  sim::Time ts_echo = 0;       ///< echoed timestamp (RTT measurement)

  /// SACK blocks: [first, last) byte ranges received out of order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack;

  /// Channel the acked data packet arrived on (receiver echo); lets the
  /// HVC-aware CCA (§3.2) attribute RTT samples to channels. 255 = none.
  std::uint8_t channel_echo = 255;
};

struct Packet {
  std::uint64_t id = 0;    ///< globally unique (assigned by make_packet)
  FlowId flow = 0;
  PacketType type = PacketType::kData;
  std::int64_t size_bytes = 0;  ///< wire size including all headers

  TransportHeader tp;
  AppHeader app;

  /// Flow-level priority (§3.3 Table 1): 0 = foreground/interactive,
  /// larger = more background. Network-layer policies may not read it;
  /// flow-priority-aware DChannel may.
  std::uint8_t flow_priority = 0;

  /// Bookkeeping stamped by the stack (not "on the wire").
  std::uint8_t channel = 0;    ///< channel index it was steered to
  std::uint32_t copies = 1;    ///< >1 when a redundancy policy duplicated it
  std::uint64_t dup_group = 0; ///< shared across copies; receiver dedup key

  /// Transport-chosen path (§3.2: the endpoint, not the network, steers).
  /// Honored by steer::PinnedChannelPolicy; -1 = no preference.
  std::int8_t requested_channel = -1;

  /// Extension slot for the QUIC-like transport's frame payloads.
  std::shared_ptr<void> ext;
};

using PacketPtr = std::shared_ptr<Packet>;

/// Wire overhead we charge per packet (rough IP+transport header cost).
inline constexpr std::int64_t kHeaderBytes = 40;
/// Conventional MTU; transports segment to this.
inline constexpr std::int64_t kMtuBytes = 1500;
/// Max payload per packet.
inline constexpr std::int64_t kMaxPayload = kMtuBytes - kHeaderBytes;

/// Allocate a packet with a fresh id, unique within this thread's current
/// id scope (the counter is thread-local; see net::IdScope in node.hpp).
PacketPtr make_packet();

/// Reset the packet-id counter. Test-only: lets determinism tests produce
/// byte-identical traces across repeated in-process runs.
void reset_packet_ids_for_test();

/// Raw access to the thread-local packet-id counter (next id to hand
/// out). Used by net::IdScope to save/restore around isolated runs.
[[nodiscard]] std::uint64_t packet_id_counter();
void set_packet_id_counter(std::uint64_t next);

/// Convenience: a pure-ACK packet for `flow` acking `ack`.
PacketPtr make_ack(FlowId flow, std::uint64_t ack, sim::Time ts_echo);

/// Deep copy with a fresh id (used by redundancy policies).
PacketPtr clone_packet(const Packet& p);

}  // namespace hvc::net
