// Unreliable datagram socket — the paper's real-time video experiment
// (§3.3) sends SVC layers "as UDP packets": no retransmission, no
// congestion control; frames that miss their decode deadline are simply
// late. Messages larger than one MTU are segmented; the receiver
// reassembles by (message_id, offset) and reports completion times.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace hvc::transport {

class DatagramSocket {
 public:
  DatagramSocket(net::Node& local, net::FlowId flow,
                 std::uint8_t flow_priority = 0);

  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  /// Send a message of `bytes` with the given priority; it is segmented
  /// into MTU-sized packets, each annotated with the message header.
  /// Returns the message id.
  std::uint64_t send_message(std::int64_t bytes, std::uint8_t priority);

  /// Same, with a caller-chosen message id (e.g. an encoding of
  /// frame-and-layer for video). Ids must be unique per socket.
  void send_message_with_id(std::uint64_t id, std::int64_t bytes,
                            std::uint8_t priority);

  /// Per-packet receive hook.
  void set_on_packet(std::function<void(const net::PacketPtr&)> cb) {
    on_packet_ = std::move(cb);
  }

  /// Everything known about a fully reassembled message.
  struct MessageEvent {
    net::AppHeader header;
    sim::Time sent_at = 0;        ///< first packet's send timestamp
    sim::Time first_arrival = 0;  ///< first packet's arrival
    sim::Time completed = 0;      ///< last packet's arrival
  };

  /// Full-message hook.
  void set_on_message(std::function<void(const MessageEvent&)> cb) {
    on_message_ = std::move(cb);
  }

  [[nodiscard]] net::FlowId flow() const { return flow_; }
  [[nodiscard]] std::int64_t messages_sent() const { return messages_sent_; }

 private:
  void on_inbound(const net::PacketPtr& p);

  net::Node& local_;
  net::FlowId flow_;
  std::uint8_t flow_priority_;
  std::uint64_t next_message_id_ = 1;
  std::int64_t messages_sent_ = 0;

  struct Reassembly {
    net::AppHeader header;
    std::set<std::uint32_t> offsets;  ///< unique chunk offsets
    std::int64_t received = 0;
    sim::Time sent_at = 0;
    sim::Time first_arrival = 0;
  };
  std::map<std::uint64_t, Reassembly> reassembly_;

  std::function<void(const net::PacketPtr&)> on_packet_;
  std::function<void(const MessageEvent&)> on_message_;

  net::FlowHandle inbound_handler_;  ///< last: unregistered first
};

}  // namespace hvc::transport
