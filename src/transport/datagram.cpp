#include "transport/datagram.hpp"

#include <algorithm>

namespace hvc::transport {

using net::PacketPtr;

DatagramSocket::DatagramSocket(net::Node& local, net::FlowId flow,
                               std::uint8_t flow_priority)
    : local_(local),
      flow_(flow),
      flow_priority_(flow_priority),
      inbound_handler_(local_.register_flow(
          flow_, [this](PacketPtr p) { on_inbound(p); })) {}

std::uint64_t DatagramSocket::send_message(std::int64_t bytes,
                                           std::uint8_t priority) {
  if (bytes <= 0) return 0;
  const std::uint64_t id = next_message_id_++;
  send_message_with_id(id, bytes, priority);
  return id;
}

void DatagramSocket::send_message_with_id(std::uint64_t id,
                                          std::int64_t bytes,
                                          std::uint8_t priority) {
  if (bytes <= 0) return;
  std::int64_t offset = 0;
  while (offset < bytes) {
    const std::int64_t len =
        std::min<std::int64_t>(bytes - offset, net::kMaxPayload);
    auto p = net::make_packet();
    p->flow = flow_;
    p->type = net::PacketType::kData;
    p->size_bytes = len + net::kHeaderBytes;
    p->flow_priority = flow_priority_;
    p->app.present = true;
    p->app.message_id = id;
    p->app.message_bytes = static_cast<std::uint32_t>(bytes);
    p->app.offset = static_cast<std::uint32_t>(offset);
    p->app.priority = priority;
    p->app.message_end = offset + len == bytes;
    p->tp.ts = local_.simulator().now();
    local_.send(std::move(p));
    offset += len;
  }
  ++messages_sent_;
}

void DatagramSocket::on_inbound(const PacketPtr& p) {
  if (on_packet_) on_packet_(p);
  if (!p->app.present || !on_message_) return;

  // Bound reassembly state: messages that lost packets never complete;
  // evict the oldest (ids are monotonic) once the table grows.
  while (reassembly_.size() > 256) reassembly_.erase(reassembly_.begin());

  auto& r = reassembly_[p->app.message_id];
  if (r.received == 0) {
    r.header = p->app;
    r.sent_at = p->tp.ts;
    r.first_arrival = local_.simulator().now();
  }
  // Redundancy policies can deliver the same chunk twice even after node
  // dedup (e.g. distinct retransmissions); count unique offsets only.
  if (!r.offsets.insert(p->app.offset).second) return;
  const std::int64_t payload = p->size_bytes - net::kHeaderBytes;
  r.received += payload;
  if (r.received >= static_cast<std::int64_t>(r.header.message_bytes)) {
    MessageEvent ev;
    ev.header = r.header;
    ev.sent_at = r.sent_at;
    ev.first_arrival = r.first_arrival;
    ev.completed = local_.simulator().now();
    reassembly_.erase(p->app.message_id);
    on_message_(ev);
  }
}

}  // namespace hvc::transport
