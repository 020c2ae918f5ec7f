#include "transport/connection.hpp"

namespace hvc::transport {

Connection::Connection(net::Node& client, net::Node& server, TcpConfig cfg)
    : client_(client), server_(server), cfg_(cfg) {
  const FlowPair c2s = make_flow_pair();
  const FlowPair s2c = make_flow_pair();
  c2s_sender_ =
      std::make_unique<TcpSender>(client, c2s, make_cca(cfg_.cca), cfg_);
  c2s_receiver_ = std::make_unique<TcpReceiver>(server, c2s, cfg_);
  s2c_sender_ =
      std::make_unique<TcpSender>(server, s2c, make_cca(cfg_.cca), cfg_);
  s2c_receiver_ = std::make_unique<TcpReceiver>(client, s2c, cfg_);
  syn_flow_ = net::next_flow_id();
  syn_ack_flow_ = net::next_flow_id();
}

void Connection::handshake(std::function<void()> ready) {
  if (established_) {
    if (ready) ready();
    return;
  }
  // SYN: client → server.
  syn_handler_ = server_.register_flow(syn_flow_, [this](net::PacketPtr) {
    syn_handler_.reset();
    auto syn_ack = net::make_packet();
    syn_ack->flow = syn_ack_flow_;
    syn_ack->type = net::PacketType::kControl;
    syn_ack->size_bytes = net::kHeaderBytes;
    syn_ack->flow_priority = cfg_.flow_priority;
    server_.send(std::move(syn_ack));
  });
  // SYN-ACK: server → client.
  syn_ack_handler_ = client_.register_flow(
      syn_ack_flow_, [this, ready = std::move(ready)](net::PacketPtr) {
        syn_ack_handler_.reset();
        established_ = true;
        if (ready) ready();
      });
  auto syn = net::make_packet();
  syn->flow = syn_flow_;
  syn->type = net::PacketType::kControl;
  syn->size_bytes = net::kHeaderBytes;
  syn->flow_priority = cfg_.flow_priority;
  client_.send(std::move(syn));
}

}  // namespace hvc::transport
