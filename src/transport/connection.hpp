// A bidirectional connection: two unidirectional reliable streams
// (client→server and server→client), each with its own congestion
// controller — the shape of an HTTP/2-over-TCP connection in this
// framework. The web model (app/web) builds its origin connections from
// this, including an optional connection-setup handshake round trip.
#pragma once

#include <functional>
#include <memory>

#include "net/node.hpp"
#include "transport/tcp.hpp"

namespace hvc::transport {

class Connection {
 public:
  /// `client`/`server` are the two endpoints; `cfg` applies to both
  /// directions (separate CCA instances are created per direction).
  Connection(net::Node& client, net::Node& server, TcpConfig cfg = {});
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Client-side request stream.
  [[nodiscard]] TcpSender& client_sender() { return *c2s_sender_; }
  [[nodiscard]] TcpReceiver& server_receiver() { return *c2s_receiver_; }

  /// Server-side response stream.
  [[nodiscard]] TcpSender& server_sender() { return *s2c_sender_; }
  [[nodiscard]] TcpReceiver& client_receiver() { return *s2c_receiver_; }

  /// Simulate connection establishment: a control-packet round trip
  /// (client→server→client) before `ready` fires. Handshake packets go
  /// through the shims like everything else — steering accelerates them.
  void handshake(std::function<void()> ready);

  [[nodiscard]] bool established() const { return established_; }

 private:
  net::Node& client_;
  net::Node& server_;
  TcpConfig cfg_;
  std::unique_ptr<TcpSender> c2s_sender_;
  std::unique_ptr<TcpReceiver> c2s_receiver_;
  std::unique_ptr<TcpSender> s2c_sender_;
  std::unique_ptr<TcpReceiver> s2c_receiver_;
  net::FlowId syn_flow_;
  net::FlowId syn_ack_flow_;
  bool established_ = false;
  // The one-shot handshake handlers capture `this`. Each resets its own
  // handle when it fires; a connection destroyed mid-handshake (a
  // timed-out page load) drops them with the handles.
  net::FlowHandle syn_handler_;
  net::FlowHandle syn_ack_handler_;
};

}  // namespace hvc::transport
