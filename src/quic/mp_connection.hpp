// MPQUIC-style multipath message transport — the §3.2/§4 design made
// concrete: a transport that *knows the individual virtual channels
// exist*, steers its own packets (via Packet::requested_channel +
// PinnedChannelPolicy), keeps per-path RTT/congestion state, and accepts
// application intents per stream.
//
// Mechanisms from the paper it implements:
//   * per-segment path scheduling (not per-flow like Socket Intents);
//   * ACKs returned on the lowest-latency path regardless of the data
//     path (§4: "sends ACKs from a high bandwidth path subflow to a low
//     latency path");
//   * tail-segment acceleration: the last bytes of a message may ride the
//     fast path to cut head-of-line blocking (§3.2);
//   * priority pinning: streams whose intents mark them important keep
//     their messages on the fast path (§3.3).
//
// Reliability is QUIC-like: monotonic packet numbers per connection,
// packet-threshold + time-threshold loss detection, data re-enqueued on
// loss. Congestion control is per path (one CCA instance each), so a slow
// path cannot starve a fast one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "quic/intents.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "transport/cca.hpp"
#include "transport/rtt.hpp"

namespace hvc::quic {

enum class SchedulerKind : std::uint8_t {
  kMinRtt,    ///< classic MPQUIC: fill the lowest-RTT path first
  kEcf,       ///< ECF [30]: earliest-completion-first across paths
  kHvcAware,  ///< §3.2: intents-, size- and channel-aware
};

struct MpConfig {
  SchedulerKind scheduler = SchedulerKind::kHvcAware;
  /// Return ACKs on the lowest-latency path.
  bool ack_on_fast_path = true;
};

struct MpStats {
  std::int64_t retransmitted_chunks = 0;
  std::vector<std::int64_t> packets_per_path;
};

class MpConnection;

/// One endpoint of a multipath connection. Create one at each node with
/// mirrored flow ids (see MpConnection::make_pair).
class MpEndpoint {
 public:
  MpEndpoint(net::Node& node, net::FlowId flow, std::size_t num_paths,
             MpConfig cfg);

  MpEndpoint(const MpEndpoint&) = delete;
  MpEndpoint& operator=(const MpEndpoint&) = delete;

  /// Declare a stream with intents. Returns the stream id.
  std::uint64_t open_stream(StreamIntents intents);

  /// Queue a message on a stream. Returns message id.
  std::uint64_t send_message(std::uint64_t stream, std::int64_t bytes);

  /// Completed inbound message: (stream, message, created→completed ms).
  struct MessageEvent {
    std::uint64_t stream = 0;
    std::uint64_t message = 0;
    std::uint8_t priority = 0;
    sim::Time sent_at = 0;
    sim::Time completed = 0;
  };
  void set_on_message(std::function<void(const MessageEvent&)> cb) {
    on_message_ = std::move(cb);
  }

  [[nodiscard]] const MpStats& stats() const { return stats_; }
  [[nodiscard]] sim::Duration path_srtt(std::size_t path) const;
  [[nodiscard]] bool idle() const;

 private:
  struct Chunk {  ///< a message fragment awaiting transmission
    std::uint64_t stream;
    std::uint64_t message;
    std::int64_t offset;
    std::int64_t len;
    std::int64_t message_bytes;
    std::uint8_t priority;
    TrafficClass traffic;
    sim::Time created_at;
  };

  struct SentPacket {
    Chunk chunk;
    sim::Time sent_at = 0;
    std::size_t path = 0;
    std::uint64_t path_seq = 0;  ///< per-path sequence (loss threshold)
    bool acked = false;
    bool lost = false;
  };

  struct Path {
    transport::CcaPtr cca;
    transport::RttEstimator rtt;
    std::int64_t in_flight = 0;
    std::int64_t round_trips = 0;
    std::uint64_t round_end_pkt = 0;
    std::uint64_t next_path_seq = 1;      ///< per-path number space
    std::uint64_t largest_acked_seq = 0;  ///< largest acked per-path seq
    // Delivery-rate estimate (bulk scheduling signal).
    std::int64_t epoch_bytes = 0;
    sim::Time epoch_start = 0;
    double rate_bps = 0.0;  ///< EWMA of acked bytes per epoch
  };

  struct Reassembly {
    std::set<std::uint32_t> offsets;  ///< unique chunk offsets received
    std::int64_t received = 0;
    std::int64_t total = 0;
    std::uint8_t priority = 0;
    sim::Time sent_at = 0;
  };

  void on_packet(const net::PacketPtr& p);
  void on_data(const net::PacketPtr& p);
  void on_ack(const net::PacketPtr& p);
  void try_send();
  std::size_t pick_path(const Chunk& chunk);
  void send_chunk(Chunk chunk, std::size_t path);
  void send_ack(std::uint64_t pkt_number, std::uint8_t channel,
                sim::Time ts_echo);
  void detect_losses();
  void arm_loss_timer();
  [[nodiscard]] std::size_t fastest_path() const;
  [[nodiscard]] std::size_t widest_path() const;

  net::Node& node_;
  sim::Simulator& sim_;
  net::FlowId flow_;
  MpConfig cfg_;
  std::vector<Path> paths_;

  std::uint64_t next_stream_ = 1;
  std::uint64_t next_message_ = 1;
  std::uint64_t next_packet_number_ = 1;
  std::uint64_t largest_acked_ = 0;
  std::map<std::uint64_t, StreamIntents> streams_;
  std::deque<Chunk> send_queue_;
  std::map<std::uint64_t, SentPacket> unacked_;  ///< by packet number

  std::map<std::uint64_t, Reassembly> reassembly_;  ///< by message id
  sim::Timer loss_timer_;

  std::function<void(const MessageEvent&)> on_message_;
  MpStats stats_;

  // Registry mirrors (aggregated across endpoints): transport.quic.*.
  obs::Counter* m_packets_sent_ = nullptr;
  obs::Counter* m_retx_chunks_ = nullptr;
  sim::Summary* m_msg_latency_ = nullptr;

  net::FlowHandle inbound_handler_;  ///< last: unregistered first
};

/// Client/server endpoint pair over a TwoHostNetwork whose shims must use
/// PinnedChannelPolicy (see make_pinned_network below).
struct MpConnection {
  std::unique_ptr<MpEndpoint> client;
  std::unique_ptr<MpEndpoint> server;

  static MpConnection make_pair(net::Node& client_node,
                                net::Node& server_node,
                                std::size_t num_paths, MpConfig cfg);
};

}  // namespace hvc::quic
