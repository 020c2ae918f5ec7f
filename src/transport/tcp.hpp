// A reliable byte-stream transport over the emulated network: sequencing,
// cumulative + selective ACKs, RACK-style time-based loss detection with a
// 3-dupack fallback, RTO with exponential backoff, pacing, and pluggable
// congestion control.
//
// Loss detection and the choice of the next retransmission are amortized
// O(1) per ACK (O(log n) for index updates): RACK walks a send-time-ordered
// list of the segments it may still mark and stops at the first unexpired
// one (Linux's tsorted queue), and retransmissions come from an ordered
// index of lost seqs rather than a walk over every outstanding segment
// (DESIGN.md §4.12).
//
// One TcpSender/TcpReceiver pair is a unidirectional stream (requests and
// responses are separate streams, as in HTTP/2 framing over one
// connection; see transport/connection.hpp for the bidirectional bundle).
// ACKs travel through the receiver node's egress shim — which is exactly
// how DChannel accelerates them (§3.2: "DChannel obtains a significant
// portion of its gains from accelerating ACKs").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "transport/cca.hpp"
#include "transport/rtt.hpp"

namespace hvc::transport {

struct FlowPair {
  net::FlowId data;
  net::FlowId ack;
};
FlowPair make_flow_pair();

struct TcpConfig {
  std::string cca = "cubic";

  /// Cross-layer opt-in (§3.3): segments carry the AppHeader of the
  /// message they belong to, visible to cross-layer steering policies.
  bool annotate_app_info = false;

  /// Flow-level priority stamped on every packet (0 = foreground).
  std::uint8_t flow_priority = 0;

  /// Delayed ACKs: ack every 2nd packet or after a 25 ms timeout.
  bool delayed_ack = false;

  int max_sack_blocks = 4;
};

struct TcpSenderStats {
  std::int64_t packets_sent = 0;
  std::int64_t bytes_acked = 0;         ///< cumulatively acked payload
  std::int64_t retransmissions = 0;
  std::int64_t rto_count = 0;
  std::int64_t spurious_loss_marks = 0;  ///< losses disproved by arrival
  sim::TimeSeries rtt_samples_ms;       ///< per-ACK RTT (Fig. 1b)
  sim::TimeSeries acked_bytes_series;   ///< (t, cumulative acked)
};

/// A message written to the stream; used for cross-layer annotation and
/// receiver-side completion callbacks.
struct StreamMessage {
  std::uint64_t id = 0;
  std::int64_t bytes = 0;
  std::uint8_t priority = 0;
  sim::Time created_at = 0;
};

class TcpSender {
 public:
  TcpSender(net::Node& local, FlowPair flows, CcaPtr cca, TcpConfig cfg = {});
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Append anonymous bulk bytes to the stream.
  void write(std::int64_t bytes);

  /// Append a message (annotated with boundaries/priority when the config
  /// opts in). Returns the message id.
  std::uint64_t write_message(std::int64_t bytes, std::uint8_t priority = 0);

  [[nodiscard]] std::int64_t bytes_in_flight() const { return in_flight_; }
  [[nodiscard]] bool idle() const { return cum_acked_ == stream_end_; }

  [[nodiscard]] const TcpSenderStats& stats() const { return stats_; }
  [[nodiscard]] TcpSenderStats& mutable_stats() { return stats_; }
  [[nodiscard]] const CcAlgorithm& cca() const { return *cca_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }
  [[nodiscard]] const TcpConfig& config() const { return cfg_; }

  /// Average goodput over [from, to] based on cumulative acked bytes.
  [[nodiscard]] double goodput_bps(sim::Time from, sim::Time to) const;

  /// Brute-force audit of the loss-detection indexes against the
  /// outstanding segments: the RACK list is ordered by last_sent and holds
  /// exactly the !sacked && !lost segments, the lost index holds exactly
  /// the lost ones, and bytes_in_flight() is the summed length of the
  /// in_flight segments. O(n); tests call it between events.
  [[nodiscard]] bool loss_index_consistent_for_test() const;

 private:
  struct Segment {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;
    sim::Time first_sent = 0;
    sim::Time last_sent = 0;
    int tx_count = 0;
    bool sacked = false;
    bool lost = false;     ///< marked for retransmission
    bool in_flight = false;  ///< currently counted in in_flight_
    net::AppHeader app;
    // Delivery-rate sampling snapshots (BBR-style).
    std::int64_t delivered_snapshot = 0;
    sim::Time delivered_ts_snapshot = 0;
    bool app_limited = false;
    // RACK list links (see rack_head_); null when not listed.
    Segment* rack_prev = nullptr;
    Segment* rack_next = nullptr;
  };

  /// What a delivery-rate sample needs from the newest segment an ACK
  /// covers (the segment itself may be erased by then).
  struct RateSnapshot {
    std::uint64_t seq = 0;
    std::int64_t delivered = 0;
    sim::Time delivered_ts = 0;
    bool app_limited = false;
  };

  void on_ack_packet(const net::PacketPtr& p);
  void try_send();
  void send_segment(Segment& seg, bool retransmission);
  std::optional<std::uint64_t> next_fresh_span(std::uint32_t* len,
                                               net::AppHeader* app);
  void rack_push_back(Segment& seg);
  void rack_unlink(Segment& seg);
  /// Takes a listed segment off the RACK list and into the lost index,
  /// out of in_flight_; returns its length.
  std::int64_t mark_lost(Segment& seg);
  /// Takes a segment that is being SACKed or cum-acked off whichever
  /// index holds it (neither, if it was already SACKed).
  void unindex_delivered(Segment& seg);
  void detect_losses_rack(sim::Time rack_ts);
  void note_reordering(const Segment& seg);
  void note_spurious_if_unretransmitted(const Segment& seg, sim::Time now);
  void arm_rto();
  void on_rto();
  [[nodiscard]] sim::Duration rack_window() const;

  net::Node& local_;
  sim::Simulator& sim_;
  FlowPair flows_;
  CcaPtr cca_;
  TcpConfig cfg_;

  // Stream state.
  std::uint64_t stream_end_ = 0;   ///< bytes written by the app
  std::uint64_t next_seq_ = 0;     ///< next fresh byte to send
  std::uint64_t cum_acked_ = 0;
  std::deque<StreamMessage> message_spans_;  ///< spans not fully sent
  std::uint64_t span_cursor_ = 0;  ///< seq where message_spans_.front() starts
  std::uint64_t next_message_id_ = 1;

  std::map<std::uint64_t, Segment> outstanding_;  ///< by seq
  std::int64_t in_flight_ = 0;

  // Loss-detection indexes over outstanding_. Every segment that is
  // neither sacked nor lost sits on the RACK list, linked through its own
  // rack_prev/rack_next in last_sent order: a send or re-send moves it to
  // the tail, so RACK scans from the head and stops at the first unexpired
  // entry. Every lost segment's seq sits in lost_seqs_, so the lowest-seq
  // retransmission is its first element. A segment leaves its index before
  // its outstanding_ node is erased (the list links point into the map).
  Segment* rack_head_ = nullptr;
  Segment* rack_tail_ = nullptr;
  std::set<std::uint64_t> lost_seqs_;

  // Delivery accounting for rate samples.
  std::int64_t delivered_bytes_ = 0;
  sim::Time delivered_ts_ = 0;

  // Round counting.
  std::int64_t round_trips_ = 0;
  std::uint64_t round_end_seq_ = 0;

  // Dupack fallback.
  std::uint64_t last_cum_ack_ = 0;
  int dupacks_ = 0;

  // RACK reordering-window adaptation.
  bool reordering_seen_ = false;
  int reo_mult_ = 1;
  std::uint64_t highest_sacked_end_ = 0;
  sim::Time last_undo_ = -sim::seconds(1);

  RttEstimator rtt_;
  sim::Timer rto_timer_;
  int rto_backoff_ = 0;
  sim::Timer pace_timer_;
  sim::Time next_send_time_ = 0;

  TcpSenderStats stats_;

  // Registry mirrors of stats_ (aggregated across all senders in a run):
  // transport.tcp.{packets_sent,retransmissions,rto_count,spurious_loss_marks}.
  obs::Counter* m_packets_sent_ = nullptr;
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_rto_count_ = nullptr;
  obs::Counter* m_spurious_ = nullptr;

  // Telemetry time series, keyed by data-flow id:
  // transport.tcp.flow<id>.{cwnd_bytes,inflight_bytes,srtt_ms,pacing_mbps}
  // — the per-connection dynamics behind Fig. 1 (cwnd collapse under
  // cross-channel steering). Registrations die with the sender; recorded
  // samples stay exportable.
  obs::TelemetryProbes probes_;

  net::FlowHandle ack_handler_;  ///< last: unregistered first
};

struct TcpReceiverStats {
  std::int64_t acks_sent = 0;
};

class TcpReceiver {
 public:
  TcpReceiver(net::Node& local, FlowPair flows, TcpConfig cfg = {});

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  /// In-order data callback: (new in-order bytes now available).
  void set_on_data(std::function<void(std::int64_t)> cb) {
    on_data_ = std::move(cb);
  }

  /// Full-message callback: fires when every byte of an annotated message
  /// has been received. Args: header of the message, completion time.
  void set_on_message(
      std::function<void(const net::AppHeader&, sim::Time)> cb) {
    on_message_ = std::move(cb);
  }

  [[nodiscard]] const TcpReceiverStats& stats() const { return stats_; }

 private:
  void on_data_packet(const net::PacketPtr& p);
  void send_ack(const net::PacketPtr& trigger);

  net::Node& local_;
  sim::Simulator& sim_;
  FlowPair flows_;
  TcpConfig cfg_;

  std::uint64_t cum_ = 0;  ///< next expected in-order byte
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< [first, last) blocks
  std::deque<std::pair<std::uint64_t, std::uint64_t>> recent_blocks_;

  struct MessageProgress {
    net::AppHeader header;
    std::int64_t received = 0;
  };
  std::map<std::uint64_t, MessageProgress> messages_;

  int unacked_count_ = 0;
  sim::Timer delack_timer_;
  net::PacketPtr pending_trigger_;

  std::function<void(std::int64_t)> on_data_;
  std::function<void(const net::AppHeader&, sim::Time)> on_message_;
  TcpReceiverStats stats_;

  net::FlowHandle data_handler_;  ///< last: unregistered first
};

}  // namespace hvc::transport
