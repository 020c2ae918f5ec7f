#include "quic/mp_connection.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace hvc::quic {

using net::PacketPtr;
using sim::Duration;
using sim::Time;

namespace {

/// The HVC-aware scheduler accelerates the final bytes of any interactive
/// message once fewer than this many remain.
constexpr std::int64_t kTailBytes = 4000;
/// Streams with priority <= this are pinned to the fast path.
constexpr std::uint8_t kFastPathMaxPriority = 1;
/// Per-path congestion controller.
constexpr const char* kCca = "cubic";
/// QUIC loss detection: packet reordering threshold, and the time
/// threshold as a multiple of max(srtt, 50 ms).
constexpr std::uint64_t kPacketThreshold = 3;
constexpr double kTimeThreshold = 1.25;

/// How long a packet sent on a path with this RTT state may go unacked
/// before it counts as lost.
Duration loss_time(const transport::RttEstimator& rtt) {
  return std::max(static_cast<Duration>(
                      kTimeThreshold *
                      static_cast<double>(
                          std::max(rtt.srtt(), sim::milliseconds(50)))),
                  rtt.rto());
}

}  // namespace

MpEndpoint::MpEndpoint(net::Node& node, net::FlowId flow,
                       std::size_t num_paths, MpConfig cfg)
    : node_(node),
      sim_(node.simulator()),
      flow_(flow),
      cfg_(cfg),
      loss_timer_(sim_, [this] {
        detect_losses();
        try_send();
      }) {
  paths_.resize(num_paths);
  for (auto& p : paths_) p.cca = transport::make_cca(kCca);
  stats_.packets_per_path.assign(num_paths, 0);
  auto& reg = obs::MetricsRegistry::current();
  m_packets_sent_ = &reg.counter("transport.quic.packets_sent");
  m_retx_chunks_ = &reg.counter("transport.quic.retransmitted_chunks");
  m_msg_latency_ = &reg.histogram("transport.quic.message_latency_ms");
  inbound_handler_ =
      node_.register_flow(flow_, [this](PacketPtr p) { on_packet(p); });

  // Probe every path once so the scheduler learns per-path RTTs before
  // real data arrives (QUIC path validation plays this role).
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    auto probe = net::make_packet();
    probe->flow = flow_;
    probe->type = net::PacketType::kControl;
    probe->size_bytes = net::kHeaderBytes;
    probe->tp.seq = next_packet_number_++;
    probe->tp.ts = sim_.now();
    probe->requested_channel = static_cast<std::int8_t>(i);
    SentPacket sp;
    sp.chunk = Chunk{0, 0, 0, 0, 0, 0, TrafficClass::kControl, sim_.now()};
    sp.sent_at = sim_.now();
    sp.path = i;
    sp.path_seq = paths_[i].next_path_seq++;
    unacked_.emplace(probe->tp.seq, sp);
    ++stats_.packets_per_path[i];
    node_.send(std::move(probe));
  }
}

std::uint64_t MpEndpoint::open_stream(StreamIntents intents) {
  const auto id = next_stream_++;
  streams_[id] = intents;
  return id;
}

std::uint64_t MpEndpoint::send_message(std::uint64_t stream,
                                       std::int64_t bytes) {
  const auto sit = streams_.find(stream);
  if (sit == streams_.end() || bytes <= 0) return 0;
  const StreamIntents& intents = sit->second;
  const auto message = next_message_++;
  std::int64_t offset = 0;
  while (offset < bytes) {
    const std::int64_t len =
        std::min<std::int64_t>(bytes - offset, net::kMaxPayload);
    send_queue_.push_back(Chunk{stream, message, offset, len, bytes,
                                intents.priority, intents.traffic,
                                sim_.now()});
    offset += len;
  }
  try_send();
  return message;
}

std::size_t MpEndpoint::fastest_path() const {
  std::size_t best = 0;
  Duration best_rtt = sim::kTimeNever;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const Duration rtt = paths_[i].rtt.has_sample()
                             ? paths_[i].rtt.srtt()
                             : sim::kTimeNever - 1;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = i;
    }
  }
  return best;
}

std::size_t MpEndpoint::widest_path() const {
  // Highest estimated delivery rate; unmeasured paths count as infinite
  // so they get explored once, after which the estimate takes over.
  std::size_t best = 0;
  double best_rate = -1.0;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    const double rate =
        paths_[i].rate_bps > 0.0 ? paths_[i].rate_bps : 1e18;
    if (rate > best_rate) {
      best_rate = rate;
      best = i;
    }
  }
  return best;
}

sim::Duration MpEndpoint::path_srtt(std::size_t path) const {
  return path < paths_.size() && paths_[path].rtt.has_sample()
             ? paths_[path].rtt.srtt()
             : 0;
}

bool MpEndpoint::idle() const {
  return send_queue_.empty() && unacked_.empty();
}

std::size_t MpEndpoint::pick_path(const Chunk& chunk) {
  const std::size_t fast = fastest_path();
  if (cfg_.scheduler == SchedulerKind::kMinRtt) {
    // Classic MPQUIC minRTT: lowest-srtt path with congestion window room;
    // overflow to the next-fastest.
    std::vector<std::size_t> order(paths_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return paths_[a].rtt.srtt() < paths_[b].rtt.srtt();
    });
    for (const auto i : order) {
      if (paths_[i].in_flight < paths_[i].cca->cwnd_bytes()) return i;
    }
    return SIZE_MAX;
  }

  if (cfg_.scheduler == SchedulerKind::kEcf) {
    // ECF-style earliest completion first [30]: estimate when this chunk
    // would finish on each path — queued bytes (in flight) divided by the
    // measured rate plus half the RTT — and take the minimum among paths
    // with window room. Bandwidth-aggregating like minRTT, but it stops
    // stuffing the thin path once its completion estimate loses.
    std::size_t best = SIZE_MAX;
    double best_ms = 1e300;
    for (std::size_t i = 0; i < paths_.size(); ++i) {
      if (paths_[i].in_flight >= paths_[i].cca->cwnd_bytes()) continue;
      const double rate =
          paths_[i].rate_bps > 0.0 ? paths_[i].rate_bps : 10e6;
      const double ms =
          static_cast<double>(paths_[i].in_flight + chunk.len) * 8.0 /
              rate * 1000.0 +
          sim::to_millis(paths_[i].rtt.srtt()) / 2.0;
      if (ms < best_ms) {
        best_ms = ms;
        best = i;
      }
    }
    return best;
  }

  // HVC-aware: importance and message geometry decide.
  const bool important = chunk.priority <= kFastPathMaxPriority ||
                         chunk.traffic == TrafficClass::kControl;
  const bool tail = chunk.message_bytes - chunk.offset <= kTailBytes &&
                    chunk.traffic == TrafficClass::kInteractive;
  if (important || tail) {
    bool room = paths_[fast].in_flight < paths_[fast].cca->cwnd_bytes();
    if (chunk.traffic == TrafficClass::kRealtime) {
      // Deadline-aware: keep the in-network sojourn below half the
      // deadline, using the measured path rate — otherwise data queues
      // inside the path where the deadline can no longer drop it.
      const auto& intents = streams_[chunk.stream];
      if (intents.deadline_ms > 0 && paths_[fast].rate_bps > 0.0) {
        const double sojourn_ms =
            static_cast<double>(paths_[fast].in_flight + chunk.len) * 8.0 /
            paths_[fast].rate_bps * 1000.0;
        if (sojourn_ms > intents.deadline_ms / 2.0) room = false;
      }
      if (room) return fast;
      return SIZE_MAX;  // wait; try_send drops it once stale
    }
    if (room) return fast;
  }
  // Bulk: the widest path (by measured delivery rate), then other paths
  // in decreasing rate order — never displacing the fast path's scarce
  // capacity unless it is the only one with window room AND it is also
  // the widest (single-path degenerate case).
  std::vector<std::size_t> order(paths_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = paths_[a].rate_bps > 0.0 ? paths_[a].rate_bps : 1e18;
    const double rb = paths_[b].rate_bps > 0.0 ? paths_[b].rate_bps : 1e18;
    return ra > rb;
  });
  for (const auto i : order) {
    if (i == fast && paths_.size() > 1 && !important && !tail &&
        i != widest_path()) {
      continue;
    }
    if (paths_[i].in_flight < paths_[i].cca->cwnd_bytes()) return i;
  }
  if ((important || tail) &&
      paths_[fast].in_flight < paths_[fast].cca->cwnd_bytes()) {
    return fast;
  }
  return SIZE_MAX;
}

void MpEndpoint::try_send() {
  // Scan for the first sendable chunk per iteration to avoid head-of-line
  // blocking between pinned and bulk traffic.
  bool progress = true;
  while (progress && !send_queue_.empty()) {
    progress = false;
    for (auto it = send_queue_.begin(); it != send_queue_.end(); ++it) {
      // Drop realtime data past its deadline instead of sending staleness.
      const auto& intents = streams_[it->stream];
      if (intents.traffic == TrafficClass::kRealtime &&
          intents.deadline_ms > 0 &&
          sim_.now() - it->created_at >
              sim::milliseconds(intents.deadline_ms)) {
        it = send_queue_.erase(it);
        progress = true;
        break;
      }
      const std::size_t path = pick_path(*it);
      if (path == SIZE_MAX) continue;
      Chunk chunk = *it;
      send_queue_.erase(it);
      send_chunk(chunk, path);
      progress = true;
      break;
    }
  }
}

void MpEndpoint::send_chunk(Chunk chunk, std::size_t path) {
  auto p = net::make_packet();
  p->flow = flow_;
  p->type = net::PacketType::kData;
  p->size_bytes = chunk.len + net::kHeaderBytes;
  p->tp.seq = next_packet_number_++;
  p->tp.len = static_cast<std::uint32_t>(chunk.len);
  p->tp.ts = sim_.now();
  p->requested_channel = static_cast<std::int8_t>(path);
  p->app.present = true;
  p->app.message_id = chunk.message;
  p->app.message_bytes = static_cast<std::uint32_t>(chunk.message_bytes);
  p->app.offset = static_cast<std::uint32_t>(chunk.offset);
  p->app.priority = chunk.priority;
  p->app.message_end = chunk.offset + chunk.len == chunk.message_bytes;

  SentPacket sp;
  sp.chunk = chunk;
  sp.sent_at = sim_.now();
  sp.path = path;
  sp.path_seq = paths_[path].next_path_seq++;
  unacked_.emplace(p->tp.seq, sp);

  paths_[path].in_flight += chunk.len;
  paths_[path].cca->on_packet_sent(sim_.now(), chunk.len,
                                   paths_[path].in_flight);
  ++stats_.packets_per_path[path];
  m_packets_sent_->inc();
  node_.send(std::move(p));
  arm_loss_timer();
}

void MpEndpoint::on_packet(const PacketPtr& p) {
  if (p->tp.has_ack) {
    on_ack(p);
  } else {
    on_data(p);
  }
}

void MpEndpoint::on_data(const PacketPtr& p) {
  send_ack(p->tp.seq, p->channel, p->tp.ts);
  if (p->type != net::PacketType::kData || !p->app.present) return;

  while (reassembly_.size() > 1024) reassembly_.erase(reassembly_.begin());
  auto& r = reassembly_[p->app.message_id];
  if (r.total == 0) {
    r.total = p->app.message_bytes;
    r.priority = p->app.priority;
    r.sent_at = p->tp.ts;
  }
  // Count each chunk once: retransmissions may duplicate deliveries.
  if (!r.offsets.insert(p->app.offset).second) return;
  r.received += p->tp.len;
  if (r.received >= r.total) {
    MessageEvent ev;
    ev.message = p->app.message_id;
    ev.priority = r.priority;
    ev.sent_at = r.sent_at;
    ev.completed = sim_.now();
    m_msg_latency_->add(sim::to_millis(ev.completed - ev.sent_at));
    reassembly_.erase(p->app.message_id);
    if (on_message_) on_message_(ev);
  }
}

void MpEndpoint::send_ack(std::uint64_t pkt_number, std::uint8_t channel,
                          Time ts_echo) {
  auto ack = net::make_ack(flow_, pkt_number, ts_echo);
  ack->tp.channel_echo = channel;
  ack->requested_channel =
      cfg_.ack_on_fast_path ? static_cast<std::int8_t>(fastest_path())
                            : static_cast<std::int8_t>(channel);
  node_.send(std::move(ack));
}

void MpEndpoint::on_ack(const PacketPtr& p) {
  const auto it = unacked_.find(p->tp.ack);
  largest_acked_ = std::max(largest_acked_, p->tp.ack);
  if (it != unacked_.end()) {
    SentPacket& sp = it->second;
    Path& path = paths_[sp.path];
    const Duration rtt = sim_.now() - p->tp.ts_echo;
    path.rtt.add_sample(rtt);
    path.largest_acked_seq = std::max(path.largest_acked_seq, sp.path_seq);
    if (!sp.lost) path.in_flight -= sp.chunk.len;

    // Roll the delivery-rate epoch (200 ms EWMA).
    path.epoch_bytes += sp.chunk.len;
    if (sim_.now() - path.epoch_start >= sim::milliseconds(200)) {
      const double secs = sim::to_seconds(sim_.now() - path.epoch_start);
      if (path.epoch_start > 0 && secs > 0) {
        const double rate =
            static_cast<double>(path.epoch_bytes) * 8.0 / secs;
        path.rate_bps = path.rate_bps <= 0.0
                            ? rate
                            : 0.4 * rate + 0.6 * path.rate_bps;
      }
      path.epoch_start = sim_.now();
      path.epoch_bytes = 0;
    }

    if (p->tp.ack >= path.round_end_pkt) {
      ++path.round_trips;
      path.round_end_pkt = next_packet_number_;
    }
    transport::AckEvent ev;
    ev.now = sim_.now();
    ev.rtt = rtt;
    ev.acked_bytes = sp.chunk.len;
    ev.bytes_in_flight = path.in_flight;
    ev.channel = p->tp.channel_echo;
    ev.round_trips = path.round_trips;
    path.cca->on_ack(ev);
    unacked_.erase(it);
  }
  detect_losses();
  try_send();
}

void MpEndpoint::detect_losses() {
  const Time now = sim_.now();
  std::vector<std::uint64_t> lost;
  for (auto& [num, sp] : unacked_) {
    if (sp.lost) continue;
    // Packet-number threshold applies within a path's own number space:
    // cross-path overtaking is routine on HVCs and must not read as loss.
    const bool by_number =
        sp.path_seq + kPacketThreshold <= paths_[sp.path].largest_acked_seq;
    const bool by_time = now - sp.sent_at > loss_time(paths_[sp.path].rtt);
    if (by_number || by_time) lost.push_back(num);
  }
  for (const auto num : lost) {
    SentPacket sp = unacked_[num];
    unacked_.erase(num);
    Path& path = paths_[sp.path];
    path.in_flight -= sp.chunk.len;
    path.cca->on_loss({now, sp.chunk.len, path.in_flight, false});
    if (sp.chunk.len > 0) {
      ++stats_.retransmitted_chunks;
      m_retx_chunks_->inc();
      if (auto* tr = obs::PacketTracer::active()) {
        // aux = age of the lost transmission when loss was declared.
        tr->record(obs::EventKind::kRetx, now, num, flow_,
                   static_cast<std::uint8_t>(sp.path), obs::kNoDirection,
                   static_cast<std::uint32_t>(sp.chunk.len), 0,
                   now - sp.sent_at);
      }
      send_queue_.push_front(sp.chunk);  // retransmit data, any path
    }
  }
  arm_loss_timer();
  if (!lost.empty()) try_send();
}

void MpEndpoint::arm_loss_timer() {
  Time earliest = sim::kTimeNever;
  for (const auto& [num, sp] : unacked_) {
    if (sp.lost) continue;
    earliest =
        std::min(earliest, sp.sent_at + loss_time(paths_[sp.path].rtt));
  }
  if (earliest == sim::kTimeNever) {
    loss_timer_.cancel();
  } else {
    loss_timer_.arm_at(std::max(earliest, sim_.now() + 1));
  }
}

MpConnection MpConnection::make_pair(net::Node& client_node,
                                     net::Node& server_node,
                                     std::size_t num_paths, MpConfig cfg) {
  const auto flow = net::next_flow_id();
  MpConnection conn;
  conn.client =
      std::make_unique<MpEndpoint>(client_node, flow, num_paths, cfg);
  conn.server =
      std::make_unique<MpEndpoint>(server_node, flow, num_paths, cfg);
  return conn;
}

}  // namespace hvc::quic
