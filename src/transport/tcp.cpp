#include "transport/tcp.hpp"

#include <algorithm>
#include <iterator>

#include "obs/tracer.hpp"

namespace hvc::transport {

using net::PacketPtr;
using sim::Duration;
using sim::Time;

namespace {

constexpr int kDupackThreshold = 3;
/// Base RACK reordering window as a fraction of srtt (min 10 ms). When
/// reordering is *observed* (a never-retransmitted segment is delivered
/// below an already-SACKed block), the window grows multiplicatively up
/// to one srtt — Linux RACK's adaptation, and what lets CUBIC survive
/// persistent cross-channel reordering under packet steering.
constexpr double kRackWindowFrac = 0.25;
constexpr int kRackMaxMult = 8;
constexpr Duration kDelayedAckTimeout = sim::milliseconds(25);

}  // namespace

FlowPair make_flow_pair() {
  return {net::next_flow_id(), net::next_flow_id()};
}

// ---------------------------------------------------------------- sender

TcpSender::TcpSender(net::Node& local, FlowPair flows, CcaPtr cca,
                     TcpConfig cfg)
    : local_(local),
      sim_(local.simulator()),
      flows_(flows),
      cca_(std::move(cca)),
      cfg_(cfg),
      rto_timer_(sim_, [this] { on_rto(); }),
      pace_timer_(sim_, [this] { try_send(); }) {
  auto& reg = obs::MetricsRegistry::current();
  m_packets_sent_ = &reg.counter("transport.tcp.packets_sent");
  m_retransmissions_ = &reg.counter("transport.tcp.retransmissions");
  m_rto_count_ = &reg.counter("transport.tcp.rto_count");
  m_spurious_ = &reg.counter("transport.tcp.spurious_loss_marks");
  const std::string tprefix =
      "transport.tcp.flow" + std::to_string(flows_.data) + ".";
  probes_.add("transport", tprefix + "cwnd_bytes", [this] {
    return static_cast<double>(cca_->cwnd_bytes());
  });
  probes_.add("transport", tprefix + "inflight_bytes",
              [this] { return static_cast<double>(in_flight_); });
  probes_.add("transport", tprefix + "srtt_ms",
              [this] { return sim::to_millis(rtt_.srtt()); });
  probes_.add("transport", tprefix + "pacing_mbps",
              [this] { return cca_->pacing_rate_bps() / 1e6; });
  ack_handler_ = local_.register_flow(flows_.ack, [this](PacketPtr p) {
    on_ack_packet(p);
  });
}

TcpSender::~TcpSender() {
  // Fold the stats struct into the registry counters on retirement; the
  // send path itself never touches the registry.
  m_packets_sent_->inc(stats_.packets_sent);
  m_retransmissions_->inc(stats_.retransmissions);
  m_rto_count_->inc(stats_.rto_count);
  m_spurious_->inc(stats_.spurious_loss_marks);
}

void TcpSender::write(std::int64_t bytes) {
  if (bytes <= 0) return;
  message_spans_.push_back(StreamMessage{0, bytes, 0, sim_.now()});
  stream_end_ += static_cast<std::uint64_t>(bytes);
  try_send();
}

std::uint64_t TcpSender::write_message(std::int64_t bytes,
                                       std::uint8_t priority) {
  if (bytes <= 0) return 0;
  const std::uint64_t id = next_message_id_++;
  message_spans_.push_back(StreamMessage{id, bytes, priority, sim_.now()});
  stream_end_ += static_cast<std::uint64_t>(bytes);
  try_send();
  return id;
}

std::optional<std::uint64_t> TcpSender::next_fresh_span(
    std::uint32_t* len, net::AppHeader* app) {
  if (next_seq_ >= stream_end_ || message_spans_.empty()) {
    return std::nullopt;
  }
  const StreamMessage& span = message_spans_.front();
  const std::uint64_t span_end =
      span_cursor_ + static_cast<std::uint64_t>(span.bytes);
  const std::uint64_t remaining_in_span = span_end - next_seq_;
  *len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      remaining_in_span, static_cast<std::uint64_t>(net::kMaxPayload)));

  *app = net::AppHeader{};
  if (cfg_.annotate_app_info && span.id != 0) {
    app->present = true;
    app->message_id = span.id;
    app->message_bytes = static_cast<std::uint32_t>(span.bytes);
    app->offset = static_cast<std::uint32_t>(next_seq_ - span_cursor_);
    app->priority = span.priority;
    app->message_end = next_seq_ + *len == span_end;
  }

  const std::uint64_t seq = next_seq_;
  next_seq_ += *len;
  if (next_seq_ >= span_end) {
    span_cursor_ = span_end;
    message_spans_.pop_front();
  }
  return seq;
}

void TcpSender::try_send() {
  const std::int64_t cwnd = cca_->cwnd_bytes();
  const double pacing = cca_->pacing_rate_bps();

  while (true) {
    if (in_flight_ >= cwnd) break;

    if (pacing > 0.0) {
      const Time now = sim_.now();
      if (now < next_send_time_) {
        pace_timer_.arm_at(next_send_time_);
        break;
      }
    }

    // Retransmissions take precedence (lowest seq first).
    if (!lost_seqs_.empty()) {
      send_segment(outstanding_.find(*lost_seqs_.begin())->second,
                   /*retransmission=*/true);
    } else {
      std::uint32_t len = 0;
      net::AppHeader app;
      const auto seq = next_fresh_span(&len, &app);
      if (!seq.has_value()) break;  // nothing to send (app-limited)
      Segment seg;
      seg.seq = *seq;
      seg.len = len;
      seg.app = app;
      auto [it, inserted] = outstanding_.emplace(*seq, seg);
      send_segment(it->second, /*retransmission=*/false);
      // App-limited marker: the stream drained right after this send.
      if (next_seq_ >= stream_end_) it->second.app_limited = true;
    }
  }
}

void TcpSender::send_segment(Segment& seg, bool retransmission) {
  const Time now = sim_.now();
  if (delivered_ts_ == 0) delivered_ts_ = now;

  auto p = net::make_packet();
  p->flow = flows_.data;
  p->type = net::PacketType::kData;
  p->size_bytes = seg.len + net::kHeaderBytes;
  p->tp.seq = seg.seq;
  p->tp.len = seg.len;
  p->tp.ts = now;
  p->app = seg.app;
  p->flow_priority = cfg_.flow_priority;

  if (retransmission) {
    if (auto* tr = obs::PacketTracer::active()) {
      // aux = how long the lost copy waited before this retransmission
      // (the tracer's retx-wait component of one-way-delay decomposition);
      // must be read before last_sent is overwritten below.
      tr->record(obs::EventKind::kRetx, now, p->id, p->flow,
                 obs::kNoChannel, obs::kNoDirection, seg.len,
                 static_cast<std::uint8_t>(seg.tx_count),
                 now - seg.last_sent);
    }
  }

  // Whatever index held the segment, a (re-)send puts it at the RACK
  // list's tail: it is now the most recently sent.
  if (seg.lost) {
    lost_seqs_.erase(seg.seq);
  } else if (seg.tx_count > 0) {
    rack_unlink(seg);
  }
  rack_push_back(seg);
  if (seg.first_sent == 0) seg.first_sent = now;
  seg.last_sent = now;
  ++seg.tx_count;
  seg.lost = false;
  seg.delivered_snapshot = delivered_bytes_;
  seg.delivered_ts_snapshot = delivered_ts_;

  if (!seg.in_flight) {
    seg.in_flight = true;
    in_flight_ += seg.len;
  }
  ++stats_.packets_sent;
  if (retransmission) {
    ++stats_.retransmissions;
  }

  cca_->on_packet_sent(now, seg.len, in_flight_);

  const double pacing = cca_->pacing_rate_bps();
  if (pacing > 0.0) {
    const Duration gap =
        sim::transmission_time(p->size_bytes, static_cast<sim::RateBps>(
                                                  std::max(pacing, 1.0)));
    next_send_time_ = std::max(next_send_time_, now) + gap;
  }

  local_.send(std::move(p));
  if (!rto_timer_.armed()) arm_rto();
}

Duration TcpSender::rack_window() const {
  const Duration srtt =
      rtt_.has_sample() ? rtt_.srtt() : sim::milliseconds(100);
  const Duration base = std::max<Duration>(
      static_cast<Duration>(kRackWindowFrac *
                            static_cast<double>(srtt)),
      sim::milliseconds(10));
  if (!reordering_seen_) return base;
  return std::min<Duration>(base * reo_mult_, srtt);
}

void TcpSender::note_spurious_if_unretransmitted(const Segment& seg,
                                                  Time now) {
  // The segment was declared lost but its original transmission arrived:
  // the loss signal was spurious reordering. Widen the RACK window and
  // let the CCA undo its reduction (rate-limited to once per srtt).
  if (!seg.lost || seg.tx_count != 1) return;
  ++stats_.spurious_loss_marks;
  reordering_seen_ = true;
  if (reo_mult_ < kRackMaxMult) ++reo_mult_;
  const Duration srtt =
      rtt_.has_sample() ? rtt_.srtt() : sim::milliseconds(100);
  if (now - last_undo_ >= srtt) {
    last_undo_ = now;
    cca_->on_spurious_loss(now);
  }
}

void TcpSender::note_reordering(const Segment& seg) {
  // A segment delivered on its first transmission below an already-SACKed
  // block proves the path reorders; widen the RACK window.
  if (seg.tx_count == 1 && seg.seq + seg.len < highest_sacked_end_) {
    reordering_seen_ = true;
    if (reo_mult_ < kRackMaxMult) ++reo_mult_;
  }
}

void TcpSender::rack_push_back(Segment& seg) {
  seg.rack_prev = rack_tail_;
  seg.rack_next = nullptr;
  (rack_tail_ != nullptr ? rack_tail_->rack_next : rack_head_) = &seg;
  rack_tail_ = &seg;
}

void TcpSender::rack_unlink(Segment& seg) {
  (seg.rack_prev != nullptr ? seg.rack_prev->rack_next : rack_head_) =
      seg.rack_next;
  (seg.rack_next != nullptr ? seg.rack_next->rack_prev : rack_tail_) =
      seg.rack_prev;
  seg.rack_prev = seg.rack_next = nullptr;
}

std::int64_t TcpSender::mark_lost(Segment& seg) {
  rack_unlink(seg);
  lost_seqs_.insert(seg.seq);
  seg.lost = true;
  if (seg.in_flight) {
    seg.in_flight = false;
    in_flight_ -= seg.len;
  }
  return seg.len;
}

void TcpSender::unindex_delivered(Segment& seg) {
  if (seg.sacked) return;  // already off both indexes
  if (seg.lost) {
    lost_seqs_.erase(seg.seq);
  } else {
    rack_unlink(seg);
  }
}

void TcpSender::detect_losses_rack(Time rack_ts) {
  if (rack_ts <= 0) return;
  std::int64_t lost_bytes = 0;
  const Duration window = rack_window();
  // The list is in last_sent order, so the first unexpired entry ends the
  // scan: every later one was sent no earlier.
  while (rack_head_ != nullptr && rack_head_->last_sent + window < rack_ts) {
    lost_bytes += mark_lost(*rack_head_);
  }
  if (lost_bytes > 0) {
    cca_->on_loss({sim_.now(), lost_bytes, in_flight_, false});
  }
}

void TcpSender::on_ack_packet(const PacketPtr& p) {
  const Time now = sim_.now();
  const auto& tp = p->tp;
  if (!tp.has_ack) return;

  // RTT sample from the echoed timestamp (Karn-safe: the echo identifies
  // the actual transmission that reached the receiver).
  Duration rtt_sample = 0;
  if (tp.ts_echo > 0) {
    rtt_sample = now - tp.ts_echo;
    rtt_.add_sample(rtt_sample);
    stats_.rtt_samples_ms.add(now, sim::to_millis(rtt_sample));
  }

  std::int64_t newly_delivered = 0;
  Time rack_ts = 0;
  bool any_new_sack = false;
  std::optional<RateSnapshot> rate_sample;
  const auto note_rate_sample = [&rate_sample](const Segment& seg) {
    if (!rate_sample || seg.seq > rate_sample->seq) {
      rate_sample = RateSnapshot{seg.seq, seg.delivered_snapshot,
                                 seg.delivered_ts_snapshot, seg.app_limited};
    }
  };

  // Cumulative ack.
  if (tp.ack > cum_acked_) {
    while (!outstanding_.empty()) {
      auto it = outstanding_.begin();
      Segment& seg = it->second;
      if (seg.seq + seg.len > tp.ack) break;
      if (seg.in_flight) {
        seg.in_flight = false;
        in_flight_ -= seg.len;
      }
      if (!seg.sacked) {
        newly_delivered += seg.len;
        note_reordering(seg);
        note_spurious_if_unretransmitted(seg, now);
      }
      rack_ts = std::max(rack_ts, seg.last_sent);
      note_rate_sample(seg);
      unindex_delivered(seg);
      outstanding_.erase(it);
    }
    cum_acked_ = tp.ack;
    rto_backoff_ = 0;
    stats_.bytes_acked = static_cast<std::int64_t>(cum_acked_);
    stats_.acked_bytes_series.add(now,
                                  static_cast<double>(cum_acked_));
  }

  // Selective acks.
  for (const auto& [first, last] : tp.sack) {
    auto it = outstanding_.lower_bound(first);
    for (; it != outstanding_.end() && it->second.seq + it->second.len <= last;
         ++it) {
      Segment& seg = it->second;
      if (seg.sacked) continue;
      unindex_delivered(seg);
      seg.sacked = true;
      note_spurious_if_unretransmitted(seg, now);
      seg.lost = false;  // it arrived; no retransmission needed
      note_reordering(seg);
      if (seg.seq + seg.len > highest_sacked_end_) {
        highest_sacked_end_ = seg.seq + seg.len;
      }
      any_new_sack = true;
      if (seg.in_flight) {
        seg.in_flight = false;
        in_flight_ -= seg.len;
      }
      newly_delivered += seg.len;
      rack_ts = std::max(rack_ts, seg.last_sent);
      note_rate_sample(seg);
    }
  }

  if (newly_delivered > 0) {
    delivered_bytes_ += newly_delivered;
    delivered_ts_ = now;
  }

  // Dupack fallback (matters only if SACK blocks were dropped/limited).
  if (tp.ack == last_cum_ack_ && !any_new_sack && newly_delivered == 0 &&
      tp.ack < stream_end_) {
    if (++dupacks_ >= kDupackThreshold && !outstanding_.empty()) {
      Segment& head = outstanding_.begin()->second;
      if (!head.lost && !head.sacked) {
        const std::int64_t lost_bytes = mark_lost(head);
        cca_->on_loss({now, lost_bytes, in_flight_, false});
      }
      dupacks_ = 0;
    }
  } else if (tp.ack != last_cum_ack_) {
    last_cum_ack_ = tp.ack;
    dupacks_ = 0;
  }

  // Round trips: a round ends when data sent at its start is all acked.
  if (cum_acked_ >= round_end_seq_) {
    ++round_trips_;
    round_end_seq_ = next_seq_;
  }

  detect_losses_rack(rack_ts);

  // Delivery-rate sample from the most recent segment this ack covered.
  double rate_bps = 0.0;
  bool app_limited = false;
  if (rate_sample && newly_delivered > 0) {
    const Duration interval = now - rate_sample->delivered_ts;
    if (interval > 0) {
      rate_bps =
          static_cast<double>(delivered_bytes_ - rate_sample->delivered) *
          8.0 / sim::to_seconds(interval);
    }
    app_limited = rate_sample->app_limited;
  }

  AckEvent ev;
  ev.now = now;
  ev.rtt = rtt_sample;
  ev.acked_bytes = newly_delivered;
  ev.bytes_in_flight = in_flight_;
  ev.delivery_rate_bps = rate_bps;
  ev.app_limited = app_limited;
  ev.channel = tp.channel_echo;
  ev.round_trips = round_trips_;
  cca_->on_ack(ev);

  if (outstanding_.empty() && next_seq_ >= stream_end_) {
    rto_timer_.cancel();
  } else {
    arm_rto();
  }
  try_send();
}

void TcpSender::arm_rto() {
  Duration rto = rtt_.rto();
  for (int i = 0; i < rto_backoff_ && rto < RttEstimator::kMaxRto; ++i) {
    rto *= 2;
  }
  rto_timer_.arm(std::min(rto, RttEstimator::kMaxRto));
}

void TcpSender::on_rto() {
  if (outstanding_.empty()) return;
  ++stats_.rto_count;
  ++rto_backoff_;

  // A second (or later) consecutive RTO with zero forward progress means
  // the path is likely in a blackout, not congested: re-marking and
  // re-sending the window each backoff interval would only pile stale
  // copies into the dead link's queue (all wasted bytes on recovery).
  // Probe with the single oldest unacked segment instead — the bounded
  // exponential backoff (arm_rto, RttEstimator::kMaxRto) paces the
  // probes, and the first ack through rebuilds the ACK clock and normal
  // recovery.
  if (rto_backoff_ >= 2) {
    for (auto& [seq, seg] : outstanding_) {
      if (seg.sacked) continue;
      send_segment(seg, /*retransmission=*/true);
      break;
    }
    dupacks_ = 0;
    arm_rto();
    return;
  }

  // RTO means the ACK clock died: treat everything in flight as lost so
  // recovery can proceed (otherwise dead in-flight bytes pin the window
  // shut and the retransmission never leaves).
  std::int64_t lost_bytes = 0;
  while (rack_head_ != nullptr) lost_bytes += mark_lost(*rack_head_);
  dupacks_ = 0;
  cca_->on_loss({sim_.now(), lost_bytes, in_flight_, true});
  arm_rto();
  try_send();
}

double TcpSender::goodput_bps(Time from, Time to) const {
  if (to <= from) return 0.0;
  // Cumulative acked bytes at t: the last point at or before t (the series
  // is in time order).
  const auto& pts = stats_.acked_bytes_series.points();
  const auto acked_at = [&pts](Time t) {
    const auto it = std::upper_bound(
        pts.begin(), pts.end(), t,
        [](Time v, const sim::TimeSeries::Point& pt) { return v < pt.t; });
    return it == pts.begin() ? 0.0 : std::prev(it)->value;
  };
  return (acked_at(to) - acked_at(from)) * 8.0 / sim::to_seconds(to - from);
}

bool TcpSender::loss_index_consistent_for_test() const {
  // Gather the segments each index should hold before following any link,
  // so a stale pointer is reported rather than dereferenced.
  std::set<const Segment*> markable;
  std::set<std::uint64_t> lost;
  std::int64_t in_flight = 0;
  for (const auto& [seq, seg] : outstanding_) {
    if (seg.lost && seg.sacked) return false;
    if (!seg.sacked && !seg.lost) markable.insert(&seg);
    if (seg.lost) lost.insert(seq);
    if (seg.in_flight) in_flight += seg.len;
  }
  if (lost != lost_seqs_ || in_flight != in_flight_) return false;
  std::size_t listed = 0;
  const Segment* prev = nullptr;
  for (const Segment* seg = rack_head_; seg != nullptr;
       prev = seg, seg = seg->rack_next) {
    if (markable.count(seg) == 0 || seg->rack_prev != prev) return false;
    if (prev != nullptr && seg->last_sent < prev->last_sent) return false;
    if (++listed > markable.size()) return false;
  }
  return listed == markable.size() && rack_tail_ == prev;
}

// -------------------------------------------------------------- receiver

TcpReceiver::TcpReceiver(net::Node& local, FlowPair flows, TcpConfig cfg)
    : local_(local),
      sim_(local.simulator()),
      flows_(flows),
      cfg_(cfg),
      delack_timer_(sim_, [this] {
        if (pending_trigger_) {
          send_ack(pending_trigger_);
          pending_trigger_ = nullptr;
          unacked_count_ = 0;
        }
      }) {
  data_handler_ = local_.register_flow(flows_.data, [this](PacketPtr p) {
    on_data_packet(p);
  });
}

void TcpReceiver::on_data_packet(const PacketPtr& p) {
  const Time now = sim_.now();
  const std::uint64_t first = p->tp.seq;
  const std::uint64_t last = first + p->tp.len;

  // Compute how many genuinely new bytes this packet contributes.
  std::int64_t added = 0;
  if (last > cum_) {
    std::uint64_t lo = std::max(first, cum_);
    // Subtract overlap with existing out-of-order blocks.
    added = static_cast<std::int64_t>(last - lo);
    for (const auto& [bf, bl] : ooo_) {
      const std::uint64_t of = std::max(lo, bf);
      const std::uint64_t ol = std::min(last, bl);
      if (ol > of) added -= static_cast<std::int64_t>(ol - of);
    }
    added = std::max<std::int64_t>(added, 0);
  }

  // Merge [first, last) into the block map.
  if (last > cum_) {
    std::uint64_t mf = std::max(first, cum_);
    std::uint64_t ml = last;
    auto it = ooo_.lower_bound(mf);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= mf) {
        mf = prev->first;
        ml = std::max(ml, prev->second);
        it = ooo_.erase(prev);
      }
    }
    while (it != ooo_.end() && it->first <= ml) {
      ml = std::max(ml, it->second);
      it = ooo_.erase(it);
    }
    ooo_[mf] = ml;

    // Advance the cumulative point over now-contiguous blocks.
    const std::uint64_t old_cum = cum_;
    auto head = ooo_.begin();
    while (head != ooo_.end() && head->first <= cum_) {
      cum_ = std::max(cum_, head->second);
      head = ooo_.erase(head);
    }
    if (on_data_ && cum_ > old_cum) {
      on_data_(static_cast<std::int64_t>(cum_ - old_cum));
    }
  }

  // Message completion tracking (cross-layer annotation).
  if (p->app.present && added > 0) {
    auto& mp = messages_[p->app.message_id];
    if (mp.header.message_bytes == 0) mp.header = p->app;
    mp.received += added;
    if (mp.received >=
        static_cast<std::int64_t>(mp.header.message_bytes)) {
      if (on_message_) on_message_(mp.header, now);
      messages_.erase(p->app.message_id);
    }
  }

  // ACK generation.
  if (cfg_.delayed_ack) {
    pending_trigger_ = p;
    if (++unacked_count_ >= 2) {
      send_ack(pending_trigger_);
      pending_trigger_ = nullptr;
      unacked_count_ = 0;
      delack_timer_.cancel();
    } else if (!delack_timer_.armed()) {
      delack_timer_.arm(kDelayedAckTimeout);
    }
  } else {
    send_ack(p);
  }
}

void TcpReceiver::send_ack(const PacketPtr& trigger) {
  auto ack = net::make_ack(flows_.ack, cum_, trigger->tp.ts);
  ack->tp.channel_echo = trigger->channel;
  ack->flow_priority = cfg_.flow_priority;

  // Report the highest out-of-order blocks (most useful for RACK).
  int n = 0;
  for (auto it = ooo_.rbegin(); it != ooo_.rend() && n < cfg_.max_sack_blocks;
       ++it, ++n) {
    ack->tp.sack.emplace_back(it->first, it->second);
  }

  ++stats_.acks_sent;
  local_.send(std::move(ack));
}

}  // namespace hvc::transport
