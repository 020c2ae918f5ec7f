#include "obs/tracer.hpp"

#include <map>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/ring.hpp"

namespace hvc::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kTx: return "tx";
    case EventKind::kRx: return "rx";
    case EventKind::kDrop: return "drop";
    case EventKind::kRetx: return "retx";
    case EventKind::kSteer: return "steer";
    case EventKind::kReorder: return "reorder";
  }
  return "?";
}

const char* to_string(DropReason r) {
  switch (r) {
    case kDropQueueFull: return "queue_full";
    case kDropWire: return "wire";
    case kDropDuplicate: return "duplicate";
    case kDropUnroutable: return "unroutable";
  }
  return "?";
}

const char* to_string(ReorderAction a) {
  switch (a) {
    case kReorderPass: return "pass";
    case kReorderHold: return "hold";
    case kReorderGapFill: return "gap_fill";
    case kReorderTimeout: return "timeout";
  }
  return "?";
}

void PacketTracer::enable(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  // Reserved, not filled: a slot costs memory only once it is written.
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = 0;
  total_ = 0;
  enabled_ = true;
  bind();
}

void PacketTracer::disable() {
  enabled_ = false;
  unbind();
}

std::vector<TraceEvent> PacketTracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each_retained(ring_, head_, total_,
                    [&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void PacketTracer::set_channel_name(std::size_t index, std::string name) {
  if (channel_names_.size() <= index) channel_names_.resize(index + 1);
  channel_names_[index] = std::move(name);
}

std::string PacketTracer::channel_name(std::size_t index) const {
  if (index < channel_names_.size() && !channel_names_[index].empty()) {
    return channel_names_[index];
  }
  return "ch" + std::to_string(index);
}

namespace {

const char* dir_name(std::uint8_t d) {
  switch (d) {
    case kDirDown: return "down";
    case kDirUp: return "up";
    default: return "-";
  }
}

/// Detail string for the event's `arg`, or nullptr when arg is unused.
const char* arg_detail(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kDrop: return to_string(static_cast<DropReason>(e.arg));
    case EventKind::kReorder:
      return to_string(static_cast<ReorderAction>(e.arg));
    default: return nullptr;
  }
}

}  // namespace

void PacketTracer::write_chrome_trace(json::Writer& w) const {
  // Tracks: pid 0, tid = channel * 2 + direction (a "thread" per
  // channel+direction); channel-less events (transport retx, receiver
  // dedup) land on a dedicated "stack" track.
  auto tid_of = [](const TraceEvent& e) -> int {
    if (e.channel == kNoChannel) return 1000;
    const int dir = e.direction == kDirUp ? 1 : 0;
    return static_cast<int>(e.channel) * 2 + dir;
  };

  // Thread-name metadata for every track that appears. std::map so the
  // metadata records emit in tid order without a separate sort.
  std::map<int, std::string> tracks;
  for_each_retained(ring_, head_, total_, [&](const TraceEvent& e) {
    const int tid = tid_of(e);
    if (tracks.contains(tid)) return;
    tracks[tid] = tid == 1000
                      ? std::string("transport/endpoint")
                      : channel_name(static_cast<std::size_t>(e.channel)) +
                            " " + dir_name(e.direction);
  });
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const auto& [tid, name] : tracks) {
    if (!first) w.put(',');
    first = false;
    w.raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":")
        .num(tid);
    w.raw(",\"args\":{\"name\":").str(name).raw("}}");
  }

  // Per-packet channel-residency spans: enqueue → rx (or drop) on one
  // channel becomes a complete ("X") event, so Perfetto shows each
  // packet's time on each channel as a bar.
  struct Open {
    sim::Time start;
    std::uint32_t bytes;
    std::uint64_t flow;
  };
  // hvc-lint: allow(unordered-container): find/erase only — the span
  // emit order below is driven by the (already time-ordered) event ring,
  // never by map iteration.
  std::unordered_map<std::uint64_t, Open> open;  // key: pkt<<9 | ch<<1 | dir
  auto span_key = [](const TraceEvent& e) {
    return (e.packet_id << 9) |
           (static_cast<std::uint64_t>(e.channel & 0xff) << 1) |
           (e.direction == kDirUp ? 1u : 0u);
  };
  for_each_retained(ring_, head_, total_, [&](const TraceEvent& e) {
    // Instant event for every lifecycle step.
    w.raw(",{\"name\":\"").raw(to_string(e.kind));
    w.raw("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":")
        .num(tid_of(e));
    w.raw(",\"ts\":").fixed3(static_cast<double>(e.at) / 1e3);
    w.raw(",\"args\":{\"pkt\":").num(e.packet_id);
    w.raw(",\"flow\":").num(e.flow_id);
    w.raw(",\"bytes\":").num(e.size_bytes);
    if (const char* detail = arg_detail(e)) {
      w.raw(",\"detail\":\"").raw(detail).put('"');
    }
    w.raw("}}");

    if (e.channel == kNoChannel) return;
    if (e.kind == EventKind::kEnqueue) {
      open[span_key(e)] = {e.at, e.size_bytes, e.flow_id};
    } else if (e.kind == EventKind::kRx || e.kind == EventKind::kDrop) {
      const auto it = open.find(span_key(e));
      if (it == open.end()) return;
      const Open& o = it->second;
      w.raw(",{\"name\":\"pkt ").num(e.packet_id);
      if (e.kind == EventKind::kDrop) w.raw(" (drop)");
      w.raw("\",\"ph\":\"X\",\"pid\":0,\"tid\":").num(tid_of(e));
      w.raw(",\"ts\":").fixed3(static_cast<double>(o.start) / 1e3);
      w.raw(",\"dur\":").fixed3(static_cast<double>(e.at - o.start) / 1e3);
      w.raw(",\"args\":{\"flow\":").num(o.flow);
      w.raw(",\"bytes\":").num(o.bytes).raw("}}");
      open.erase(it);
    }
  });
  w.put(']');
  if (total_ > ring_.size()) {
    w.raw(",\"otherData\":{").ring_counts(ring_.size(), total_).put('}');
  }
  w.put('}');
}

std::string PacketTracer::to_chrome_trace() const {
  json::Writer w;
  write_chrome_trace(w);
  return w.take();
}

}  // namespace hvc::obs
