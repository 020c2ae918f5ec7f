#include "obs/tracer.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "obs/json.hpp"

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
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  total_ = 0;
  enabled_ = true;
  bind();
}

void PacketTracer::disable() {
  enabled_ = false;
  unbind();
}

std::size_t PacketTracer::size() const {
  if (ring_.empty()) return 0;
  return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                               : ring_.size();
}

std::vector<TraceEvent> PacketTracer::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest retained event: slot `head_` when the ring has wrapped, else 0.
  const std::size_t start = total_ > ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
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

std::string PacketTracer::to_chrome_trace() const {
  // Tracks: pid 0, tid = channel * 2 + direction (a "thread" per
  // channel+direction); channel-less events (transport retx, receiver
  // dedup) land on a dedicated "stack" track.
  const auto events = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];

  auto tid_of = [](const TraceEvent& e) -> int {
    if (e.channel == kNoChannel) return 1000;
    const int dir = e.direction == kDirUp ? 1 : 0;
    return static_cast<int>(e.channel) * 2 + dir;
  };

  // Thread-name metadata for every track that appears. std::map so the
  // metadata records emit in tid order without a separate sort.
  std::map<int, std::string> tracks;
  for (const auto& e : events) {
    const int tid = tid_of(e);
    if (tracks.contains(tid)) continue;
    tracks[tid] = tid == 1000
                      ? std::string("transport/endpoint")
                      : channel_name(static_cast<std::size_t>(e.channel)) +
                            " " + dir_name(e.direction);
  }
  bool first = true;
  for (const auto& [tid, name] : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%d,\"args\":{\"name\":%s}}",
                  first ? "" : ",", tid, json::quote(name).c_str());
    out += buf;
    first = false;
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
  auto emit_span = [&](const TraceEvent& e, const Open& o, bool dropped) {
    std::snprintf(
        buf, sizeof(buf),
        ",{\"name\":\"pkt %" PRIu64
        "%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
        "\"args\":{\"flow\":%" PRIu64 ",\"bytes\":%u}}",
        e.packet_id, dropped ? " (drop)" : "", tid_of(e),
        static_cast<double>(o.start) / 1e3,
        static_cast<double>(e.at - o.start) / 1e3, o.flow, o.bytes);
    out += buf;
  };

  for (const auto& e : events) {
    // Instant event for every lifecycle step.
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                  "\"tid\":%d,\"ts\":%.3f,\"args\":{\"pkt\":%" PRIu64
                  ",\"flow\":%" PRIu64 ",\"bytes\":%u%s%s%s}}",
                  to_string(e.kind), tid_of(e),
                  static_cast<double>(e.at) / 1e3, e.packet_id, e.flow_id,
                  e.size_bytes, arg_detail(e) ? ",\"detail\":\"" : "",
                  arg_detail(e) ? arg_detail(e) : "",
                  arg_detail(e) ? "\"" : "");
    out += buf;

    if (e.channel == kNoChannel) continue;
    if (e.kind == EventKind::kEnqueue) {
      open[span_key(e)] = {e.at, e.size_bytes, e.flow_id};
    } else if (e.kind == EventKind::kRx || e.kind == EventKind::kDrop) {
      const auto it = open.find(span_key(e));
      if (it != open.end()) {
        emit_span(e, it->second, e.kind == EventKind::kDrop);
        open.erase(it);
      }
    }
  }
  out += ']';
  if (total_ > ring_.size()) {
    std::snprintf(buf, sizeof(buf),
                  ",\"otherData\":{\"capacity\":%zu,\"recorded\":%" PRIu64
                  ",\"overwritten\":%" PRIu64 "}",
                  ring_.size(), total_, total_ - ring_.size());
    out += buf;
  }
  out += '}';
  return out;
}

}  // namespace hvc::obs
