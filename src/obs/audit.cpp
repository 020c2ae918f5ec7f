#include "obs/audit.hpp"

#include "obs/json.hpp"
#include "obs/ring.hpp"
#include "obs/tracer.hpp"

namespace hvc::obs {

void SteeringAuditLog::enable(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  // Reserved, not filled: a slot costs memory only once it is written.
  ring_.clear();
  ring_.reserve(capacity_);
  head_ = 0;
  total_ = 0;
  enabled_ = true;
  bind();
}

void SteeringAuditLog::disable() {
  enabled_ = false;
  unbind();
}

void SteeringAuditLog::record(AuditRecord rec) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[head_] = std::move(rec);
  }
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++total_;
}

std::vector<AuditRecord> SteeringAuditLog::snapshot() const {
  std::vector<AuditRecord> out;
  out.reserve(size());
  for_each_retained(ring_, head_, total_,
                    [&out](const AuditRecord& r) { out.push_back(r); });
  return out;
}

namespace {

const char* type_name(std::uint8_t t) {
  switch (t) {
    case 0: return "data";
    case 1: return "ack";
    case 2: return "control";
    default: return "?";
  }
}

const char* dir_name(std::uint8_t d) {
  switch (d) {
    case kDirDown: return "down";
    case kDirUp: return "up";
    default: return "-";
  }
}

}  // namespace

void SteeringAuditLog::write_jsonl(json::Writer& w) const {
  if (total_ > ring_.size()) {
    w.raw("{\"meta\":{").ring_counts(ring_.size(), total_).raw("}}\n");
  }
  for_each_retained(ring_, head_, total_, [&w](const AuditRecord& r) {
    w.raw("{\"t_us\":").fixed3(static_cast<double>(r.at) / 1e3);
    w.raw(",\"pkt\":").num(r.packet_id);
    w.raw(",\"flow\":").num(r.flow_id);
    w.raw(",\"dir\":\"").raw(dir_name(r.direction));
    w.raw("\",\"type\":\"").raw(type_name(r.packet_type));
    w.raw("\",\"prio\":").num(r.flow_priority);
    w.raw(",\"bytes\":").num(r.size_bytes);
    w.raw(",\"policy\":").str(r.policy);
    if (r.app_priority >= 0) w.raw(",\"app_prio\":").num(r.app_priority);
    w.raw(",\"ch\":").num(r.chosen);
    if (r.duplicates > 0) w.raw(",\"dups\":").num(r.duplicates);
    w.raw(",\"reason\":").str(r.reason != nullptr ? r.reason : "unspecified");
    w.raw(",\"channels\":[");
    for (std::size_t c = 0; c < r.channels.size(); ++c) {
      w.raw(c > 0 ? ",{\"q\":" : "{\"q\":").num(r.channels[c].queued_bytes);
      w.raw(",\"d_ms\":").fixed3(r.channels[c].est_delay_ms).put('}');
    }
    w.raw("]}\n");
  });
}

std::string SteeringAuditLog::to_jsonl() const {
  json::Writer w;
  write_jsonl(w);
  return w.take();
}

}  // namespace hvc::obs
