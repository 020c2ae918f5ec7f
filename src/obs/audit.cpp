#include "obs/audit.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace hvc::obs {

void SteeringAuditLog::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, AuditRecord{});
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
  ring_[head_] = std::move(rec);
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++total_;
}

std::size_t SteeringAuditLog::size() const {
  if (ring_.empty()) return 0;
  return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                               : ring_.size();
}

std::vector<AuditRecord> SteeringAuditLog::snapshot() const {
  std::vector<AuditRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::size_t start = total_ > ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
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

std::string SteeringAuditLog::to_jsonl() const {
  std::string out;
  char buf[256];
  if (total_ > ring_.size()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"meta\":{\"capacity\":%zu,\"recorded\":%" PRIu64
                  ",\"overwritten\":%" PRIu64 "}}\n",
                  ring_.size(), total_, total_ - ring_.size());
    out += buf;
  }
  for (const AuditRecord& r : snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"t_us\":%.3f,\"pkt\":%" PRIu64 ",\"flow\":%" PRIu64
                  ",\"dir\":\"%s\",\"type\":\"%s\",\"prio\":%d,"
                  "\"bytes\":%u,\"policy\":",
                  static_cast<double>(r.at) / 1e3, r.packet_id, r.flow_id,
                  dir_name(r.direction), type_name(r.packet_type),
                  static_cast<int>(r.flow_priority), r.size_bytes);
    out += buf;
    out += json::quote(r.policy);
    if (r.app_priority >= 0) {
      std::snprintf(buf, sizeof(buf), ",\"app_prio\":%d",
                    static_cast<int>(r.app_priority));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",\"ch\":%d",
                  static_cast<int>(r.chosen));
    out += buf;
    if (r.duplicates > 0) {
      std::snprintf(buf, sizeof(buf), ",\"dups\":%d",
                    static_cast<int>(r.duplicates));
      out += buf;
    }
    out += ",\"reason\":";
    out += json::quote(r.reason != nullptr ? r.reason : "unspecified");
    out += ",\"channels\":[";
    for (std::size_t i = 0; i < r.channels.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s{\"q\":%lld,\"d_ms\":%.3f}",
                    i > 0 ? "," : "",
                    static_cast<long long>(r.channels[i].queued_bytes),
                    r.channels[i].est_delay_ms);
      out += buf;
    }
    out += "]}\n";
  }
  return out;
}

}  // namespace hvc::obs
