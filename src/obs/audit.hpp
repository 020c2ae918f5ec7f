// Steering-decision audit log: one compact record per SteeringPolicy
// steer() call — when, which packet, what every channel looked like, what
// the policy chose and *why* (a policy-specific reason tag such as
// "dchannel:small-object" or "min-delay:tie-break").
//
// The lifecycle tracer answers "where did this packet go"; the audit log
// answers "why did the policy send it there", which is the question every
// §3 debugging session starts with. Same design contract as the tracer:
// one thread-local active() pointer checked in the shim (zero cost when
// off), a bounded ring whose export flags any truncation, and
// sim-time-only records so exports are byte-identical across sweep
// parallelism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/binding.hpp"
#include "sim/units.hpp"

namespace hvc::obs {

namespace json {
class Writer;
}  // namespace json

/// The per-channel state snapshot the policy decided against.
struct AuditChannelState {
  std::int64_t queued_bytes = 0;
  double est_delay_ms = 0.0;  ///< estimated delivery delay for this packet
};

struct AuditRecord {
  sim::Time at = 0;
  std::uint64_t packet_id = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t size_bytes = 0;
  std::uint8_t packet_type = 0;    ///< net::PacketType value
  std::uint8_t flow_priority = 0;  ///< as the policy saw it (post-blanking)
  std::int16_t app_priority = -1;  ///< -1 = no app header visible
  std::uint8_t direction = 255;    ///< obs::kDirDown / kDirUp
  std::uint8_t chosen = 0;
  std::uint8_t duplicates = 0;
  /// Static-string tag set by the policy (Decision::reason); never owned.
  const char* reason = nullptr;
  std::string policy;
  std::vector<AuditChannelState> channels;
};

class SteeringAuditLog : public ThreadBinding<SteeringAuditLog> {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  SteeringAuditLog() = default;

  /// Hot-path accessor: nullptr unless auditing is enabled on this
  /// thread. The shim does
  ///   if (auto* al = obs::SteeringAuditLog::active()) al->record(...);
  [[nodiscard]] static SteeringAuditLog* active() { return bound(); }

  /// Start recording into a fresh ring of `capacity` records and install
  /// this log as the calling thread's active(). The ring grows as records
  /// arrive until it holds `capacity`, then overwrites the oldest.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; retained records stay exportable.
  void disable();

  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(AuditRecord rec);

  /// Records currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// All records ever made, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::size_t capacity() const {
    return enabled_ ? capacity_ : 0;
  }

  /// Retained records, oldest first.
  [[nodiscard]] std::vector<AuditRecord> snapshot() const;

  /// One JSON object per line, oldest first, read from the ring in place:
  ///   {"t_us":…,"pkt":…,"flow":…,"dir":"up","type":"ack","prio":0,
  ///    "bytes":52,"policy":"dchannel","ch":1,"reason":"dchannel:control",
  ///    "channels":[{"q":2960,"d_ms":50.4},{"q":0,"d_ms":5.2}]}
  /// When the ring wrapped, a first line in telemetry's meta shape says
  /// how many records the retained ones are the newest of:
  ///   {"meta":{"capacity":65536,"recorded":…,"overwritten":…}}
  void write_jsonl(json::Writer& w) const;
  /// write_jsonl() into a string.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  std::vector<AuditRecord> ring_;  ///< grows to capacity_, then wraps
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< next write slot
  std::uint64_t total_ = 0;
  bool enabled_ = false;
};

/// RAII: installs a log as the calling thread's active() for the scope's
/// lifetime — if it is enabled; a disabled log masks any outer one, so
/// sweep runs never write into each other's audit trail.
using ScopedSteeringAuditLog = ScopedBinding<SteeringAuditLog>;

}  // namespace hvc::obs
