// Packet lifecycle tracer: a ring-buffered event sink recording where
// every packet went and where its delay accrued — the per-packet evidence
// behind the paper's §3 claims (which packets crossed which channel, when
// a policy flipped, how much time was queueing vs. propagation).
//
// Design constraints, in order:
//   1. Zero cost when disabled. The hot-path check is one load of a
//      thread-local pointer (`PacketTracer::active()` returns nullptr
//      unless tracing is on; obs/binding.hpp); instrumentation sites
//      compile to a test+jump.
//      Benchmarks run with the tracer off by default.
//   2. Bounded memory. Events land in a fixed-capacity ring; when it
//      wraps, the oldest events are overwritten (total_recorded() keeps
//      the true count, and the export reports the truncation).
//   3. Deterministic output. Events carry simulated time only; two runs
//      with the same seeds record identical events.
//
// Export: Chrome trace_event JSON (hvc_run --trace) — opens directly in
// chrome://tracing or Perfetto (https://ui.perfetto.dev) as per-channel
// timelines: one track per (channel, direction), instant events per
// lifecycle step, and complete ("X") spans for each packet's channel
// residency.
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

/// Lifecycle steps. Values are stable (they appear in exports).
enum class EventKind : std::uint8_t {
  kEnqueue = 0,  ///< accepted into a link's droptail queue
  kDequeue = 1,  ///< popped from the queue by a service opportunity
  kTx = 2,       ///< put on the wire (passed the loss model)
  kRx = 3,       ///< arrived at the receiving node
  kDrop = 4,     ///< lost; `arg` holds a DropReason
  kRetx = 5,     ///< a transport retransmitted this data
  kSteer = 6,    ///< the shim chose a channel; `arg` = duplicate count
  kReorder = 7,  ///< resequencer action; `arg` holds a ReorderAction
};

enum DropReason : std::uint8_t {
  kDropQueueFull = 0,   ///< droptail at the link queue
  kDropWire = 1,        ///< loss model on the wire
  kDropDuplicate = 2,   ///< redundant copy suppressed at the receiver
  kDropUnroutable = 3,  ///< no handler registered for the flow
};

enum ReorderAction : std::uint8_t {
  kReorderPass = 0,     ///< in order, delivered immediately
  kReorderHold = 1,     ///< buffered waiting for a gap
  kReorderGapFill = 2,  ///< released because the gap filled
  kReorderTimeout = 3,  ///< released by max-hold expiry
};

/// 255 in `channel`/`direction` means "not applicable".
inline constexpr std::uint8_t kNoChannel = 255;
inline constexpr std::uint8_t kNoDirection = 255;
/// Direction values (match channel::Direction's enumerators).
inline constexpr std::uint8_t kDirDown = 0;
inline constexpr std::uint8_t kDirUp = 1;

struct TraceEvent {
  sim::Time at = 0;              ///< simulated time, ns
  std::uint64_t packet_id = 0;
  std::uint64_t flow_id = 0;
  std::uint64_t aux = 0;         ///< kind-specific: retx wait ns, hold ns…
  std::uint32_t size_bytes = 0;
  EventKind kind = EventKind::kEnqueue;
  std::uint8_t channel = kNoChannel;
  std::uint8_t direction = kNoDirection;
  std::uint8_t arg = 0;          ///< kind-specific detail (see enums above)
};

[[nodiscard]] const char* to_string(EventKind k);
[[nodiscard]] const char* to_string(DropReason r);
[[nodiscard]] const char* to_string(ReorderAction a);

class PacketTracer : public ThreadBinding<PacketTracer> {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;  // ~48 MB

  /// Per-run instances, installed with ScopedPacketTracer; the sweep
  /// engine gives every concurrent run its own.
  PacketTracer() = default;

  /// Hot-path accessor: nullptr unless tracing is enabled *on this
  /// thread*. Call sites do
  ///   if (auto* tr = obs::PacketTracer::active()) tr->record(...);
  /// Thread-local so concurrent sweep runs never see each other's tracer.
  [[nodiscard]] static PacketTracer* active() { return bound(); }

  /// Start recording into a fresh ring of `capacity` events, and bind
  /// this tracer as the calling thread's active(). The ring grows as
  /// events arrive until it holds `capacity`, then overwrites the oldest.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; retained events stay exportable.
  void disable();

  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(EventKind kind, sim::Time at, std::uint64_t packet_id,
              std::uint64_t flow_id, std::uint8_t channel,
              std::uint8_t direction, std::uint32_t size_bytes,
              std::uint8_t arg = 0, std::uint64_t aux = 0) {
    TraceEvent& e =
        ring_.size() < capacity_ ? ring_.emplace_back() : ring_[head_];
    e.at = at;
    e.packet_id = packet_id;
    e.flow_id = flow_id;
    e.aux = aux;
    e.size_bytes = size_bytes;
    e.kind = kind;
    e.channel = channel;
    e.direction = direction;
    e.arg = arg;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++total_;
  }

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// All events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::size_t capacity() const {
    return enabled_ ? capacity_ : 0;
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Channel names give the export human-readable track labels
  /// (channel::HvcSet::add names the channels of an active tracer).
  void set_channel_name(std::size_t index, std::string name);
  [[nodiscard]] std::string channel_name(std::size_t index) const;

  /// Chrome trace_event format (JSON Object Format, "traceEvents" array),
  /// read from the ring in place: loads in chrome://tracing and Perfetto.
  /// When the ring wrapped, a top-level "otherData" object carries its
  /// capacity and the recorded and overwritten event counts.
  void write_chrome_trace(json::Writer& w) const;
  /// write_chrome_trace() into a string.
  [[nodiscard]] std::string to_chrome_trace() const;

 private:
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;        ///< next write slot
  std::uint64_t total_ = 0;
  bool enabled_ = false;
  std::vector<std::string> channel_names_;
};

/// RAII: installs a tracer as the calling thread's active() for the
/// scope's lifetime — if it is enabled; a disabled tracer masks any outer
/// one, so sweep runs never record into each other's rings.
using ScopedPacketTracer = ScopedBinding<PacketTracer>;

}  // namespace hvc::obs
