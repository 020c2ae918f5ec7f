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
//      the true count so exports can report truncation).
//   3. Deterministic output. Events carry simulated time only; two runs
//      with the same seeds export byte-identical JSONL.
//
// Exports:
//   * JSONL — one event object per line, trivially grep/jq-able;
//   * Chrome trace_event JSON — opens directly in chrome://tracing or
//     Perfetto (https://ui.perfetto.dev) as per-channel timelines: one
//     track per (channel, direction), instant events per lifecycle step,
//     and complete ("X") spans for each packet's channel residency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/binding.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace hvc::obs {

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

class PacketTracer : public ThreadBinding<PacketTracer, ActiveSlot>,
                     public ThreadBinding<PacketTracer, CurrentSlot> {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;  // ~48 MB

  /// Per-run instances are constructible directly; the sweep engine gives
  /// every concurrent run its own (installed via ScopedPacketTracer).
  PacketTracer() = default;

  /// The process-global tracer (exists even while disabled, so topology
  /// code can set channel names unconditionally).
  static PacketTracer& instance();

  /// The tracer topology/bookkeeping calls bind to: the innermost
  /// ScopedPacketTracer on this thread, or instance() when none is
  /// installed. Keeps channel-name writes race-free under concurrent
  /// simulations.
  static PacketTracer& current();

  /// Hot-path accessor: nullptr unless tracing is enabled *on this
  /// thread*. Call sites do
  ///   if (auto* tr = obs::PacketTracer::active()) tr->record(...);
  /// Thread-local so a tracing main-thread bench never races with sweep
  /// worker threads (which run with tracing off).
  [[nodiscard]] static PacketTracer* active() { return Active::bound(); }

  /// Start recording into a fresh ring of `capacity` events, and bind
  /// this tracer as the calling thread's active().
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; retained events stay exportable.
  void disable();
  /// Drop all events (and the total count); keeps enabled state.
  void clear();

  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(EventKind kind, sim::Time at, std::uint64_t packet_id,
              std::uint64_t flow_id, std::uint8_t channel,
              std::uint8_t direction, std::uint32_t size_bytes,
              std::uint8_t arg = 0, std::uint64_t aux = 0) {
    TraceEvent& e = ring_[head_];
    e.at = at;
    e.packet_id = packet_id;
    e.flow_id = flow_id;
    e.aux = aux;
    e.size_bytes = size_bytes;
    e.kind = kind;
    e.channel = channel;
    e.direction = direction;
    e.arg = arg;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++total_;
  }

  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// All events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  [[nodiscard]] std::size_t capacity() const {
    return enabled_ ? ring_.size() : 0;
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Channel names give exports human-readable track labels. Safe to call
  /// while disabled; the latest topology wins.
  void set_channel_name(std::size_t index, std::string name);
  [[nodiscard]] std::string channel_name(std::size_t index) const;

  /// One JSON object per line:
  ///   {"t_us":…,"ev":"rx","pkt":…,"flow":…,"ch":1,"dir":"up","bytes":…}
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace_event format (JSON Object Format, "traceEvents" array):
  /// loads in chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_chrome_trace() const;

 private:
  using Active = ThreadBinding<PacketTracer, ActiveSlot>;
  using Current = ThreadBinding<PacketTracer, CurrentSlot>;

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;        ///< next write slot
  std::uint64_t total_ = 0;
  bool enabled_ = false;
  std::vector<std::string> channel_names_;
};

/// RAII: installs a tracer as the calling thread's PacketTracer::current()
/// (and as active() if it is enabled) for the scope's lifetime. The sweep
/// engine wraps every run in one, so per-run topology construction writes
/// channel names into run-private state instead of the shared instance.
class ScopedPacketTracer {
 public:
  explicit ScopedPacketTracer(PacketTracer& tracer)
      : current_(tracer), active_(tracer) {}

 private:
  ScopedBinding<PacketTracer, CurrentSlot> current_;
  ScopedBinding<PacketTracer, ActiveSlot> active_;
};

/// Per-packet one-way-delay decomposition derived from lifecycle events:
/// for every packet that completed enqueue→…→rx on one channel, queueing
/// is dequeue−enqueue, propagation is rx−tx, and total is rx−enqueue.
/// Retransmit wait comes from kRetx events' aux field (time the data sat
/// lost before the transport resent it).
struct DelayDecomposition {
  struct PerChannel {
    std::string name;
    std::int64_t packets = 0;
    sim::Summary queueing_ms;
    sim::Summary propagation_ms;
    sim::Summary total_owd_ms;
  };
  std::vector<PerChannel> channels;  ///< indexed by channel id
  sim::Summary retx_wait_ms;
};

[[nodiscard]] DelayDecomposition decompose_delays(const PacketTracer& tracer);

}  // namespace hvc::obs
