// A unidirectional emulated link: droptail queue → trace-driven service →
// loss model → propagation delay → receiver.
//
// Service follows Mahimahi's delivery-opportunity model (trace/trace.hpp).
// Two service disciplines are provided:
//   * kBytesPerOpportunity (default): each opportunity grants MTU bytes of
//     credit (with small carryover) and the queue drains while credit
//     covers the head packet — byte-accurate for small-packet traffic such
//     as ACK streams on URLLC.
//   * kPacketPerOpportunity: strict Mahimahi semantics, one packet (of any
//     size up to MTU) per opportunity — used for cross-validation tests.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "channel/loss.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace hvc::channel {

using PacketHandler = std::function<void(net::PacketPtr)>;

enum class ServiceMode : std::uint8_t {
  kBytesPerOpportunity,
  kPacketPerOpportunity,
};

struct LinkConfig {
  std::string name = "link";
  trace::CapacityTrace capacity = trace::CapacityTrace::constant(sim::mbps(10));
  sim::Duration prop_delay = sim::milliseconds(10);
  std::int64_t queue_limit_bytes = 2 * 1024 * 1024;
  LossConfig loss;
  ServiceMode mode = ServiceMode::kBytesPerOpportunity;
  std::uint64_t loss_seed = 42;
};

struct LinkStats {
  std::int64_t enqueued_packets = 0;
  std::int64_t enqueued_bytes = 0;
  std::int64_t delivered_packets = 0;
  std::int64_t delivered_bytes = 0;
  std::int64_t dropped_queue_packets = 0;   ///< droptail
  std::int64_t dropped_wire_packets = 0;    ///< loss model
};

class Link {
 public:
  Link(sim::Simulator& sim, LinkConfig cfg);
  /// Folds stats_ into the registry counters (see note below).
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Submit a packet. May drop immediately (droptail).
  void send(net::PacketPtr p);

  void set_receiver(PacketHandler h) { receiver_ = std::move(h); }

  // ---- Introspection used by steering policies and monitors ----

  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }

  /// Expected delay for a byte entering the queue now: current backlog
  /// divided by the trace's average rate, plus one serialization slot.
  /// This mirrors what a DChannel-style shim can actually estimate.
  [[nodiscard]] sim::Duration estimated_queue_delay() const;

  /// Estimated delivery time for a hypothetical enqueue of `bytes` now
  /// (queue delay + serialization + propagation).
  [[nodiscard]] sim::Duration estimated_delivery_delay(
      std::int64_t bytes) const;

  [[nodiscard]] sim::Duration prop_delay() const { return cfg_.prop_delay; }
  [[nodiscard]] double average_rate_bps() const {
    return avg_rate_bps_;  // trace property, fixed at construction
  }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  /// Short-horizon delivery-rate estimate (EWMA over service events),
  /// the kind of MAC/PHY hint §3.1 proposes exporting to steering.
  [[nodiscard]] double recent_delivery_rate_bps() const;

  /// Tag this link with its channel index/direction for the packet
  /// lifecycle tracer (HvcSet::add does this for set members); links used
  /// standalone fall back to the channel id stamped on each packet.
  void set_trace_ids(std::uint8_t channel, std::uint8_t direction) {
    trace_channel_ = channel;
    trace_direction_ = direction;
  }

  // ---- Fault-injection hooks (driven by fault::FaultInjector) ----
  //
  // Faults layer on top of the configured trace/loss model without
  // mutating cfg_, so clearing a fault restores the exact pre-fault
  // behavior. Packets already committed to the wire (inside their
  // propagation delay) are not recalled — like a real outage, only
  // service of queued packets stops.

  /// Full outage: no delivery opportunities are served while down.
  /// Queued packets stay queued; new sends still enqueue (and may
  /// droptail) so the blackout cost is observable. Coming back up
  /// reschedules service immediately.
  void fault_set_down(bool down);

  /// Handover rate cliff: serve only ~`scale` of delivery opportunities
  /// (deterministic credit accumulator, no RNG). `scale >= 1` clears.
  void fault_set_rate_scale(double scale);

  /// Propagation-delay spike added on top of cfg_.prop_delay.
  void fault_set_extra_delay(sim::Duration extra) {
    fault_extra_delay_ = extra;
  }

  /// Gilbert-Elliott burst-loss episode layered over the configured loss
  /// model, with its own deterministic RNG stream.
  void fault_set_episode_loss(const LossConfig& cfg, std::uint64_t seed);
  void fault_clear_episode_loss() { episode_loss_.reset(); }

  [[nodiscard]] bool fault_down() const { return fault_down_; }

 private:
  [[nodiscard]] std::uint8_t trace_channel(const net::Packet& p) const {
    return trace_channel_ != obs::kNoChannel ? trace_channel_ : p.channel;
  }

  void note_dequeue(const net::Packet& p) {
    if (auto* tr = obs::PacketTracer::active()) {
      tr->record(obs::EventKind::kDequeue, sim_.now(), p.id, p.flow,
                 trace_channel(p), trace_direction_,
                 static_cast<std::uint32_t>(p.size_bytes));
    }
  }
  void schedule_service();
  void on_opportunity();
  void deliver(net::PacketPtr p);

  sim::Simulator& sim_;
  LinkConfig cfg_;
  PacketHandler receiver_;
  LossModel loss_;

  // Fault-injection state (see the fault_* hooks above).
  bool fault_down_ = false;
  double fault_rate_scale_ = 1.0;
  double avg_rate_bps_ = 0.0;  ///< cfg_.capacity.average_rate_bps()
  // recent_delivery_rate_bps() memo: the answer only depends on
  // sim-now and the fault knobs, and steering snapshots ask for it
  // once per channel per packet — bursts at one timestamp hit the
  // cache. The fault setters invalidate it (same-timestamp safety).
  mutable sim::Time recent_rate_at_ = -1;
  mutable double recent_rate_bps_ = 0.0;
  // Counts the trace's opportunities in the recent-rate window, which
  // only moves forward with sim time.
  mutable trace::WindowCounter recent_window_;
  // Forward cursor over the capacity trace: schedule_service() asks for
  // the next opportunity at nondecreasing sim times, so stepping beats
  // the trace's binary search.
  trace::OpportunityCursor cursor_;
  double fault_rate_acc_ = 0.0;
  sim::Duration fault_extra_delay_ = 0;
  std::optional<LossModel> episode_loss_;
  /// Links never reorder: when a delay spike clears while packets are in
  /// flight, later packets are held back to this timestamp instead of
  /// overtaking (kept as the wire FIFO invariant under fault injection).
  sim::Time last_rx_at_ = 0;

  std::deque<net::PacketPtr> queue_;
  std::int64_t queued_bytes_ = 0;
  std::int64_t credit_bytes_ = 0;
  bool service_scheduled_ = false;
  sim::EventId service_event_ = 0;

  // Delivery-rate estimator state.
  sim::Time rate_window_start_ = 0;
  std::int64_t rate_window_bytes_ = 0;
  double rate_estimate_bps_ = 0.0;

  // Observability: lifecycle-tracer track ids and registry counters.
  // stats_ stays the only per-packet accounting; the destructor folds it
  // into these counters so the hot path pays nothing for the registry.
  std::uint8_t trace_channel_ = obs::kNoChannel;
  std::uint8_t trace_direction_ = obs::kNoDirection;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_delivered_bytes_ = nullptr;
  obs::Counter* m_dropped_queue_ = nullptr;
  obs::Counter* m_dropped_wire_ = nullptr;

  // Telemetry time series (pull-based; sampled on the sim-time tick):
  //   link.<name>.{queued_bytes,dropped_packets} — queue dynamics,
  //   channel.<name>.{est_delay_ms,rate_mbps,loss_rate} — the channel
  //   estimates steering policies decide on.
  obs::TelemetryProbes probes_;

  LinkStats stats_;
};

}  // namespace hvc::channel
