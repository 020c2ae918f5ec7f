// End hosts and topology wiring.
//
// A Node owns a flow demultiplexer: transports register a handler per
// FlowId and the node routes arriving packets to it, deduplicating copies
// produced by redundancy policies. Registration returns an owning
// FlowHandle, so a handler can never outlive the object it captures.
// TwoHostNetwork builds the paper's standard topology — client and
// server joined by an HvcSet, with an independent steering shim per
// direction.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "channel/channel.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/reorder.hpp"
#include "net/shim.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace hvc::net {

using PacketHandler = std::function<void(PacketPtr)>;

/// Allocate a flow id, unique within this thread's current id scope.
FlowId next_flow_id();

/// Reset the flow-id counter. Test-only: lets determinism tests produce
/// byte-identical traces across repeated in-process runs.
void reset_flow_ids_for_test();

/// Raw access to the thread-local flow-id counter (next id to hand out).
[[nodiscard]] FlowId flow_id_counter();
void set_flow_id_counter(FlowId next);

/// RAII for an isolated simulation run: zeroes this thread's flow- and
/// packet-id counters on entry and restores the previous values on exit.
/// The sweep engine (src/exp) wraps every run in one, so a run's id
/// sequence — and therefore its trace/export bytes — is independent of
/// which runs executed before it on the same thread. Id *values* never
/// influence simulation dynamics (they are opaque lookup keys), so this
/// changes output bytes only, not behaviour.
class IdScope {
 public:
  IdScope()
      : prev_flow_(flow_id_counter()), prev_packet_(packet_id_counter()) {
    set_flow_id_counter(1);
    set_packet_id_counter(1);
  }
  ~IdScope() {
    set_flow_id_counter(prev_flow_);
    set_packet_id_counter(prev_packet_);
  }
  IdScope(const IdScope&) = delete;
  IdScope& operator=(const IdScope&) = delete;

 private:
  FlowId prev_flow_;
  std::uint64_t prev_packet_;
};

class Node;

/// Owning registration of one flow's inbound handler on a Node (see
/// Node::register_flow). The handler stays routable exactly as long as
/// the handle holds it: destruction, reset() and move-assignment over a
/// live handle unregister it. Each registration carries a generation,
/// and unregistering erases the entry only while the generations agree,
/// so a stale handle never erases a newer registration of the same flow
/// (the generational handle idea of sim/slot_map). The Node must outlive
/// every handle it issued.
class FlowHandle {
 public:
  FlowHandle() = default;
  FlowHandle(FlowHandle&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)),
        flow_(other.flow_),
        generation_(other.generation_) {}
  FlowHandle& operator=(FlowHandle&& other) noexcept {
    if (this != &other) {
      reset();
      node_ = std::exchange(other.node_, nullptr);
      flow_ = other.flow_;
      generation_ = other.generation_;
    }
    return *this;
  }
  FlowHandle(const FlowHandle&) = delete;
  FlowHandle& operator=(const FlowHandle&) = delete;
  ~FlowHandle() { reset(); }

  /// Unregister now; no-op on an empty handle.
  void reset();

 private:
  friend class Node;
  FlowHandle(Node* node, FlowId flow, std::uint64_t generation)
      : node_(node), flow_(flow), generation_(generation) {}

  Node* node_ = nullptr;
  FlowId flow_ = 0;
  std::uint64_t generation_ = 0;
};

class Node {
 public:
  Node(sim::Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {
    auto& reg = obs::MetricsRegistry::current();
    m_dups_suppressed_ =
        &reg.counter("node." + name_ + ".duplicates_suppressed");
    m_unroutable_ = &reg.counter("node." + name_ + ".unroutable");
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// The shim carrying this node's outbound traffic.
  void set_egress(Shim* shim) { egress_ = shim; }

  /// Route a flow's inbound packets to `handler` until the returned
  /// handle lets go. Registering a flow again replaces its handler; only
  /// the newest handle can then unregister it.
  [[nodiscard]] FlowHandle register_flow(FlowId flow, PacketHandler handler);

  /// Send a packet out through the egress shim.
  void send(PacketPtr p);

  /// Deliver an inbound packet (called by link receivers). Deduplicates
  /// redundant copies; drops packets for unknown flows (counted).
  void deliver(PacketPtr p);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] std::int64_t unroutable_packets() const {
    return unroutable_;
  }
  [[nodiscard]] std::int64_t duplicates_suppressed() const {
    return dups_suppressed_;
  }

 private:
  friend class FlowHandle;
  /// Erase `flow`'s entry if it is still registration `generation`.
  void unregister_flow(FlowId flow, std::uint64_t generation);

  struct FlowEntry {
    PacketHandler handler;
    std::uint64_t generation = 0;
  };

  sim::Simulator* sim_;
  std::string name_;
  Shim* egress_ = nullptr;
  // Per-packet find() on the arriving flow id; ids are dense per run,
  // so the demux is a vector index (net/flow_table).
  FlowTable<FlowEntry> handlers_;
  std::uint64_t next_generation_ = 1;

  // Bounded memory of recently seen duplicate groups. Membership tests
  // only; eviction order comes from seen_order_ (FIFO), not the set.
  // hvc-lint: allow(unordered-container): contains()/erase(key) only,
  // never iterated.
  std::unordered_set<std::uint64_t> seen_groups_;
  std::deque<std::uint64_t> seen_order_;
  std::int64_t unroutable_ = 0;
  std::int64_t dups_suppressed_ = 0;
  obs::Counter* m_dups_suppressed_ = nullptr;
  obs::Counter* m_unroutable_ = nullptr;
};

/// The standard two-host topology over an HvcSet. Owns everything.
class TwoHostNetwork {
 public:
  /// `up_policy` steers client→server, `down_policy` server→client.
  TwoHostNetwork(sim::Simulator& sim,
                 std::unique_ptr<steer::SteeringPolicy> up_policy,
                 std::unique_ptr<steer::SteeringPolicy> down_policy);

  /// Add a channel before starting traffic. Returns its index.
  std::size_t add_channel(channel::ChannelProfile profile);

  /// Enable DChannel-style receiver-side resequencing (see
  /// net/reorder.hpp). Call before finalize().
  void enable_resequencing(sim::Duration max_hold);

  /// Call once after all channels are added: builds the shims and wires
  /// link receivers to the nodes.
  void finalize();

  [[nodiscard]] Node& client() { return client_; }
  [[nodiscard]] Node& server() { return server_; }
  [[nodiscard]] channel::HvcSet& channels() { return channels_; }
  [[nodiscard]] Shim& uplink_shim() { return *up_shim_; }
  [[nodiscard]] Shim& downlink_shim() { return *down_shim_; }

 private:
  sim::Simulator& sim_;
  channel::HvcSet channels_;
  Node client_;
  Node server_;
  std::unique_ptr<steer::SteeringPolicy> up_policy_;
  std::unique_ptr<steer::SteeringPolicy> down_policy_;
  std::unique_ptr<Shim> up_shim_;
  std::unique_ptr<Shim> down_shim_;
  sim::Duration resequence_hold_ = 0;  ///< 0 = resequencing disabled
  std::unique_ptr<ReorderBuffer> to_client_rsq_;
  std::unique_ptr<ReorderBuffer> to_server_rsq_;
};

}  // namespace hvc::net
