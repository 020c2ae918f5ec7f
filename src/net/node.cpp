#include "net/node.hpp"

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace hvc::net {

namespace {
constexpr std::size_t kDedupMemory = 4096;
// Thread-local so concurrent simulations (src/exp sweeps) never contend
// or perturb each other's id sequences.
thread_local FlowId g_next_flow = 1;
}  // namespace

FlowId next_flow_id() { return g_next_flow++; }

void reset_flow_ids_for_test() { g_next_flow = 1; }

FlowId flow_id_counter() { return g_next_flow; }

void set_flow_id_counter(FlowId next) { g_next_flow = next; }

void FlowHandle::reset() {
  if (Node* node = std::exchange(node_, nullptr)) {
    node->unregister_flow(flow_, generation_);
  }
}

FlowHandle Node::register_flow(FlowId flow, PacketHandler handler) {
  const std::uint64_t generation = next_generation_++;
  *handlers_.try_emplace(flow).first = {std::move(handler), generation};
  return FlowHandle(this, flow, generation);
}

void Node::unregister_flow(FlowId flow, std::uint64_t generation) {
  const FlowEntry* entry = handlers_.find(flow);
  if (entry != nullptr && entry->generation == generation) {
    handlers_.erase(flow);
  }
}

void Node::send(PacketPtr p) {
  if (egress_ == nullptr) {
    ++unroutable_;
    return;
  }
  egress_->send(std::move(p));
}

void Node::deliver(PacketPtr p) {
  if (p->dup_group != 0) {
    if (seen_groups_.contains(p->dup_group)) {
      ++dups_suppressed_;
      m_dups_suppressed_->inc();
      if (auto* tr = obs::PacketTracer::active()) {
        tr->record(obs::EventKind::kDrop, sim_->now(), p->id, p->flow,
                   p->channel, obs::kNoDirection,
                   static_cast<std::uint32_t>(p->size_bytes),
                   obs::kDropDuplicate);
      }
      return;
    }
    seen_groups_.insert(p->dup_group);
    seen_order_.push_back(p->dup_group);
    if (seen_order_.size() > kDedupMemory) {
      seen_groups_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
  }
  const FlowEntry* entry = handlers_.find(p->flow);
  if (entry == nullptr) {
    ++unroutable_;
    m_unroutable_->inc();
    if (auto* tr = obs::PacketTracer::active()) {
      tr->record(obs::EventKind::kDrop, sim_->now(), p->id, p->flow,
                 p->channel, obs::kNoDirection,
                 static_cast<std::uint32_t>(p->size_bytes),
                 obs::kDropUnroutable);
    }
    return;
  }
  // Copy the handler before invoking: a handler may reset its own handle
  // (e.g. one-shot handshake flows), which would destroy the closure we
  // are executing.
  const PacketHandler handler = entry->handler;
  handler(std::move(p));
}

TwoHostNetwork::TwoHostNetwork(
    sim::Simulator& sim, std::unique_ptr<steer::SteeringPolicy> up_policy,
    std::unique_ptr<steer::SteeringPolicy> down_policy)
    : sim_(sim),
      channels_(sim),
      client_(sim, "client"),
      server_(sim, "server"),
      up_policy_(std::move(up_policy)),
      down_policy_(std::move(down_policy)) {}

std::size_t TwoHostNetwork::add_channel(channel::ChannelProfile profile) {
  return channels_.add(std::move(profile));
}

void TwoHostNetwork::enable_resequencing(sim::Duration max_hold) {
  resequence_hold_ = max_hold;
}

void TwoHostNetwork::finalize() {
  up_shim_ = std::make_unique<Shim>(sim_, channels_,
                                    channel::Direction::kUplink,
                                    std::move(up_policy_));
  down_shim_ = std::make_unique<Shim>(sim_, channels_,
                                      channel::Direction::kDownlink,
                                      std::move(down_policy_));
  client_.set_egress(up_shim_.get());
  server_.set_egress(down_shim_.get());

  std::function<void(PacketPtr)> to_server = [this](PacketPtr p) {
    server_.deliver(std::move(p));
  };
  std::function<void(PacketPtr)> to_client = [this](PacketPtr p) {
    client_.deliver(std::move(p));
  };
  if (resequence_hold_ > 0) {
    to_server_rsq_ = std::make_unique<ReorderBuffer>(sim_, resequence_hold_,
                                                     std::move(to_server));
    to_client_rsq_ = std::make_unique<ReorderBuffer>(sim_, resequence_hold_,
                                                     std::move(to_client));
    to_server = [this](PacketPtr p) { to_server_rsq_->accept(std::move(p)); };
    to_client = [this](PacketPtr p) { to_client_rsq_->accept(std::move(p)); };
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_.at(i).uplink().set_receiver(to_server);
    channels_.at(i).downlink().set_receiver(to_client);
  }
}

}  // namespace hvc::net
