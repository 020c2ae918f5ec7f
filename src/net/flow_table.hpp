// Dense flow-keyed state table.
//
// Flow ids are allocated densely from 1 (net::next_flow_id, reset per
// isolated run by net::IdScope), so per-flow state keyed by FlowId is a
// vector index in every realistic run — the unordered_map the steer and
// demux hot paths used to pay a hash + probe per packet for was mapping
// small dense integers. FlowTable stores the first kDenseLimit ids in a
// flat vector (presence bit per entry) and spills anything above the
// limit — synthetic or adversarial ids — into an ordered map, so lookup
// is an index in the common case and stays correct in every case.
//
// Not iterable on purpose: the lint unordered-container rule exists
// because iteration order once leaked into exports. The only whole-table
// operation is clear().
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace hvc::net {

template <class V>
class FlowTable {
 public:
  /// Ids below this live in the dense vector (512 KiB of handlers at
  /// the limit); the tail map handles the rest.
  static constexpr std::uint64_t kDenseLimit = 1u << 16;

  /// The value for `key`, or nullptr when absent.
  [[nodiscard]] V* find(std::uint64_t key) {
    if (key < kDenseLimit) {
      if (key >= dense_.size() || !dense_[key].present) return nullptr;
      return &dense_[key].value;
    }
    const auto it = spill_.find(key);
    return it == spill_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlowTable*>(this)->find(key);
  }

  /// The value for `key`, default-constructing it when absent. Second
  /// element reports whether the entry was created.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (key < kDenseLimit) {
      if (key >= dense_.size()) {
        // Grows to the highest flow id seen, once — ids are dense, so
        // this amortizes to one growth per run and is bounded by
        // kDenseLimit
        dense_.resize(static_cast<std::size_t>(key) + 1);
      }
      Entry& e = dense_[key];
      const bool created = !e.present;
      if (created) {
        e.present = true;
        ++size_;
      }
      return {&e.value, created};
    }
    // The spill map only holds ids past the dense limit, which dense
    // per-run id allocation never produces
    const auto [it, created] = spill_.try_emplace(key);
    if (created) ++size_;
    return {&it->second, created};
  }

  bool erase(std::uint64_t key) {
    if (key < kDenseLimit) {
      if (key >= dense_.size() || !dense_[key].present) return false;
      dense_[key] = Entry{};
      --size_;
      return true;
    }
    if (spill_.erase(key) == 0) return false;
    --size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return find(key) != nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  void clear() {
    dense_.clear();
    spill_.clear();
    size_ = 0;
  }

 private:
  struct Entry {
    V value{};
    bool present = false;
  };
  std::vector<Entry> dense_;
  std::map<std::uint64_t, V> spill_;
  std::size_t size_ = 0;
};

}  // namespace hvc::net
