// Generational slot map: dense, index-addressed object storage with
// use-after-retire detection.
//
// The sim core keeps per-entity state (city users, flow state) in dense
// vectors indexed by a small integer slot, because the steer/serve hot
// paths look entities up once per event and a vector index beats any
// hash. The failure mode of bare indices is the stale handle: an event
// scheduled against user 17 fires after user 17 departed and slot 17
// was reused. The slot map closes that hole with a generation counter
// per slot: a Handle is (slot, gen), retirement bumps the generation,
// and get() aborts — in release builds too — when the generations
// disagree. Callers that own their liveness protocol (the population
// engine's epoch checks) can still address raw slots through at()/gen().
//
// Two acquisition modes:
//  - acquire(): always a fresh slot, never reuses one. The population
//    engine needs this — user RNG streams are keyed by (seed, slot), so
//    reusing a slot would replay a departed user's randomness.
//  - acquire_reusing(): prefers retired slots (bounded storage for
//    entity churn where identity is carried by the generation).
//
// Retired slots keep their data readable via at(): departure bookkeeping
// (folding a departed user's stats) runs after retirement on purpose.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace hvc::sim {

template <class T>
class SlotMap {
 public:
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Place `value` in a fresh slot (slots are never reused by this
  /// call). Returns its handle; generation starts at 0.
  Handle acquire(T value) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    // The slot vector's growth amortizes, and reserve() pre-sizes it for
    // the common fixed-population case
    slots_.push_back(Slot{std::move(value), 0, true});
    ++live_;
    return Handle{slot, 0};
  }

  /// Place `value` in a retired slot when one is free, else a fresh
  /// one. The returned handle's generation distinguishes it from every
  /// previous occupant of the slot.
  Handle acquire_reusing(T value) {
    if (free_.empty()) return acquire(std::move(value));
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    Slot& s = slots_[slot];
    s.value = std::move(value);
    s.live = true;
    ++live_;
    return Handle{slot, s.gen};
  }

  /// Retire the slot behind `h`. Aborts on a stale handle (retiring an
  /// entity twice is an ownership bug, not a race to tolerate).
  void retire(Handle h) {
    check(h, "retire");
    retire_slot(h.slot);
  }

  /// Retire by raw slot, for owners running their own liveness checks.
  /// The generation bumps so outstanding handles go stale; the data
  /// stays readable through at().
  void retire_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.live = false;
    ++s.gen;
    --live_;
    // Free-list growth amortizes and is bounded by the slot count
    free_.push_back(slot);
  }

  /// The value behind `h`. Aborts — release builds included — when the
  /// handle is stale: a stale read is memory of a departed entity.
  [[nodiscard]] T& get(Handle h) {
    check(h, "get");
    return slots_[h.slot].value;
  }
  [[nodiscard]] const T& get(Handle h) const {
    check(h, "get");
    return slots_[h.slot].value;
  }

  /// The value behind `h`, or nullptr when the handle is stale.
  [[nodiscard]] T* try_get(Handle h) {
    return alive(h) ? &slots_[h.slot].value : nullptr;
  }

  [[nodiscard]] bool alive(Handle h) const {
    return h.slot < slots_.size() && slots_[h.slot].live &&
           slots_[h.slot].gen == h.gen;
  }

  /// Raw-slot access. Valid for any slot ever acquired, live or retired.
  [[nodiscard]] T& at(std::uint32_t slot) { return slots_[slot].value; }
  [[nodiscard]] const T& at(std::uint32_t slot) const {
    return slots_[slot].value;
  }
  [[nodiscard]] bool live(std::uint32_t slot) const {
    return slots_[slot].live;
  }
  [[nodiscard]] std::uint32_t gen(std::uint32_t slot) const {
    return slots_[slot].gen;
  }

  /// Slots ever acquired (retired ones included).
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_; }

  void reserve(std::size_t n) {
    // Explicit pre-sizing call
    slots_.reserve(n);
  }

  /// Visit (slot, value) for every live slot, in slot order.
  template <class F>
  void for_each_live(F&& fn) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].live) fn(i, slots_[i].value);
    }
  }

 private:
  struct Slot {
    T value;
    std::uint32_t gen = 0;
    bool live = false;
  };

  void check(Handle h, const char* op) const {
    if (!alive(h)) {
      std::fprintf(stderr,
                   "SlotMap::%s: stale handle (slot %u gen %u, current %s)\n",
                   op, h.slot, h.gen,
                   h.slot < slots_.size() ? "gen differs or retired"
                                          : "slot out of range");
      std::abort();
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace hvc::sim
