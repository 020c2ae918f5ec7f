// Priority queue of timestamped events with deterministic tie-breaking.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO). This is load-bearing for reproducibility: a plain
// std::priority_queue over (time, callback) leaves same-time ordering
// unspecified, and steering decisions downstream depend on packet arrival
// order.
//
// Two interchangeable implementations live behind the EventQueue facade:
//
//  * CalendarQueue (default) — a lazily-retuned time wheel. Time is
//    quantized into power-of-two-width ticks; a power-of-two ring of
//    buckets holds the next `nbuckets` ticks (one tick per slot), an
//    occupancy bitmap finds the next non-empty slot in O(words), and
//    events beyond the ring's horizon sit in a min-heap overflow bucket
//    that migrates into the ring as the wheel turns. The front bucket is
//    sorted by (at, id) when its drain starts, so pop order is exactly
//    the total order the reference heap uses. Push and pop are O(1)
//    amortized instead of O(log n).
//
//  * DebugHeapQueue — the original binary heap, kept as the reference
//    implementation. `HVC_REFERENCE_QUEUE=1` (or
//    set_reference_queue_for_test(true)) selects it at Simulator
//    construction; the differential harness in tests/diffsim_test.cpp
//    runs every scenario under both and asserts byte-identical artifacts.
//
// Both order events by the same total order (at, then id), so their pop
// sequences are bit-for-bit identical by construction; the tests exist to
// keep it that way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/prof.hpp"
#include "sim/units.hpp"

namespace hvc::sim {

/// Opaque handle identifying a scheduled event; used to cancel it.
using EventId = std::uint64_t;

/// Move-only type-erased `void()` callable with a 40-byte inline buffer.
///
/// std::function heap-allocates every capture over 16 bytes; simulator
/// events routinely capture `this` plus two or three words (timer
/// re-arms, per-user population lambdas), which made one malloc/free per
/// scheduled event. The wider buffer keeps those captures inline; larger
/// ones fall back to a unique_ptr held in the same buffer.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 40;

  EventFn() = default;

  template <class F, std::enable_if_t<
                         !std::is_same_v<std::remove_cvref_t<F>, EventFn>,
                         int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule call site
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventFn requires a void() callable");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      std::construct_at(reinterpret_cast<Fn*>(buf_), std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      using Holder = std::unique_ptr<Fn>;
      // Capture larger than the inline buffer; every sim-core schedule
      // site fits inline
      std::construct_at(reinterpret_cast<Holder*>(buf_),
                        std::make_unique<Fn>(std::forward<F>(f)));
      ops_ = &boxed_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      steal(other);
    }
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        steal(other);
      }
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivially_destructible) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the value into `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    /// Relocation is a plain byte copy: the move fast path memcpys the
    /// buffer instead of dispatching through `relocate`.
    bool trivially_relocatable;
    /// Destruction is a no-op: reset() skips the `destroy` dispatch.
    bool trivially_destructible;
  };

  /// Take `other`'s value (ops_ already copied), leaving it empty.
  void steal(EventFn& other) noexcept {
    if (ops_->trivially_relocatable) {
      __builtin_memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  template <class Fn>
  static void do_invoke(void* p) {
    (*std::launder(reinterpret_cast<Fn*>(p)))();
  }
  template <class Fn>
  static void do_relocate(void* dst, void* src) {
    Fn* s = std::launder(reinterpret_cast<Fn*>(src));
    std::construct_at(reinterpret_cast<Fn*>(dst), std::move(*s));
    std::destroy_at(s);
  }
  template <class Fn>
  static void do_destroy(void* p) {
    std::destroy_at(std::launder(reinterpret_cast<Fn*>(p)));
  }
  template <class Fn>
  static void do_invoke_boxed(void* p) {
    (**std::launder(reinterpret_cast<std::unique_ptr<Fn>*>(p)))();
  }

  // A type is trivially relocatable when move-constructing into fresh
  // storage and abandoning (not destroying) the source is equivalent to
  // a byte copy. All trivially copyable types qualify. std::function is
  // additionally whitelisted: in both libstdc++ and libc++ its storage
  // is {inline blob | heap pointer} + two function pointers with no
  // self-references, so relocation degenerates to memcpy. (The same
  // technique as folly::IsRelocatable; revisit if a third stdlib shows
  // up.) It is NOT trivially destructible — its dtor frees the target.
  template <class T>
  struct TriviallyRelocatable : std::is_trivially_copyable<T> {};
  template <class R, class... A>
  struct TriviallyRelocatable<std::function<R(A...)>> : std::true_type {};

  template <class Fn>
  static constexpr Ops inline_ops{&do_invoke<Fn>, &do_relocate<Fn>,
                                  &do_destroy<Fn>,
                                  TriviallyRelocatable<Fn>::value,
                                  std::is_trivially_destructible_v<Fn>};
  template <class Fn>
  static constexpr Ops boxed_ops{&do_invoke_boxed<Fn>,
                                 &do_relocate<std::unique_ptr<Fn>>,
                                 &do_destroy<std::unique_ptr<Fn>>,
                                 // unique_ptr: relocation is a pointer
                                 // copy + abandon, i.e. a byte copy.
                                 true, false};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// One scheduled event. `id` is the FIFO tiebreak: (at, id) is the total
/// order both queue implementations pop in.
struct EventEntry {
  EventEntry(Time at_, EventId id_, EventFn&& fn_)
      : at(at_), id(id_), fn(std::move(fn_)) {}
  Time at;
  EventId id;
  EventFn fn;
};

/// True when (a.at, a.id) orders strictly before (b.at, b.id).
[[nodiscard]] inline bool event_before(Time a_at, EventId a_id, Time b_at,
                                       EventId b_id) {
  if (a_at != b_at) return a_at < b_at;
  return a_id < b_id;
}

// ---- Queue implementation selection -------------------------------------

/// True when the reference binary heap should back new EventQueues.
/// Reads HVC_REFERENCE_QUEUE once (any value but "" / "0" enables it);
/// the test setters below override the environment. Sampled at
/// EventQueue construction, so flipping it between runs is safe.
[[nodiscard]] bool reference_queue_enabled();
/// Force the next EventQueues onto the reference heap (true) or the
/// calendar queue (false), overriding the environment.
void set_reference_queue_for_test(bool use_reference);
/// Drop the test override and fall back to the environment variable.
void clear_reference_queue_override_for_test();

// ---- Reference implementation -------------------------------------------

/// The original binary-heap event queue. O(log n) push/pop, zero tuning
/// state — the trusted oracle the calendar queue is differential-tested
/// against, selected via HVC_REFERENCE_QUEUE.
class DebugHeapQueue {
 public:
  void enqueue(Time at, EventId id, EventFn&& fn) {
    // Reference-oracle implementation; the heap vector's capacity amortizes and is recycled across pushes
    heap_.emplace_back(at, id, std::move(fn));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Earliest entry or nullptr; valid until the next push/pop. The
  /// caller may move the entry's fn out right before drop_front().
  [[nodiscard]] EventEntry* peek() {
    return heap_.empty() ? nullptr : heap_.data();
  }

  /// Discard the earliest entry (its fn may have been moved out via
  /// peek() first). Precondition: peek() != null.
  void drop_front() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }

  [[nodiscard]] std::size_t entries() const { return heap_.size(); }

 private:
  static bool later(const EventEntry& a, const EventEntry& b) {
    return event_before(b.at, b.id, a.at, a.id);
  }
  std::vector<EventEntry> heap_;
};

// ---- Calendar queue ------------------------------------------------------

/// Bucketed time wheel with overflow heap. See the file comment for the
/// shape; the invariants that make it pop in exact (at, id) order:
///
///  I1. Every ring entry's tick is in [base_tick_, base_tick_ + nbuckets):
///      each slot therefore holds entries of exactly one tick, so slot
///      order is tick order and a per-bucket sort restores total order.
///  I2. base_tick_ never decreases and never passes an undrained tick:
///      before every advance the overflow heap is migrated into the ring
///      up to the horizon, so the bitmap scan always finds the true
///      minimum.
///  I3. While a bucket drains, same-tick pushes insert sorted after the
///      drain cursor (zero-delay self-pushes pop in id order), and the
///      drained tick equals base_tick_, so no in-horizon push can collide
///      with the draining slot from a later tick.
///
/// Retuning (bucket width / ring size) happens only between drains, where
/// rebuilding the wheel cannot reorder a partially-consumed bucket.
class CalendarQueue {
 public:
  CalendarQueue() { reset_geometry(kInitialShift, kInitialBuckets); }

  void enqueue(Time at, EventId id, EventFn&& fn) {
    ++entries_;
    const std::uint64_t tick = tick_of(at);
    // At or before the tick being drained (<: a raw-EventQueue user
    // pushed into the past) — sorted insert after the drain cursor, so
    // it still pops in exact (at, id) order.
    if (drain_active_ && tick <= drain_tick_) {
      push_into_drain(at, id, std::move(fn));
      return;
    }
    if (tick < base_tick_ + buckets_.size()) {
      const std::size_t slot = static_cast<std::size_t>(tick) & mask_;
      // Bucket vectors keep their capacity across drains — after warm-up this emplace writes into pooled storage
      buckets_[slot].emplace_back(at, id, std::move(fn));
      occupied_[slot >> 6] |= 1ull << (slot & 63);
      ++ring_count_;
      return;
    }
    // The overflow heap's capacity amortizes; entries beyond the ring horizon are rare by construction
    overflow_.emplace_back(at, id, std::move(fn));
    std::push_heap(overflow_.begin(), overflow_.end(), heap_later);
  }

  /// Earliest entry or nullptr; valid until the next push/pop. The
  /// caller may move the entry's fn out right before drop_front().
  [[nodiscard]] EventEntry* peek() {
    for (;;) {
      if (drain_active_) {
        std::vector<EventEntry>& b = buckets_[drain_slot_];
        if (drain_idx_ < b.size()) return &b[drain_idx_];
      }
      if (entries_ == 0) return nullptr;
      advance();
    }
  }

  /// Discard the earliest entry (its fn may have been moved out via
  /// peek() first). Precondition: peek() != null.
  void drop_front() {
    std::vector<EventEntry>& b = buckets_[drain_slot_];
    last_pop_at_ = b[drain_idx_].at;
    ++drain_idx_;
    if (drain_idx_ == b.size()) {
      b.clear();
      drain_idx_ = 0;
    }
    --entries_;
    ++pops_;
  }

  [[nodiscard]] std::size_t entries() const { return entries_; }

  // Geometry introspection for tests (tick width in ns).
  [[nodiscard]] std::int64_t tick_width() const {
    return std::int64_t{1} << shift_;
  }

 private:
  static constexpr int kInitialShift = 13;  // 8.192 us ticks
  static constexpr std::size_t kInitialBuckets = 256;
  static constexpr std::size_t kMinBuckets = 64;  // one bitmap word
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
  static constexpr int kMaxShift = 40;  // ~18 minutes of sim time per tick
  static constexpr std::uint64_t kRetuneWindow = 4096;  // pops per check

  static bool heap_later(const EventEntry& a, const EventEntry& b) {
    return event_before(b.at, b.id, a.at, a.id);
  }
  static bool entry_before(const EventEntry& a, const EventEntry& b) {
    return event_before(a.at, a.id, b.at, b.id);
  }

  [[nodiscard]] std::uint64_t tick_of(Time at) const {
    return static_cast<std::uint64_t>(at) >> shift_;
  }

  void push_into_drain(Time at, EventId id, EventFn&& fn) {
    std::vector<EventEntry>& b = buckets_[drain_slot_];
    // Sorted insert after the drain cursor: cheap because a same-tick
    // push during drain is almost always a zero-delay self-push landing
    // at the end of a short remainder.
    const auto pos = std::lower_bound(
        b.begin() + static_cast<std::ptrdiff_t>(drain_idx_), b.end(), id,
        [at](const EventEntry& e, EventId probe_id) {
          return event_before(e.at, e.id, at, probe_id);
        });
    b.emplace(pos, at, id, std::move(fn));
  }

  /// Pick the next non-empty tick, sort its bucket, and start draining
  /// it. Precondition: entries_ > 0 and the current drain is exhausted.
  void advance() {
    if (pops_ >= kRetuneWindow) {
      maybe_retune();
      // A rebuild re-homes entries into a fresh drain bucket; if it got
      // any, the peek loop must consume them before scanning onward.
      if (drain_active_ && drain_idx_ < buckets_[drain_slot_].size()) {
        return;
      }
    }
    if (ring_count_ == 0) {
      // Jump the wheel to the overflow minimum: nothing in between.
      base_tick_ = tick_of(overflow_.front().at);
    }
    migrate_overflow();
    const std::size_t base_slot = static_cast<std::size_t>(base_tick_) &
                                  mask_;
    const std::size_t slot = next_occupied_slot(base_slot);
    const std::size_t dist = (slot - base_slot + buckets_.size()) & mask_;
    const std::uint64_t tick = base_tick_ + dist;
    scan_ticks_ += dist;
    base_tick_ = tick;
    drain_tick_ = tick;
    drain_slot_ = slot;
    drain_idx_ = 0;
    drain_active_ = true;
    occupied_[slot >> 6] &= ~(1ull << (slot & 63));
    std::vector<EventEntry>& b = buckets_[slot];
    ring_count_ -= b.size();
    drained_items_ += b.size();
    ++drained_buckets_;
    if (b.size() > 1) std::sort(b.begin(), b.end(), entry_before);
  }

  /// Move overflow entries whose tick entered the ring horizon into
  /// their slots. Runs before every base advance (invariant I2).
  void migrate_overflow() {
    const std::uint64_t horizon = base_tick_ + buckets_.size();
    while (!overflow_.empty() && tick_of(overflow_.front().at) < horizon) {
      std::pop_heap(overflow_.begin(), overflow_.end(), heap_later);
      EventEntry e = std::move(overflow_.back());
      overflow_.pop_back();
      const std::size_t slot =
          static_cast<std::size_t>(tick_of(e.at)) & mask_;
      buckets_[slot].push_back(std::move(e));
      occupied_[slot >> 6] |= 1ull << (slot & 63);
      ++ring_count_;
    }
  }

  /// First occupied slot at or after `from` (wrapping). Precondition:
  /// ring_count_ > 0.
  [[nodiscard]] std::size_t next_occupied_slot(std::size_t from) const {
    const std::size_t words = occupied_.size();
    std::size_t w = from >> 6;
    std::uint64_t bits = occupied_[w] & (~0ull << (from & 63));
    while (bits == 0) {
      w = (w + 1) & (words - 1);
      bits = occupied_[w];
    }
    return (w << 6) | static_cast<std::size_t>(
                          __builtin_ctzll(bits));
  }

  /// Deterministic self-tuning, checked every kRetuneWindow pops at a
  /// drain boundary: widen ticks when the scan mostly walks empty slots,
  /// narrow them when buckets grow big enough that sorting dominates,
  /// and grow the ring when the overflow heap keeps filling.
  void maybe_retune() {
    const std::uint64_t pops = pops_;
    const std::uint64_t scans = scan_ticks_;
    const std::uint64_t buckets_drained =
        drained_buckets_ == 0 ? 1 : drained_buckets_;
    const std::uint64_t avg_bucket = drained_items_ / buckets_drained;
    pops_ = 0;
    scan_ticks_ = 0;
    drained_buckets_ = 0;
    drained_items_ = 0;
    int new_shift = shift_;
    std::size_t new_buckets = buckets_.size();
    if (overflow_.size() > buckets_.size() &&
        new_buckets < kMaxBuckets) {
      new_buckets *= 2;
    }
    if (scans > pops * 4 && new_shift < kMaxShift) {
      new_shift += 2;  // mostly empty slots: widen ticks
    } else if (avg_bucket > 24 && scans < pops && new_shift > 2) {
      new_shift -= 1;  // crowded buckets: narrow ticks
    }
    if (new_shift != shift_ || new_buckets != buckets_.size()) {
      rebuild(new_shift, new_buckets);
    }
  }

  /// Re-home every pending entry under a new geometry. Only called
  /// between drains, so relative order is fully restored by the
  /// per-bucket sort at the next drain start.
  void rebuild(int new_shift, std::size_t new_buckets) {
    std::vector<EventEntry> pending;
    pending.reserve(entries_);
    for (std::vector<EventEntry>& b : buckets_) {
      for (EventEntry& e : b) pending.push_back(std::move(e));
      b.clear();
    }
    for (EventEntry& e : overflow_) pending.push_back(std::move(e));
    overflow_.clear();
    reset_geometry(new_shift, new_buckets);
    // The wheel restarts at the last popped instant: every pending entry
    // is at or after it, so the ring invariant I1 holds immediately. The
    // restart tick becomes the active drain bucket (its occupancy bit
    // stays clear) so entries landing on the current instant — and any
    // future past-pushes — drain first, in sorted order.
    base_tick_ = tick_of(last_pop_at_);
    drain_tick_ = base_tick_;
    drain_slot_ = static_cast<std::size_t>(base_tick_) & mask_;
    drain_idx_ = 0;
    drain_active_ = true;
    const std::size_t count = pending.size();
    for (EventEntry& e : pending) {
      const std::uint64_t tick = tick_of(e.at);
      if (tick <= drain_tick_) {
        buckets_[drain_slot_].push_back(std::move(e));
      } else if (tick < base_tick_ + buckets_.size()) {
        const std::size_t slot = static_cast<std::size_t>(tick) & mask_;
        buckets_[slot].push_back(std::move(e));
        occupied_[slot >> 6] |= 1ull << (slot & 63);
        ++ring_count_;
      } else {
        overflow_.push_back(std::move(e));
      }
    }
    std::vector<EventEntry>& drain = buckets_[drain_slot_];
    if (drain.size() > 1) std::sort(drain.begin(), drain.end(), entry_before);
    std::make_heap(overflow_.begin(), overflow_.end(), heap_later);
    entries_ = count;
  }

  void reset_geometry(int shift, std::size_t nbuckets) {
    shift_ = shift;
    mask_ = nbuckets - 1;
    buckets_.clear();
    buckets_.resize(nbuckets);
    occupied_.assign(nbuckets / 64, 0);
    ring_count_ = 0;
    entries_ = 0;
    drain_active_ = false;
    drain_idx_ = 0;
    drain_slot_ = 0;
  }

  std::vector<std::vector<EventEntry>> buckets_;
  std::vector<std::uint64_t> occupied_;  ///< one bit per slot
  std::vector<EventEntry> overflow_;     ///< min-heap by (at, id)
  std::uint64_t base_tick_ = 0;
  std::uint64_t drain_tick_ = 0;
  std::size_t drain_slot_ = 0;
  std::size_t drain_idx_ = 0;
  std::size_t mask_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t entries_ = 0;
  int shift_ = kInitialShift;
  bool drain_active_ = false;
  Time last_pop_at_ = 0;
  // Retune accounting (reset every window).
  std::uint64_t pops_ = 0;
  std::uint64_t scan_ticks_ = 0;
  std::uint64_t drained_buckets_ = 0;
  std::uint64_t drained_items_ = 0;
};

// ---- Facade --------------------------------------------------------------

/// The event queue the Simulator schedules through. Owns the id counter
/// and the retired set (ids that name no pending event: fired, cancelled,
/// or reserved and not filed yet; cancellation is
/// implementation-independent) and delegates storage to the calendar
/// queue or, under HVC_REFERENCE_QUEUE, the original binary heap.
///
/// A one-slot front cache sits above the storage impl: a push lands in
/// the cache when it is free, and every front/pop takes the (at, id)-min
/// of {cache, impl}. The min over that partition is the global min, so
/// the pop sequence is exactly the impl's alone — the cache is a pure
/// fast path for the ubiquitous push-one-pop-one chain (timers, pacing,
/// self-rescheduling events), which never touches the wheel or the heap.
class EventQueue {
 public:
  EventQueue() : use_reference_(reference_queue_enabled()) {}

  EventId push(Time at, EventFn&& fn) {
    HVC_PROF_SCOPE(obs::prof::Hook::kEventPush);
    const EventId id = next_id_++;
    retired_.push_back(false);
    file(at, id, std::move(fn));
    return id;
  }

  /// Take the id a push made now would get, without filing anything
  /// under it: the id names no pending event (cancelling it is a no-op)
  /// until refile() files one. sim::Timer defers a re-arm this way.
  EventId reserve() {
    retired_.push_back(true);
    return next_id_++;
  }

  /// File `fn` under `(at, id)`, where `id` came from reserve() and has
  /// not been filed yet: it pops exactly where a push made at reserve()
  /// time would have.
  void refile(Time at, EventId id, EventFn&& fn) {
    HVC_PROF_SCOPE(obs::prof::Hook::kEventPush);
    retired_[id] = false;
    file(at, id, std::move(fn));
  }

  /// Cancel a pending event. O(1): the entry is tombstoned and skipped when
  /// popped. An id that has fired, was cancelled already or was never
  /// issued names no pending event, so cancelling it is a no-op.
  void cancel(EventId id) {
    if (id >= retired_.size() || retired_[id]) return;
    retired_[id] = true;
    --live_;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// An event taken off the queue by pop_due().
  struct Popped {
    Time at;
    EventFn fn;
  };

  /// Pop the earliest event if it is due at or before `deadline` in a
  /// single front-to-pop pass. Returns false (leaving `out` untouched)
  /// when the queue is drained or the next event is later than the
  /// deadline.
  bool pop_due(Time deadline, Popped& out) {
    Time at{};
    EventFn* fn = front(at);  // also discards leading tombstones
    if (fn == nullptr || at > deadline) return false;
    HVC_PROF_SCOPE(obs::prof::Hook::kEventPop);
    out.at = at;
    out.fn = std::move(*fn);
    retired_[front_id_] = true;
    drop();
    --live_;
    return true;
  }

 private:
  void file(Time at, EventId id, EventFn&& fn) {
    ++live_;
    if (!cache_full_) {
      cache_at_ = at;
      cache_id_ = id;
      cache_fn_ = std::move(fn);
      cache_full_ = true;
      return;
    }
    if (use_reference_) {
      heap_.enqueue(at, id, std::move(fn));
    } else {
      calendar_.enqueue(at, id, std::move(fn));
    }
  }

  /// Earliest live entry's fn (tombstones discarded on the way), with
  /// its time in `at_out`; nullptr when drained. Sets front_is_cache_
  /// for the matching drop().
  EventFn* front(Time& at_out) {
    for (;;) {
      EventEntry* e = use_reference_ ? heap_.peek() : calendar_.peek();
      bool take_cache;
      if (!cache_full_) {
        if (e == nullptr) return nullptr;
        take_cache = false;
      } else if (e == nullptr) {
        take_cache = true;
      } else {
        take_cache = event_before(cache_at_, cache_id_, e->at, e->id);
      }
      if (take_cache) {
        if (retired_[cache_id_]) {
          cache_fn_.reset();
          cache_full_ = false;
          continue;
        }
        front_is_cache_ = true;
        front_id_ = cache_id_;
        at_out = cache_at_;
        return &cache_fn_;
      }
      if (retired_[e->id]) {
        drop_impl();  // tombstone: destroy in place
        continue;
      }
      front_is_cache_ = false;
      front_id_ = e->id;
      at_out = e->at;
      return &e->fn;
    }
  }
  /// Drop whichever entry the last front() returned.
  void drop() {
    if (front_is_cache_) {
      cache_fn_.reset();
      cache_full_ = false;
    } else {
      drop_impl();
    }
  }
  void drop_impl() {
    if (use_reference_) {
      heap_.drop_front();
    } else {
      calendar_.drop_front();
    }
  }

  DebugHeapQueue heap_;
  CalendarQueue calendar_;
  std::vector<bool> retired_;  ///< one per issued id: names nothing pending
  EventId next_id_ = 0;
  std::size_t live_ = 0;
  // One-slot front cache (see class comment).
  Time cache_at_ = 0;
  EventId cache_id_ = 0;
  EventFn cache_fn_;
  bool cache_full_ = false;
  bool front_is_cache_ = false;
  EventId front_id_ = 0;  ///< the id of what the last front() returned
  bool use_reference_;
};

}  // namespace hvc::sim
