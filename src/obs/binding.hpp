// The thread-local binding protocol behind every per-run recorder's
// static accessor: PacketTracer::active(), SteeringAuditLog::active(),
// TelemetrySampler::active(), SpanRecorder::active() and
// MetricsRegistry::current(). Each class owns exactly one slot.
//
// Each accessor reads one constant-initialized thread_local slot, so a hot
// path pays one TLS load to learn whether (and where) to record, and
// concurrent sweep runs on different threads never see each other. The
// protocol has four operations, and each is written once, here:
//
//   bind        enable() makes the instance the thread's binding.
//   unbind      disable() clears the slot, but only while it holds this
//               instance: disabling one recorder (say an earlier run's
//               at its teardown) must never unbind another that a run
//               scope installed.
//   destroy     an instance that dies while bound clears the slot, so a
//               binding can never dangle, even when a throwing run skips
//               disable().
//   scope       ScopedBinding installs an instance for a lexical scope
//               and restores the previous binding on exit. Scope first,
//               then enable(), binds until the scope ends: that is the
//               order exp::run_scenario (exp::RunIsolation) uses.
//
// A class opts in by deriving from ThreadBinding<Self, Slot>, and its
// Scoped* installer is a ScopedBinding<Self, Slot> alias. The two slot
// kinds differ only in what a scope installs:
//
//   ActiveSlot   the recorders' hot-path slot. A scope installs the
//                instance only if it is enabled; a disabled one masks any
//                outer binding (nullptr), which gives every sweep run a
//                clean slate.
//   CurrentSlot  the registry's cold-path slot (instrument lookups). A
//                scope installs the instance unconditionally;
//                MetricsRegistry::current() falls back to global() when
//                the slot is empty.
#pragma once

#include <type_traits>

namespace hvc::obs {

struct ActiveSlot {};
struct CurrentSlot {};

template <class T, class Slot>
class ScopedBinding;

/// CRTP base owning one thread-local slot for `T`. The slot stores a
/// pointer to this base, so the destructor compares it with `this`
/// without converting a partly destroyed `T`.
template <class T, class Slot = ActiveSlot>
class ThreadBinding {
 protected:
  ThreadBinding() = default;
  ~ThreadBinding() { unbind(); }
  ThreadBinding(const ThreadBinding&) = delete;
  ThreadBinding& operator=(const ThreadBinding&) = delete;

  /// The instance bound on the calling thread, or nullptr.
  [[nodiscard]] static T* bound() { return static_cast<T*>(slot_); }

  void bind() { slot_ = this; }
  void unbind() {
    if (slot_ == this) slot_ = nullptr;
  }

 private:
  friend class ScopedBinding<T, Slot>;

  static inline constinit thread_local ThreadBinding* slot_ = nullptr;
};

/// RAII install of `x` into the calling thread's `Slot` for `T`; restores
/// the previous binding on destruction. Nests.
template <class T, class Slot = ActiveSlot>
class ScopedBinding {
 public:
  explicit ScopedBinding(T& x) : prev_(Binding::slot_) {
    if constexpr (std::is_same_v<Slot, ActiveSlot>) {
      Binding::slot_ = x.enabled() ? &x : nullptr;
    } else {
      Binding::slot_ = &x;
    }
  }
  ~ScopedBinding() { Binding::slot_ = prev_; }
  ScopedBinding(const ScopedBinding&) = delete;
  ScopedBinding& operator=(const ScopedBinding&) = delete;

 private:
  using Binding = ThreadBinding<T, Slot>;
  Binding* prev_;
};

}  // namespace hvc::obs
