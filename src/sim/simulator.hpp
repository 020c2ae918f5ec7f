// The discrete-event simulation kernel.
//
// Single-threaded and deterministic: given the same schedule of callbacks
// and the same RNG seeds, a run is bit-for-bit reproducible. All other
// modules (channels, transports, applications) are written against this
// clock and never read wall-clock time.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/units.hpp"

namespace hvc::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). Accepts any
  /// void() callable; small captures are stored inline (see EventFn)
  /// instead of round-tripping through std::function's allocator.
  template <class F>
  EventId at(Time when, F&& fn) {
    if (when < now_) {
      throw std::logic_error("Simulator::at: scheduling in the past");
    }
    return queue_.push(when, EventFn(std::forward<F>(fn)));
  }

  /// Schedule `fn` to run `delay` from now.
  template <class F>
  EventId after(Duration delay, F&& fn) {
    return at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Cancel a pending event; a no-op for an id that has run, was
  /// cancelled already or was never issued (see EventQueue::cancel).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Run until the event queue drains or `deadline` is reached, whichever
  /// comes first. Events scheduled exactly at `deadline` still run.
  /// Returns the number of events executed; a Timer's early wake-up,
  /// which only re-files its entry, is not one.
  std::size_t run_until(Time deadline) {
    const std::uint64_t wakeups_before = wakeups_;
    std::size_t popped = 0;
    EventQueue::Popped ev;
    while (queue_.pop_due(deadline, ev)) {
      now_ = ev.at;
      ev.fn();
      ++popped;
    }
    if (deadline != kTimeNever && now_ < deadline) now_ = deadline;
    return popped - static_cast<std::size_t>(wakeups_ - wakeups_before);
  }

  /// Run until the queue drains completely.
  std::size_t run() { return run_until(kTimeNever); }

  /// Run for a span of simulated time from now.
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  friend class Timer;

  EventId reserve_id() { return queue_.reserve(); }
  /// A Timer's wake-up re-files its entry under a reserved id.
  template <class F>
  void refile(Time when, EventId id, F&& fn) {
    ++wakeups_;
    queue_.refile(when, id, EventFn(std::forward<F>(fn)));
  }

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t wakeups_ = 0;  ///< refile() calls, ever
};

/// A cancellable, re-armable one-shot timer bound to a Simulator.
///
/// It fires exactly when, and in the same order with every other event,
/// as a timer that cancels its pending event and pushes a new one on each
/// re-arm would, but it keeps at most one entry queued. A re-arm to a
/// deadline at or after the queued entry's takes the id that push would
/// have taken (EventQueue::reserve) and leaves the entry where it is;
/// when the entry surfaces first, it re-files itself under exactly that
/// (deadline, id), so an entry only ever moves later in (at, id) order.
/// A re-arm to an earlier deadline cancels the entry and files a new one.
/// Destruction cancels any pending fire (DESIGN.md §4.11). Components
/// hold Timers by value for RTOs, pacing releases, decode deadlines, etc.
class Timer {
 public:
  explicit Timer(Simulator& sim, std::function<void()> fn)
      : sim_(&sim), fn_(std::move(fn)) {}

  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` from now.
  void arm(Duration delay) { arm_at(sim_->now() + (delay < 0 ? 0 : delay)); }

  /// (Re)arm to fire at absolute time `when`. A `when` in the past
  /// throws and leaves the previous arm pending.
  void arm_at(Time when) {
    if (when < sim_->now()) {
      throw std::logic_error("Timer::arm_at: scheduling in the past");
    }
    deadline_ = when;
    if (armed_ && when >= queued_at_) {
      id_ = sim_->reserve_id();
      return;
    }
    cancel();
    armed_ = true;
    queued_at_ = when;
    queued_id_ = id_ = sim_->at(when, [this] { surface(); });
  }

  void cancel() {
    if (armed_) {
      sim_->cancel(queued_id_);
      armed_ = false;
    }
  }

  [[nodiscard]] bool armed() const { return armed_; }
  /// Absolute fire time of the currently armed timer (valid while armed()).
  [[nodiscard]] Time deadline() const { return deadline_; }

 private:
  /// The queued entry came due: fire, or, when a later re-arm reserved
  /// (deadline_, id_), wake up and re-file the entry there.
  void surface() {
    if (queued_id_ != id_) {
      queued_at_ = deadline_;
      queued_id_ = id_;
      sim_->refile(deadline_, id_, [this] { surface(); });
      return;
    }
    armed_ = false;
    fn_();
  }

  Simulator* sim_;
  std::function<void()> fn_;
  EventId id_ = 0;  ///< the timer fires at (deadline_, id_)
  Time deadline_ = kTimeNever;
  EventId queued_id_ = 0;  ///< its one queued entry is (queued_at_, queued_id_)
  Time queued_at_ = kTimeNever;
  bool armed_ = false;
};

}  // namespace hvc::sim
