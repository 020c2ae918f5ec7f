// The discrete-event simulation kernel.
//
// Single-threaded and deterministic: given the same schedule of callbacks
// and the same RNG seeds, a run is bit-for-bit reproducible. All other
// modules (channels, transports, applications) are written against this
// clock and never read wall-clock time.
#pragma once

#include <cassert>
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
  /// Returns the number of events executed.
  std::size_t run_until(Time deadline) {
    std::size_t executed = 0;
    EventQueue::Popped ev;
    while (queue_.pop_due(deadline, ev)) {
      now_ = ev.at;
      ev.fn();
      ++executed;
    }
    if (deadline != kTimeNever && now_ < deadline) now_ = deadline;
    return executed;
  }

  /// Run until the queue drains completely.
  std::size_t run() { return run_until(kTimeNever); }

  /// Run for a span of simulated time from now.
  std::size_t run_for(Duration span) { return run_until(now_ + span); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  Time now_ = kTimeZero;
};

/// A cancellable, re-armable one-shot timer bound to a Simulator.
///
/// Owns its pending event: rearming cancels the previous one, destruction
/// cancels any pending fire. Components hold Timers by value for RTOs,
/// pacing releases, decode deadlines, etc.
class Timer {
 public:
  explicit Timer(Simulator& sim, std::function<void()> fn)
      : sim_(&sim), fn_(std::move(fn)) {}

  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to fire `delay` from now.
  void arm(Duration delay) {
    cancel();
    deadline_ = sim_->now() + (delay < 0 ? 0 : delay);
    armed_ = true;
    id_ = sim_->after(delay, [this] {
      armed_ = false;
      fn_();
    });
  }

  /// (Re)arm to fire at absolute time `when`.
  void arm_at(Time when) {
    cancel();
    deadline_ = when;
    armed_ = true;
    id_ = sim_->at(when, [this] {
      armed_ = false;
      fn_();
    });
  }

  void cancel() {
    if (armed_) {
      sim_->cancel(id_);
      armed_ = false;
    }
  }

  [[nodiscard]] bool armed() const { return armed_; }
  /// Absolute fire time of the currently armed timer (valid while armed()).
  [[nodiscard]] Time deadline() const { return deadline_; }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  EventId id_ = 0;
  Time deadline_ = kTimeNever;
  bool armed_ = false;
};

}  // namespace hvc::sim
