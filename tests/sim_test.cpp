// Unit tests for the simulation kernel: event ordering, timers, RNG
// determinism, and the statistics toolkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace hvc::sim {
namespace {

TEST(Units, TransmissionTimeRoundsUp) {
  // 1500 bytes at 12 Mbps = exactly 1 ms.
  EXPECT_EQ(transmission_time(1500, mbps(12)), milliseconds(1));
  // One byte at 1 Gbps = 8 ns.
  EXPECT_EQ(transmission_time(1, gbps(1)), 8);
  // Never zero for a non-empty packet.
  EXPECT_GT(transmission_time(1, gbps(100)), 0);
}

TEST(Units, BytesInInvertsTransmissionTime) {
  const RateBps rate = mbps(60);
  const Duration d = seconds(2);
  const std::int64_t bytes = bytes_in(d, rate);
  EXPECT_EQ(bytes, 15'000'000);  // 60 Mbps * 2 s = 120 Mbit = 15 MB
}

TEST(Units, ZeroAndNegativeGuards) {
  EXPECT_EQ(transmission_time(1500, 0), kTimeNever);
  EXPECT_EQ(bytes_in(-5, mbps(1)), 0);
  EXPECT_EQ(bytes_in(seconds(1), 0), 0);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(milliseconds(30), [&] { order.push_back(3); });
  s.at(milliseconds(10), [&] { order.push_back(1); });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int fired = 0;
  s.at(milliseconds(1), [&] {
    s.after(milliseconds(1), [&] {
      ++fired;
      s.after(milliseconds(1), [&] { ++fired; });
    });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(20), [&] { ++fired; });
  s.run_until(milliseconds(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(15));
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.at(milliseconds(15), [&] { ++fired; });
  s.run_until(milliseconds(15));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  const EventId id = s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(20), [&] { ++fired; });
  s.cancel(id);
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancellingAFiredOrUnissuedIdIsANoOp) {
  // The first push lands in the queue's front cache, the later ones in
  // the calendar: fire one of each, then cancel both fired ids and an id
  // the queue never issued.
  Simulator s;
  int fired = 0;
  const EventId first = s.at(milliseconds(1), [&] { ++fired; });
  const EventId second = s.at(milliseconds(2), [&] { ++fired; });
  s.at(milliseconds(3), [&] { ++fired; });
  s.run_until(milliseconds(2));
  ASSERT_EQ(fired, 2);
  s.cancel(first);
  s.cancel(second);
  s.cancel(~EventId{0});
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(s.idle());

  EventQueue q;
  const EventId a = q.push(milliseconds(1), EventFn([] {}));
  q.push(milliseconds(2), EventFn([] {}));
  EventQueue::Popped out;
  ASSERT_TRUE(q.pop_due(milliseconds(1), out));
  q.cancel(a);
  q.cancel(a + 5);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.at(milliseconds(10), [] {});
  s.run();
  EXPECT_THROW(s.at(milliseconds(5), [] {}), std::logic_error);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.at(milliseconds(10), [&] {
    s.after(-milliseconds(5), [] {});  // must not throw
  });
  EXPECT_NO_THROW(s.run());
}

TEST(Timer, RearmCancelsPrevious) {
  Simulator s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.arm(milliseconds(10));
  t.arm(milliseconds(30));  // supersedes the first arm
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 0);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelWorks) {
  Simulator s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.arm(milliseconds(10));
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, DestructionCancelsPendingFire) {
  Simulator s;
  int fired = 0;
  {
    Timer t(s, [&] { ++fired; });
    t.arm(milliseconds(5));
  }
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, PastArmAtThrowsAndKeepsThePreviousArm) {
  Simulator s;
  std::vector<Time> fired;
  Timer t(s, [&] { fired.push_back(s.now()); });
  s.at(milliseconds(10), [&] {
    t.arm(milliseconds(5));
    EXPECT_THROW(t.arm_at(milliseconds(9)), std::logic_error);
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(t.deadline(), milliseconds(15));
  });
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{milliseconds(15)}));
}

// ---- Deferred Timer against the eager one it replaced --------------------
//
// EagerTimer is Timer as it was before re-arms were deferred: every arm
// cancels the pending event and pushes a new one. Its one change is that
// a past arm_at throws before cancelling, so the previous arm stays
// pending, as Timer's does. Seeded schedules drive both through the same
// actions, and the fire sequence, each slice's run_until return and
// idle() must agree on both queue backends.

class EagerTimer {
 public:
  EagerTimer(Simulator& sim, std::function<void()> fn)
      : sim_(&sim), fn_(std::move(fn)) {}
  ~EagerTimer() { cancel(); }
  EagerTimer(const EagerTimer&) = delete;
  EagerTimer& operator=(const EagerTimer&) = delete;

  void arm(Duration delay) {
    cancel();
    deadline_ = sim_->now() + (delay < 0 ? 0 : delay);
    armed_ = true;
    id_ = sim_->after(delay, [this] {
      armed_ = false;
      fn_();
    });
  }
  void arm_at(Time when) {
    if (when < sim_->now()) {
      throw std::logic_error("EagerTimer::arm_at: scheduling in the past");
    }
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
  [[nodiscard]] Time deadline() const { return deadline_; }

 private:
  Simulator* sim_;
  std::function<void()> fn_;
  EventId id_ = 0;
  Time deadline_ = kTimeNever;
  bool armed_ = false;
};

/// Timers and plain events on a 1 ms grid, so many land on one instant;
/// every action and fire is logged.
template <class TimerT>
class TimerWorld {
 public:
  static constexpr int kTimers = 10;
  static constexpr Duration kGrid = milliseconds(1);

  TimerWorld(std::uint64_t seed, bool reference_queue) : rng_(seed) {
    set_reference_queue_for_test(reference_queue);
    sim_ = std::make_unique<Simulator>();
    clear_reference_queue_override_for_test();
    for (int i = 0; i < kTimers; ++i) make_timer(i);
  }
  // Timer callbacks hold `this`.
  TimerWorld(const TimerWorld&) = delete;
  TimerWorld& operator=(const TimerWorld&) = delete;

  /// Slices of random top-level actions and run_until, then a full run.
  std::vector<std::string> play() {
    for (int slice = 0; slice < 400; ++slice) {
      for (int a = 0; a < 4; ++a) act(-1);
      // Slice ends on and off the grid.
      const Time until = sim_->now() + rng_.uniform_int(0, 6) * kGrid +
                         (slice % 3 == 0 ? kGrid / 2 : 0);
      const std::size_t ran = sim_->run_until(until);
      log("slice " + std::to_string(slice) + " ran " + std::to_string(ran) +
          (sim_->idle() ? " idle" : " busy"));
    }
    budget_ = 0;  // callbacks stop acting, so the queue drains
    const std::size_t ran = sim_->run();
    log("drain ran " + std::to_string(ran) +
        (sim_->idle() ? " idle" : " busy"));
    return std::move(log_);
  }

 private:
  void make_timer(int i) {
    timers_[i] = std::make_unique<TimerT>(*sim_, [this, i] {
      log("fire T" + std::to_string(i));
      // Arms and cancels from inside a timer's own callback.
      if (budget_ > 0 && rng_.chance(0.6)) act(i);
    });
  }

  void log(const std::string& what) {
    log_.push_back(std::to_string(sim_->now()) + " " + what);
  }

  void note(int i, const char* what) {
    TimerT& t = *timers_[i];
    log(std::string(what) + " T" + std::to_string(i) +
        (t.armed() ? " armed " + std::to_string(t.deadline()) : " idle"));
  }

  /// One random action; `self` is the timer whose callback is running.
  void act(int self) {
    if (budget_ <= 0) return;
    --budget_;
    int i = static_cast<int>(rng_.uniform_int(0, kTimers - 1));
    if (self >= 0 && rng_.chance(0.4)) i = self;
    TimerT& t = *timers_[i];
    const Time now = sim_->now();
    switch (rng_.uniform_int(0, 9)) {
      case 0:
      case 1:  // a delay on the grid, zero included
        t.arm(rng_.uniform_int(0, 6) * kGrid);
        note(i, "arm");
        break;
      case 2:
      case 3: {  // later than, equal to or earlier than the deadline
        const Time base = t.armed() ? t.deadline() : now;
        const Time when = base + rng_.uniform_int(-3, 3) * kGrid;
        t.arm_at(std::max(when, now));
        note(i, "arm_at");
        break;
      }
      case 4:  // zero delay
        t.arm(0);
        note(i, "arm0");
        break;
      case 5:  // in the past: throws, the previous arm stays pending
        if (now > 0) {
          const Time past = now - rng_.uniform_int(1, 2 * kGrid);
          try {
            t.arm_at(past);
            log("no throw");
          } catch (const std::logic_error&) {
            note(i, "past");
          }
        }
        break;
      case 6:
        t.cancel();
        note(i, "cancel");
        break;
      case 7:  // destroyed while (maybe) armed; never from its own fire
        if (i != self) {
          make_timer(i);
          note(i, "fresh");
        }
        break;
      default: {  // a plain event on the same instants, acting when run
        const int k = plain_++;
        sim_->at(now + rng_.uniform_int(0, 6) * kGrid, [this, k] {
          log("plain " + std::to_string(k));
          act(-1);
        });
        break;
      }
    }
  }

  Rng rng_;
  std::unique_ptr<Simulator> sim_;
  std::array<std::unique_ptr<TimerT>, kTimers> timers_;
  std::vector<std::string> log_;
  int budget_ = 8000;
  int plain_ = 0;
};

/// Index of the first differing entry, or -1.
std::ptrdiff_t first_difference(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<std::ptrdiff_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<std::ptrdiff_t>(n);
}

TEST(TimerModel, DeferredRearmFiresAsTheEagerTimerDid) {
  for (const bool reference : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed
                                        << (reference ? " heap" : " calendar"));
      const auto deferred = TimerWorld<Timer>(seed, reference).play();
      const auto eager = TimerWorld<EagerTimer>(seed, reference).play();
      const std::ptrdiff_t at = first_difference(deferred, eager);
      if (at >= 0) {
        const auto show = [at](const std::vector<std::string>& v) {
          return static_cast<std::size_t>(at) < v.size()
                     ? v[static_cast<std::size_t>(at)]
                     : std::string("<end>");
        };
        ADD_FAILURE() << "entry " << at << ": deferred \"" << show(deferred)
                      << "\" vs eager \"" << show(eager) << "\"";
      }
      EXPECT_GT(deferred.size(), 3000u);
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(11);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(40.0));
  EXPECT_NEAR(s.mean(), 40.0, 1.5);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  // Consuming the child must not perturb the parent's future values.
  Rng parent2(5);
  (void)parent2.fork();
  for (int i = 0; i < 100; ++i) (void)child.next_u64();
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());
}

TEST(Summary, PercentilesExact) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.011);
}

TEST(Summary, MeanMinMaxStddev) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(Summary, StddevIsNumericallyStableForLargeMeans) {
  // The naive sum-of-squares formula catastrophically cancels when the
  // mean dwarfs the spread (timestamps in ns, say): E[x^2] - E[x]^2
  // computes 1e18-ish minus 1e18-ish. The two-pass form must not.
  Summary s;
  const double base = 1e9;
  for (double v : {base - 1.0, base, base + 1.0}) s.add(v);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-9);

  Summary tight;
  for (int i = 0; i < 1000; ++i) tight.add(7.25e12);
  EXPECT_DOUBLE_EQ(tight.stddev(), 0.0);  // never NaN from sqrt(negative)
}

TEST(Summary, EmptySummaryIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(WindowedFilters, MinTracksWindow) {
  WindowedMin f(milliseconds(100));
  f.update(milliseconds(0), 10.0);
  f.update(milliseconds(50), 20.0);
  EXPECT_DOUBLE_EQ(f.get(), 10.0);
  // The 10.0 sample ages out of the window.
  f.update(milliseconds(150), 30.0);
  EXPECT_DOUBLE_EQ(f.get(), 20.0);
  f.update(milliseconds(250), 40.0);
  EXPECT_DOUBLE_EQ(f.get(), 30.0);  // the 150 ms sample is still in window
}

TEST(WindowedFilters, MaxTracksWindow) {
  WindowedMax f(milliseconds(100));
  f.update(milliseconds(0), 100.0);
  f.update(milliseconds(50), 50.0);
  EXPECT_DOUBLE_EQ(f.get(), 100.0);
  f.update(milliseconds(150), 10.0);
  EXPECT_DOUBLE_EQ(f.get(), 50.0);
}

// BBR and HVC-CC key WindowedMax by round count. It must agree exactly
// with the model it replaced: a vector of (round, rate) samples, appended
// per push and erase_if-compacted to round >= latest - window on that push
// only. The walk covers non-decreasing rounds with repeats and jumps past
// the window, equal rates (a small rate alphabet), reads between pushes
// (after the round moved on, stale samples must survive until the next
// push) and reset().
TEST(WindowedFilters, RoundKeyedMaxMatchesVectorModel) {
  struct Sample {
    std::int64_t round;
    double bps;
  };
  constexpr std::int64_t kWindow = 10;
  WindowedMax filter(kWindow);
  std::vector<Sample> model;
  const auto model_max = [&model] {
    double best = 0.0;
    for (const auto& s : model) best = std::max(best, s.bps);
    return best;
  };

  Rng rng(0xf11e);
  std::int64_t round = 0;
  int pushes = 0;
  int resets = 0;
  for (int step = 0; step < 250'000; ++step) {
    // Rounds: mostly repeats and small steps, sometimes past the window.
    const double r = rng.uniform();
    if (r < 0.05) {
      round += rng.uniform_int(kWindow + 1, 3 * kWindow);
    } else if (r < 0.55) {
      round += rng.uniform_int(1, 3);
    }
    const double action = rng.uniform();
    if (action < 0.0005) {
      filter.reset();
      model.clear();
      ++resets;
    } else if (action < 0.8) {
      const double bps = rng.chance(0.8)
                             ? static_cast<double>(rng.uniform_int(1, 16)) * 1e6
                             : rng.uniform(1e5, 2e7);
      filter.update(round, bps);
      model.push_back({round, bps});
      std::erase_if(model, [&](const Sample& s) {
        return s.round < round - kWindow;
      });
      ++pushes;
    }  // else: a read only — the round moved on but nothing expires yet
    ASSERT_EQ(filter.get(), model_max()) << "step " << step;
    ASSERT_EQ(filter.empty(), model.empty()) << "step " << step;
  }
  EXPECT_GT(pushes, 100'000);
  EXPECT_GT(resets, 50);
}

TEST(WindowedFilters, NewExtremeReplacesImmediately) {
  WindowedMin f(seconds(10));
  f.update(seconds(1), 50.0);
  f.update(seconds(2), 5.0);
  EXPECT_DOUBLE_EQ(f.get(), 5.0);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.125);
  EXPECT_FALSE(e.initialized());
  e.update(80.0);
  EXPECT_DOUBLE_EQ(e.get(), 80.0);
  e.update(0.0);
  EXPECT_DOUBLE_EQ(e.get(), 70.0);
}

// ---- Calendar-queue edge cases ------------------------------------------
//
// The calendar queue must pop in exactly the (at, id) order the reference
// heap defines through every structural transition: a geometry rebuild
// mid-drain, far-future entries migrating out of the overflow heap, and
// same-instant pushes landing in a bucket that is already draining. Each
// test drives a raw CalendarQueue and DebugHeapQueue in lockstep so a
// divergence names the exact pop where order broke.

namespace {

class QueuePair {
 public:
  void push(Time at) {
    cal_.enqueue(at, id_, EventFn([] {}));
    heap_.enqueue(at, id_, EventFn([] {}));
    ++id_;
  }

  /// Pop one entry from both queues; returns false (after recording a
  /// failure) when they disagree.
  bool pop_and_compare(const char* phase) {
    EventEntry* c = cal_.peek();
    EventEntry* h = heap_.peek();
    if (c == nullptr || h == nullptr) {
      ADD_FAILURE() << phase << ": a queue drained early (pop " << pops_
                    << ")";
      return false;
    }
    const bool same = c->at == h->at && c->id == h->id;
    EXPECT_TRUE(same) << phase << ": pop " << pops_ << " calendar=("
                      << c->at << "," << c->id << ") heap=(" << h->at
                      << "," << h->id << ")";
    cal_.drop_front();
    heap_.drop_front();
    ++pops_;
    return same;
  }

  void drain_and_compare(const char* phase) {
    while (cal_.entries() > 0 || heap_.entries() > 0) {
      if (!pop_and_compare(phase)) return;
    }
  }

  [[nodiscard]] CalendarQueue& calendar() { return cal_; }
  [[nodiscard]] std::size_t pending() const { return cal_.entries(); }

 private:
  CalendarQueue cal_;
  DebugHeapQueue heap_;
  EventId id_ = 0;
  std::uint64_t pops_ = 0;
};

}  // namespace

TEST(CalendarQueue, SameTimestampFifoSurvivesBucketRebuild) {
  QueuePair q;
  const std::int64_t initial_width = q.calendar().tick_width();
  // Crowded buckets: 40 same-instant events per tick across 300 ticks
  // pushes the average drained bucket far past the narrow threshold, so
  // a rebuild (shift change) triggers mid-stream — with thousands of
  // same-timestamp groups still pending across it.
  const Time tick = initial_width;
  for (int t = 0; t < 300; ++t) {
    for (int k = 0; k < 40; ++k) q.push(t * tick + 5);
  }
  q.drain_and_compare("crowded");
  EXPECT_LT(q.calendar().tick_width(), initial_width)
      << "workload was built to trigger a narrowing retune";
}

TEST(CalendarQueue, WidensTicksOnSparseWorkloadsWithoutReordering) {
  QueuePair q;
  const std::int64_t initial_width = q.calendar().tick_width();
  // Sparse: one event per ~250 ticks, so the bitmap scan walks hundreds
  // of empty slots per pop and the retune widens the ticks.
  for (int i = 0; i < 6000; ++i) {
    q.push(static_cast<Time>(i) * 250 * initial_width + (i % 7));
  }
  q.drain_and_compare("sparse");
  EXPECT_GT(q.calendar().tick_width(), initial_width)
      << "workload was built to trigger a widening retune";
}

TEST(CalendarQueue, FarFutureEntriesMigrateFromOverflowInOrder) {
  QueuePair q;
  Rng r(7);
  // The initial ring spans ~2 ms; spread entries over 100 seconds so
  // nearly everything starts in the overflow heap and must migrate into
  // the ring as the wheel turns — interleaved with near-term entries.
  for (int i = 0; i < 4000; ++i) {
    q.push(static_cast<Time>(r.uniform(0, 100e9)));
  }
  for (int i = 0; i < 400; ++i) {
    q.push(static_cast<Time>(r.uniform(0, 2e6)));
  }
  q.drain_and_compare("far-future");
}

TEST(CalendarQueue, SameTickPushDuringDrainPopsInIdOrder) {
  QueuePair q;
  const Time at = 12345;  // all in one tick
  for (int i = 0; i < 10; ++i) q.push(at);
  // Start draining the bucket, then land more same-instant entries in
  // it: they must insert after the drain cursor, in id order.
  for (int i = 0; i < 3; ++i) q.pop_and_compare("pre-push");
  for (int i = 0; i < 5; ++i) q.push(at);
  // And a push into an *earlier* instant of the draining tick still
  // sorts correctly relative to the pending remainder.
  q.push(at - 1);
  q.drain_and_compare("drain-insert");
}

TEST(CalendarQueue, RandomizedDifferentialAgainstReferenceHeap) {
  QueuePair q;
  Rng r(99);
  Time watermark = 0;  // pops only move forward; pushes stay >= popped time
  for (int round = 0; round < 40000; ++round) {
    const double dice = r.uniform(0, 1);
    if (q.pending() == 0 || dice < 0.55) {
      // Mix of near, same-instant, and far-future pushes.
      const double kind = r.uniform(0, 1);
      Time at = watermark;
      if (kind < 0.3) {
        at += static_cast<Time>(r.uniform(0, 1e4));
      } else if (kind < 0.9) {
        at += static_cast<Time>(r.uniform(0, 1e7));
      } else {
        at += static_cast<Time>(r.uniform(0, 5e9));
      }
      q.push(at);
    } else {
      if (!q.pop_and_compare("randomized")) return;
    }
  }
  q.drain_and_compare("randomized-drain");
}

TEST(Simulator, ZeroDelaySelfPushRunsAfterAllSameInstantEvents) {
  Simulator s;
  std::vector<std::string> order;
  const Time t = milliseconds(1);
  // e0 schedules z0 at the current instant while the instant is still
  // draining; z0 chains z1 the same way. Both must run after e0..e4
  // (FIFO by schedule id), not jump the queue.
  s.at(t, [&] {
    order.push_back("e0");
    s.at(s.now(), [&] {
      order.push_back("z0");
      s.at(s.now(), [&] { order.push_back("z1"); });
    });
  });
  for (int i = 1; i < 5; ++i) {
    s.at(t, [&order, i] { order.push_back("e" + std::to_string(i)); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"e0", "e1", "e2", "e3", "e4",
                                             "z0", "z1"}));
  EXPECT_EQ(s.now(), t);
}

TEST(EventQueueStress, ManyRandomEventsStayOrdered) {
  Simulator s;
  Rng r(99);
  Time last = -1;
  bool ordered = true;
  for (int i = 0; i < 20000; ++i) {
    const Time at = r.uniform_int(0, 1'000'000'000);
    s.at(at, [&, at] {
      if (at < last) ordered = false;
      last = at;
    });
  }
  s.run();
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace hvc::sim
