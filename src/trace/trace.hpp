// Time-varying link capacity traces with Mahimahi semantics.
//
// A trace is a looping schedule of *delivery opportunities*: instants at
// which the link may transmit one MTU's worth of bytes. This is exactly the
// model used by Mahimahi [33] and by DChannel's trace replay — capacity
// variation (including outages) then produces queueing-delay variation
// naturally, which is the phenomenon that confuses delay-based CCAs
// (Fig. 1) and that priority steering routes around (Fig. 2).
//
// Storage is a list of *runs* of evenly spaced opportunities, never one
// entry per opportunity (DESIGN.md §4.13). Every builder maps onto runs
// exactly: a Markov step is one run, a constant-rate or TSN-window trace
// is one run, and an explicit list is one run per distinct instant. So a
// trace's memory and build time scale with its duration, not its rate,
// and the runs sit behind a shared immutable block: copying a trace (into
// a ChannelProfile, a Channel, a LinkConfig) costs a reference count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "sim/units.hpp"

namespace hvc::trace {

using sim::Duration;
using sim::RateBps;
using sim::Time;

/// Opportunity `j` of a run sits at `start + floor(span * j / slots)`, for
/// `j` in `[first, first + count)`. A trace's runs are sorted and every
/// opportunity of run i lies in [start_i, start_{i+1}], so the whole
/// sequence is nondecreasing.
struct OpportunityRun {
  Time start = 0;
  Duration span = 0;
  std::int64_t slots = 1;
  std::int64_t first = 0;
  std::int64_t count = 0;
  std::int64_t before = 0;  ///< opportunities in all earlier runs

  /// Time of opportunity `j` (any j >= 0, not only those in the run).
  [[nodiscard]] Time at(std::int64_t j) const;
  /// How many of the run's opportunities fall at or before `t`.
  [[nodiscard]] std::int64_t count_upto(Time t) const;
};

/// Forward iterator over the opportunities of one period, in order. It
/// steps inside a run with a quotient/remainder accumulator, so it never
/// divides per opportunity.
class OpportunityIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = Time;
  using difference_type = std::ptrdiff_t;
  using pointer = const Time*;
  using reference = Time;

  OpportunityIterator() = default;
  /// Positioned at index `j` of `*run` (or at `end` when run == end).
  OpportunityIterator(const OpportunityRun* run, const OpportunityRun* end,
                      std::int64_t j);

  [[nodiscard]] Time operator*() const { return at_; }
  OpportunityIterator& operator++() {
    if (++j_ < j_end_) {
      at_ += dq_;
      rem_ += dr_;
      if (rem_ >= slots_) {
        rem_ -= slots_;
        ++at_;
      }
    } else {
      enter(run_ + 1, (run_ + 1) == end_ ? 0 : run_[1].first);
    }
    return *this;
  }
  OpportunityIterator operator++(int) {
    OpportunityIterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const OpportunityIterator& a,
                         const OpportunityIterator& b) {
    return a.run_ == b.run_ && (a.run_ == a.end_ || a.j_ == b.j_);
  }

 private:
  friend class OpportunityCursor;
  void enter(const OpportunityRun* run, std::int64_t j);

  const OpportunityRun* run_ = nullptr;
  const OpportunityRun* end_ = nullptr;
  std::int64_t j_ = 0;
  std::int64_t j_end_ = 0;
  Time at_ = 0;            ///< time of opportunity j_ (within the period)
  Duration dq_ = 0;        ///< span / slots of the current run
  std::int64_t dr_ = 0;    ///< span % slots
  std::int64_t rem_ = 0;   ///< (span * j_) % slots
  std::int64_t slots_ = 1;
};

/// Read-only, indexable view of one period's opportunities, computed from
/// the runs; nothing is materialized. Indexing is O(log runs).
class OpportunityView {
 public:
  using value_type = Time;
  using const_iterator = OpportunityIterator;
  using iterator = OpportunityIterator;

  OpportunityView(const OpportunityRun* begin, const OpportunityRun* end,
                  std::int64_t total)
      : begin_(begin), end_(end), total_(total) {}

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(total_);
  }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] Time operator[](std::size_t i) const;
  [[nodiscard]] iterator begin() const {
    return {begin_, end_, begin_ == end_ ? 0 : begin_->first};
  }
  [[nodiscard]] iterator end() const { return {end_, end_, 0}; }

  friend bool operator==(const OpportunityView& a, const OpportunityView& b);

 private:
  const OpportunityRun* begin_;
  const OpportunityRun* end_;
  std::int64_t total_;
};

class CapacityTrace {
 public:
  /// A constant-rate link expressed as evenly spaced opportunities.
  static CapacityTrace constant(RateBps rate, Duration period = sim::seconds(1),
                                std::int64_t mtu = 1500);

  /// Build from explicit opportunity times in [0, period). Times are
  /// sorted; duplicates are allowed (multiple MTUs in one instant).
  static CapacityTrace from_opportunities(std::vector<Time> opportunities,
                                          Duration period,
                                          std::int64_t mtu = 1500);

  /// Build from runs already in trace order (see OpportunityRun; `before`
  /// is filled in here, empty runs are dropped). For the generators.
  static CapacityTrace from_runs(std::vector<OpportunityRun> runs,
                                 Duration period, std::int64_t mtu);

  /// First delivery opportunity at a time strictly greater than `t`.
  /// Loops over the period indefinitely. Returns kTimeNever only for an
  /// empty trace.
  [[nodiscard]] Time next_opportunity(Time t) const;

  /// Number of opportunities in simulated interval (from, to].
  [[nodiscard]] std::int64_t opportunities_in(Time from, Time to) const;

  [[nodiscard]] std::int64_t mtu_bytes() const { return mtu_; }
  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::size_t opportunities_per_period() const {
    return static_cast<std::size_t>(total_);
  }
  /// Every opportunity of one period, in order, as a view over the runs.
  [[nodiscard]] OpportunityView opportunities() const {
    return {runs_begin(), runs_end(), total_};
  }
  [[nodiscard]] std::size_t run_count() const {
    return runs_ ? runs_->size() : 0;
  }

  /// Long-run average rate implied by the trace.
  [[nodiscard]] double average_rate_bps() const;

  /// Minimum average rate over any window of the given width (worst-case
  /// throughput seen by an application); used to validate generators.
  [[nodiscard]] double min_windowed_rate_bps(Duration window) const;

 private:
  friend class OpportunityCursor;
  friend class WindowCounter;
  CapacityTrace() = default;

  [[nodiscard]] const OpportunityRun* runs_begin() const {
    return runs_ ? runs_->data() : nullptr;
  }
  [[nodiscard]] const OpportunityRun* runs_end() const {
    return runs_ ? runs_->data() + runs_->size() : nullptr;
  }
  /// The last run starting at or before `offset` (in [0, period)), or
  /// runs_end() when none does.
  [[nodiscard]] const OpportunityRun* run_at(Time offset) const;
  /// Opportunities in [0, offset] of one period.
  [[nodiscard]] std::int64_t count_upto(Time offset) const;

  std::shared_ptr<const std::vector<OpportunityRun>> runs_;  // null = empty
  std::int64_t total_ = 0;  ///< opportunities per period
  Duration period_ = sim::seconds(1);
  std::int64_t mtu_ = 1500;
};

/// A forward cursor over a trace: next_after(t) returns exactly
/// trace.next_opportunity(t). While t never decreases (a link's service
/// loop), moving to the next opportunity steps the iterator's
/// accumulator in O(1), and an idle gap skips whole runs by one binary
/// search and lands inside a run in closed form. A decreasing t restarts
/// the search, so any query order stays correct. Holds its own reference
/// to the trace's runs.
class OpportunityCursor {
 public:
  explicit OpportunityCursor(CapacityTrace trace);

  [[nodiscard]] Time next_after(Time t) {
    if (t < base_ + pos_.at_ && t >= last_) {
      last_ = t;
      return base_ + pos_.at_;
    }
    return advance(t);
  }

 private:
  Time advance(Time t);
  /// Position at the first opportunity after `offset` in period `base_`,
  /// searching from the current run on.
  void seek(Time offset);
  /// Position at the trace's first opportunity, before any query.
  void restart();
  /// Position at the first opportunity of period base_ (trace not empty).
  void rewind();

  CapacityTrace trace_;
  OpportunityIterator pos_;
  Time base_ = 0;   ///< start of the period pos_ lies in
  Time last_ = 0;   ///< the previous query
};

/// Counts opportunities in windows (from, to], exactly as
/// CapacityTrace::opportunities_in does. Each end of the window remembers
/// the period and the run its last query ended in, so a window that
/// moves forward (a link's recent-rate window) steps to its new run in
/// O(1) instead of searching every run; a jump of more than one run
/// searches only the runs ahead, and a query earlier than the last one
/// searches the runs behind, so any query order stays exact. Holds its
/// own reference to the trace's runs.
class WindowCounter {
 public:
  explicit WindowCounter(CapacityTrace trace) : trace_(std::move(trace)) {}

  [[nodiscard]] std::int64_t opportunities_in(Time from, Time to) {
    if (trace_.total_ == 0 || to <= from) return 0;
    return count_upto(to_, to) - count_upto(from_, from);
  }

 private:
  /// Where one end of the window last landed.
  struct End {
    std::int64_t cycle = 0;  ///< period index
    std::size_t runs = 0;    ///< runs starting at or before the offset
  };
  /// Opportunities in [0, t], as CapacityTrace::opportunities_in counts.
  [[nodiscard]] std::int64_t count_upto(End& end, Time t) const;

  CapacityTrace trace_;
  End from_;
  End to_;
};

}  // namespace hvc::trace
