#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hvc::trace {

namespace {

/// floor(a * b / c) and (a * b) % c for a, b >= 0 and c > 0, through a
/// 128-bit product where the 64-bit one would overflow (as
/// sim::transmission_time does).
struct QuotRem {
  std::int64_t quot;
  std::int64_t rem;
};

QuotRem mul_divmod(std::int64_t a, std::int64_t b, std::int64_t c) {
  std::int64_t p = 0;
  if (!__builtin_mul_overflow(a, b, &p)) return {p / c, p % c};
  const __int128 w = static_cast<__int128>(a) * b;
  return {static_cast<std::int64_t>(w / c), static_cast<std::int64_t>(w % c)};
}

}  // namespace

// ---- OpportunityRun ----------------------------------------------------

Time OpportunityRun::at(std::int64_t j) const {
  return start + (slots == 1 ? span * j : mul_divmod(span, j, slots).quot);
}

std::int64_t OpportunityRun::count_upto(Time t) const {
  if (t < start) return 0;
  if (span == 0) return count;
  // floor(span * j / slots) <= t - start  <=>  span * j < (t - start + 1) *
  // slots, which ceil((t - start + 1) * slots / span) values j >= 0 meet.
  std::int64_t below = 0;
  std::int64_t js = first + count;
  if (!__builtin_mul_overflow(t - start + 1, slots, &below)) {
    js = below / span + (below % span != 0 ? 1 : 0);
  } else {
    const __int128 w = static_cast<__int128>(t - start + 1) * slots;
    const __int128 q = (w + span - 1) / span;
    if (q < js) js = static_cast<std::int64_t>(q);
  }
  return std::clamp<std::int64_t>(js - first, 0, count);
}

// ---- OpportunityIterator -----------------------------------------------

OpportunityIterator::OpportunityIterator(const OpportunityRun* run,
                                         const OpportunityRun* end,
                                         std::int64_t j)
    : end_(end) {
  enter(run, j);
}

void OpportunityIterator::enter(const OpportunityRun* run, std::int64_t j) {
  run_ = run;
  j_ = j;
  if (run == end_) {
    j_end_ = 0;
    at_ = 0;
    return;
  }
  j_end_ = run->first + run->count;
  slots_ = run->slots;
  dq_ = run->span / slots_;
  dr_ = run->span % slots_;
  const QuotRem q = mul_divmod(run->span, j, slots_);
  at_ = run->start + q.quot;
  rem_ = q.rem;
}

// ---- OpportunityView ---------------------------------------------------

Time OpportunityView::operator[](std::size_t i) const {
  const auto k = static_cast<std::int64_t>(i);
  const OpportunityRun* r =
      std::upper_bound(begin_, end_, k,
                       [](std::int64_t v, const OpportunityRun& run) {
                         return v < run.before;
                       }) -
      1;
  return r->at(r->first + (k - r->before));
}

bool operator==(const OpportunityView& a, const OpportunityView& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// ---- CapacityTrace -----------------------------------------------------

CapacityTrace CapacityTrace::constant(RateBps rate, Duration period,
                                      std::int64_t mtu) {
  if (rate <= 0) throw std::invalid_argument("constant trace: rate <= 0");
  if (period <= 0) throw std::invalid_argument("constant trace: period <= 0");
  if (mtu <= 0) throw std::invalid_argument("constant trace: mtu <= 0");
  const Duration gap = sim::transmission_time(mtu, rate);
  // One opportunity every `gap` from 0 while below the period.
  const std::int64_t n = (period - 1) / gap + 1;
  return from_runs({{.start = 0, .span = gap, .slots = 1, .first = 0,
                     .count = n}},
                   period, mtu);
}

CapacityTrace CapacityTrace::from_opportunities(std::vector<Time> opportunities,
                                                Duration period,
                                                std::int64_t mtu) {
  if (period <= 0) throw std::invalid_argument("trace: period <= 0");
  std::sort(opportunities.begin(), opportunities.end());
  if (!opportunities.empty() &&
      (opportunities.front() < 0 || opportunities.back() >= period)) {
    throw std::invalid_argument("trace: opportunity outside [0, period)");
  }
  // One zero-span run per distinct instant, counting its multiplicity.
  std::vector<OpportunityRun> runs;
  for (const Time t : opportunities) {
    if (!runs.empty() && runs.back().start == t) {
      ++runs.back().count;
    } else {
      runs.push_back({.start = t, .span = 0, .slots = 1, .first = 0,
                      .count = 1});
    }
  }
  return from_runs(std::move(runs), period, mtu);
}

CapacityTrace CapacityTrace::from_runs(std::vector<OpportunityRun> runs,
                                       Duration period, std::int64_t mtu) {
  if (period <= 0) throw std::invalid_argument("trace: period <= 0");
  std::erase_if(runs, [](const OpportunityRun& r) { return r.count <= 0; });
  std::int64_t total = 0;
  Time prev_last = 0;
  for (OpportunityRun& r : runs) {
    if (r.slots <= 0 || r.span < 0 || r.first < 0 || r.start < prev_last) {
      throw std::invalid_argument("trace: malformed or out-of-order run");
    }
    prev_last = r.at(r.first + r.count - 1);
    if (prev_last >= period) {
      throw std::invalid_argument("trace: opportunity outside [0, period)");
    }
    r.before = total;
    total += r.count;
  }
  CapacityTrace t;
  t.period_ = period;
  t.mtu_ = mtu;
  t.total_ = total;
  if (!runs.empty()) {
    t.runs_ = std::make_shared<const std::vector<OpportunityRun>>(
        std::move(runs));
  }
  return t;
}

const OpportunityRun* CapacityTrace::run_at(Time offset) const {
  const OpportunityRun* begin = runs_begin();
  const OpportunityRun* end = runs_end();
  const OpportunityRun* after =
      std::upper_bound(begin, end, offset,
                       [](Time v, const OpportunityRun& r) {
                         return v < r.start;
                       });
  return after == begin ? end : after - 1;
}

std::int64_t CapacityTrace::count_upto(Time offset) const {
  const OpportunityRun* r = run_at(offset);
  return r == runs_end() ? 0 : r->before + r->count_upto(offset);
}

Time CapacityTrace::next_opportunity(Time t) const {
  if (total_ == 0) return sim::kTimeNever;
  if (t < 0) t = -1;  // treat pre-start queries as "before cycle 0"
  const std::int64_t cycle = t < 0 ? 0 : t / period_;
  const Time offset = t - cycle * period_;
  const OpportunityRun* begin = runs_begin();
  const OpportunityRun* end = runs_end();
  const OpportunityRun* r = run_at(offset);
  if (r != end) {
    const std::int64_t k = r->count_upto(offset);
    if (k < r->count) return cycle * period_ + r->at(r->first + k);
    ++r;
  } else {
    r = begin;
  }
  if (r != end) return cycle * period_ + r->at(r->first);
  return (cycle + 1) * period_ + begin->at(begin->first);
}

std::int64_t CapacityTrace::opportunities_in(Time from, Time to) const {
  if (total_ == 0 || to <= from) return 0;
  auto count_upto_abs = [this](Time t) -> std::int64_t {
    // opportunities in [0, t]
    if (t < 0) return 0;
    const std::int64_t cycle = t / period_;
    return cycle * total_ + count_upto(t - cycle * period_);
  };
  return count_upto_abs(to) - count_upto_abs(from);
}

double CapacityTrace::average_rate_bps() const {
  if (total_ == 0) return 0.0;
  const double bytes =
      static_cast<double>(total_) * static_cast<double>(mtu_);
  return bytes * 8.0 / sim::to_seconds(period_);
}

double CapacityTrace::min_windowed_rate_bps(Duration window) const {
  if (total_ == 0 || window <= 0) return 0.0;
  double min_rate = std::numeric_limits<double>::infinity();
  for (Time start = 0; start < period_; start += window / 4) {
    const auto n = opportunities_in(start, start + window);
    const double rate = static_cast<double>(n) * static_cast<double>(mtu_) *
                        8.0 / sim::to_seconds(window);
    min_rate = std::min(min_rate, rate);
  }
  return min_rate;
}

// ---- OpportunityCursor -------------------------------------------------

OpportunityCursor::OpportunityCursor(CapacityTrace trace)
    : trace_(std::move(trace)) {
  restart();
}

void OpportunityCursor::restart() {
  base_ = 0;
  last_ = -1;
  pos_ = OpportunityIterator(trace_.runs_end(), trace_.runs_end(), 0);
  if (trace_.total_ == 0) {
    pos_.at_ = sim::kTimeNever;  // empty: never delivers
  } else {
    rewind();
  }
}

void OpportunityCursor::rewind() {
  const OpportunityRun* begin = trace_.runs_begin();
  pos_.enter(begin, begin->first);
}

Time OpportunityCursor::advance(Time t) {
  if (trace_.total_ == 0) return sim::kTimeNever;
  if (t < last_) restart();  // time went backwards: search afresh
  last_ = t;
  if (t < base_ + pos_.at_) return base_ + pos_.at_;
  const Duration period = trace_.period_;
  if (t - base_ >= period) {
    // An idle gap past the end of the cursor's period: start over in the
    // period holding t (t >= 0 here, as base_ + at_ >= 0).
    base_ = t - t % period;
    rewind();
    if (t < base_ + pos_.at_) return base_ + pos_.at_;
  }
  // Now base_ + at_ <= t < base_ + period: the answer is later in this
  // period, or the next period's first opportunity.
  const Time offset = t - base_;
  ++pos_;  // usually the very next opportunity is the answer
  if (pos_.run_ != pos_.end_ && pos_.at_ <= offset) seek(offset);
  if (pos_.run_ == pos_.end_) {
    base_ += period;
    rewind();
  }
  return base_ + pos_.at_;
}

void OpportunityCursor::seek(Time offset) {
  const OpportunityRun* r = pos_.run_;
  const OpportunityRun* end = pos_.end_;
  if (r + 1 != end && r[1].start <= offset) {
    // Skip whole runs: the last one starting at or before offset holds
    // the answer, or the run after it starts with it.
    r = std::upper_bound(r + 1, end, offset,
                         [](Time v, const OpportunityRun& run) {
                           return v < run.start;
                         }) -
        1;
  }
  const std::int64_t k = r->count_upto(offset);
  if (k < r->count) {
    pos_.enter(r, r->first + k);
  } else {
    ++r;
    pos_.enter(r, r == end ? 0 : r->first);
  }
}

// ---- WindowCounter -----------------------------------------------------

std::int64_t WindowCounter::count_upto(End& end, Time t) const {
  if (t < 0) return 0;
  const Duration period = trace_.period_;
  const std::int64_t cycle = t / period;
  const Time offset = t - cycle * period;
  const OpportunityRun* begin = trace_.runs_begin();
  const OpportunityRun* stop = trace_.runs_end();
  const auto n = static_cast<std::size_t>(stop - begin);
  // `k` runs start at or before the offset: the answer's run is k - 1.
  std::size_t k = cycle == end.cycle ? end.runs : 0;
  const auto starts_after = [](Time v, const OpportunityRun& r) {
    return v < r.start;
  };
  if (k > 0 && begin[k - 1].start > offset) {
    k = static_cast<std::size_t>(
        std::upper_bound(begin, begin + k, offset, starts_after) - begin);
  } else if (k < n && begin[k].start <= offset) {
    ++k;  // usually the window only reached the next run
    if (k < n && begin[k].start <= offset) {
      k = static_cast<std::size_t>(
          std::upper_bound(begin + k, stop, offset, starts_after) - begin);
    }
  }
  end.cycle = cycle;
  end.runs = k;
  const std::int64_t within =
      k == 0 ? 0 : begin[k - 1].before + begin[k - 1].count_upto(offset);
  return cycle * trace_.total_ + within;
}

}  // namespace hvc::trace
