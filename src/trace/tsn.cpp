#include "trace/tsn.hpp"

#include <stdexcept>

namespace hvc::trace {

namespace {

/// A trace looping every `cycle`: one opportunity per MTU transmission
/// time at `rate`, from `from` on, while each transmission ends by `to`.
CapacityTrace window_trace(sim::Duration from, sim::Duration to,
                           sim::RateBps rate, std::int64_t mtu,
                           sim::Duration cycle) {
  const sim::Duration gap = sim::transmission_time(mtu, rate);
  const std::int64_t n = to - from >= gap ? (to - from) / gap : 0;
  return CapacityTrace::from_runs(
      {{.start = from, .span = gap, .slots = 1, .first = 0, .count = n}},
      cycle, mtu);
}

void validate(const TsnSchedule& s) {
  if (s.cycle <= 0) throw std::invalid_argument("tsn: cycle <= 0");
  if (s.tsn_window < 0 || s.guard < 0 ||
      s.guard + s.tsn_window > s.cycle) {
    throw std::invalid_argument("tsn: window/guard exceed cycle");
  }
  if (s.medium_rate <= 0) throw std::invalid_argument("tsn: rate <= 0");
  if (s.tsn_mtu <= 0 || s.best_effort_mtu <= 0) {
    throw std::invalid_argument("tsn: mtu <= 0");
  }
}

}  // namespace

CapacityTrace tsn_slice_trace(const TsnSchedule& s) {
  validate(s);
  // Protected window occupies [guard, guard + tsn_window) of each cycle.
  return window_trace(s.guard, s.guard + s.tsn_window, s.medium_rate,
                      s.tsn_mtu, s.cycle);
}

CapacityTrace best_effort_slice_trace(const TsnSchedule& s) {
  validate(s);
  // Best effort gets [window end, cycle - guard): the trailing guard
  // protects the *next* cycle's TSN window.
  return window_trace(s.guard + s.tsn_window, s.cycle - s.guard,
                      s.medium_rate, s.best_effort_mtu, s.cycle);
}

}  // namespace hvc::trace
