#include "fault/fault.hpp"

#include <stdexcept>
#include <string>

#include "sim/rng.hpp"

namespace hvc::fault {

namespace {

[[noreturn]] void fail(std::size_t index, const std::string& msg) {
  throw std::invalid_argument("fault event " + std::to_string(index) + ": " +
                              msg);
}

}  // namespace

int family(FaultKind k) {
  switch (k) {
    case FaultKind::kOutage:
    case FaultKind::kFlap:
      return 0;
    case FaultKind::kRateCliff:
      return 1;
    case FaultKind::kGeBurst:
      return 2;
    case FaultKind::kDelaySpike:
      return 3;
  }
  return -1;
}

bool dirs_overlap(FaultDir a, FaultDir b) {
  return a == b || a == FaultDir::kBoth || b == FaultDir::kBoth;
}

void FaultPlan::validate(std::size_t num_channels) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.channel >= num_channels) {
      fail(i, "channel " + std::to_string(e.channel) +
                  " out of range (have " + std::to_string(num_channels) +
                  " channels)");
    }
    if (e.start < 0) fail(i, "start must be >= 0");
    if (e.duration <= 0) fail(i, "duration must be > 0");
    switch (e.kind) {
      case FaultKind::kOutage:
        break;
      case FaultKind::kRateCliff:
        if (e.rate_scale <= 0.0 || e.rate_scale >= 1.0) {
          fail(i, "rate_scale must be in (0, 1)");
        }
        break;
      case FaultKind::kGeBurst:
        if (e.loss.lossless()) {
          fail(i, "ge_burst episode has a lossless loss config");
        }
        break;
      case FaultKind::kDelaySpike:
        if (e.extra_delay <= 0) fail(i, "extra_delay must be > 0");
        break;
      case FaultKind::kFlap:
        if (e.flap_period <= 0) fail(i, "flap period must be > 0");
        if (e.flap_up_fraction <= 0.0 || e.flap_up_fraction >= 1.0) {
          fail(i, "flap up_fraction must be in (0, 1)");
        }
        break;
    }
    for (std::size_t j = 0; j < i; ++j) {
      const FaultEvent& p = events[j];
      if (p.channel != e.channel) continue;
      if (!dirs_overlap(p.dir, e.dir)) continue;
      if (family(p.kind) != family(e.kind)) continue;
      if (e.start < p.end() && p.start < e.end()) {
        fail(i, std::string("overlaps event ") + std::to_string(j) + " (" +
                    kind_name(p.kind) + " on channel " +
                    std::to_string(p.channel) + ")");
      }
    }
  }
}

FaultPlan FaultPlan::fuzzed(std::uint64_t seed, std::size_t num_channels,
                            sim::Duration horizon) {
  sim::Rng rng(seed ^ 0x6661756c74ULL);  // distinct stream per purpose
  FaultPlan plan;
  if (num_channels == 0 || horizon <= 0) return plan;
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  // Disjoint time slices guarantee validity whatever kinds/channels the
  // events land on (same-family overlap is impossible across slices).
  const sim::Duration slice = horizon / n;
  for (int i = 0; i < n; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.uniform_int(0, 4));
    e.channel =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(num_channels) - 1));
    e.dir = static_cast<FaultDir>(rng.uniform_int(0, 2));
    const sim::Time slice_start = static_cast<sim::Time>(i) * slice;
    // Leave at least a quarter of the slice for the event to run in.
    const sim::Duration lead =
        static_cast<sim::Duration>(rng.uniform() * 0.5 * static_cast<double>(slice));
    e.start = slice_start + lead;
    e.duration = std::max<sim::Duration>(
        static_cast<sim::Duration>(rng.uniform(0.25, 1.0) *
                                   static_cast<double>(slice - lead)),
        sim::milliseconds(10));
    switch (e.kind) {
      case FaultKind::kOutage:
        break;
      case FaultKind::kRateCliff:
        e.rate_scale = rng.uniform(0.05, 0.5);
        break;
      case FaultKind::kGeBurst:
        e.loss.ge_p_good_to_bad = rng.uniform(0.01, 0.2);
        e.loss.ge_p_bad_to_good = rng.uniform(0.1, 0.5);
        e.loss.ge_loss_in_bad = rng.uniform(0.5, 1.0);
        e.loss_seed = rng.next_u64();
        break;
      case FaultKind::kDelaySpike:
        e.extra_delay = sim::milliseconds(rng.uniform_int(20, 300));
        break;
      case FaultKind::kFlap:
        e.flap_period = std::max<sim::Duration>(e.duration / 4,
                                                sim::milliseconds(20));
        e.flap_up_fraction = rng.uniform(0.3, 0.7);
        e.flap_seed = rng.chance(0.5) ? rng.next_u64() : 0;
        break;
    }
    plan.events.push_back(e);
  }
  plan.validate(num_channels);
  return plan;
}

}  // namespace hvc::fault
