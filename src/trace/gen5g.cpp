#include "trace/gen5g.hpp"

#include <algorithm>
#include <stdexcept>

namespace hvc::trace {

using sim::Duration;
using sim::RateBps;
using sim::Time;

CapacityTrace generate_markov_trace(const MarkovRateModel& model,
                                    Duration duration, std::uint64_t seed,
                                    std::int64_t mtu) {
  if (model.states.empty()) {
    throw std::invalid_argument("markov trace: no states");
  }
  if (model.initial_state >= model.states.size()) {
    throw std::invalid_argument("markov trace: bad initial state");
  }
  for (const auto& s : model.states) {
    if (s.next_probs.size() != model.states.size()) {
      throw std::invalid_argument(
          "markov trace: transition row size != state count");
    }
  }
  sim::Rng rng(seed);
  std::size_t state = model.initial_state;
  Time now = 0;
  Time state_until = 0;
  double byte_credit = 0.0;
  std::vector<OpportunityRun> runs;
  if (duration > 0 && model.step > 0) {
    runs.reserve(static_cast<std::size_t>(duration / model.step) + 1);
  }

  auto draw_dwell = [&](const RateState& s) -> Duration {
    auto d = static_cast<Duration>(
        rng.exponential(static_cast<double>(s.mean_dwell)));
    if (s.max_dwell > 0) d = std::min(d, s.max_dwell);
    return std::max<Duration>(d, model.step);
  };
  state_until = draw_dwell(model.states[state]);

  while (now < duration) {
    if (now >= state_until) {
      // Transition according to the current state's distribution.
      const auto& probs = model.states[state].next_probs;
      double u = rng.uniform();
      std::size_t next = probs.size() - 1;
      for (std::size_t i = 0; i < probs.size(); ++i) {
        if (u < probs[i]) {
          next = i;
          break;
        }
        u -= probs[i];
      }
      state = next;
      state_until = now + draw_dwell(model.states[state]);
    }
    const auto& s = model.states[state];
    double rate = static_cast<double>(s.mean_rate);
    if (s.rate_jitter_frac > 0.0) {
      rate *= std::max(0.0, 1.0 + rng.normal(0.0, s.rate_jitter_frac));
    }
    // Accumulate deliverable bytes over this step; emit one opportunity per
    // MTU of accumulated credit, spread evenly across the step.
    const double step_bytes =
        rate / 8.0 * sim::to_seconds(model.step);
    const double before = byte_credit;
    byte_credit += step_bytes;
    const auto n = static_cast<std::int64_t>(byte_credit /
                                             static_cast<double>(mtu)) -
                   static_cast<std::int64_t>(before /
                                             static_cast<double>(mtu));
    if (n > 0) {
      // The step's i-th opportunity (i = 1..n) sits at
      // now + step * i / (n + 1): one run, spaced within the step.
      OpportunityRun run{.start = now, .span = model.step, .slots = n + 1,
                         .first = 1, .count = n};
      // Only the step that crosses `duration` loses opportunities.
      if (now + model.step > duration) run.count = run.count_upto(duration - 1);
      runs.push_back(run);
    }
    now += model.step;
  }
  return CapacityTrace::from_runs(std::move(runs), duration, mtu);
}

MarkovRateModel five_g_model(FiveGProfile profile) {
  using sim::mbps;
  using sim::kbps;
  using sim::milliseconds;
  MarkovRateModel m;
  switch (profile) {
    case FiveGProfile::kLowbandStationary:
      // Steady ~55 Mbps with mild fading; no outages.
      m.states = {
          {"good", mbps(58), 0.08, milliseconds(500), 0, {0.85, 0.15}},
          {"fade", mbps(35), 0.12, milliseconds(200), milliseconds(800),
           {0.9, 0.1}},
      };
      break;
    case FiveGProfile::kLowbandDriving:
      // Mobility: alternation between good service, degraded cell-edge
      // service and short handover outages. Calibrated so a loaded link
      // sees ~236 ms p98 RTT (DChannel's published Lowband driving stat).
      m.states = {
          {"good", mbps(48), 0.10, milliseconds(2500), 0,
           {0.0, 0.85, 0.15}},
          {"edge", mbps(9), 0.25, milliseconds(900), milliseconds(4000),
           {0.55, 0.0, 0.45}},
          {"handover", kbps(250), 0.30, milliseconds(350), milliseconds(900),
           {0.35, 0.65, 0.0}},
      };
      break;
    case FiveGProfile::kMmWaveDriving:
      // Very high peak rate but hard blockage: multi-second outages that
      // produce the paper's 6.4 s eMBB-only frame-latency tail.
      m.states = {
          {"los", mbps(550), 0.10, milliseconds(3500), 0,
           {0.0, 0.55, 0.45}},
          {"nlos", mbps(60), 0.25, milliseconds(900), milliseconds(3000),
           {0.6, 0.0, 0.4}},
          {"blocked", kbps(40), 0.5, milliseconds(1400), milliseconds(5200),
           {0.5, 0.5, 0.0}},
      };
      break;
  }
  return m;
}

CapacityTrace make_5g_trace(FiveGProfile profile, Duration duration,
                            std::uint64_t seed, std::int64_t mtu) {
  return generate_markov_trace(five_g_model(profile), duration, seed, mtu);
}

Duration embb_base_owd(FiveGProfile profile) {
  switch (profile) {
    case FiveGProfile::kLowbandStationary:
    case FiveGProfile::kLowbandDriving:
      return sim::milliseconds(25);  // ~50 ms base RTT (Fig. 1 setup)
    case FiveGProfile::kMmWaveDriving:
      return sim::milliseconds(15);  // ~30 ms base RTT
  }
  return sim::milliseconds(25);
}

}  // namespace hvc::trace
