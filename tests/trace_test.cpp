// Tests for capacity traces and the synthetic 5G generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"
#include "sim/seed.hpp"
#include "trace/gen5g.hpp"
#include "trace/trace.hpp"
#include "trace/tsn.hpp"

namespace hvc::trace {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(CapacityTrace, ConstantRateSpacing) {
  const auto t = CapacityTrace::constant(sim::mbps(12));  // 1 ms per MTU
  EXPECT_EQ(t.next_opportunity(0), milliseconds(1));
  EXPECT_EQ(t.next_opportunity(milliseconds(1)), milliseconds(2));
  EXPECT_NEAR(t.average_rate_bps(), 12e6, 12e6 * 0.01);
}

TEST(CapacityTrace, LoopsAcrossPeriod) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // Near the end of the first period, the next opportunity wraps.
  const sim::Time late = seconds(1) - 1;
  const sim::Time next = t.next_opportunity(late);
  EXPECT_GE(next, seconds(1));
  EXPECT_LT(next, seconds(1) + milliseconds(2));
  // Far future queries work too.
  const sim::Time far = seconds(100) + milliseconds(500);
  EXPECT_GT(t.next_opportunity(far), far);
}

TEST(CapacityTrace, NextOpportunityStrictlyAfter) {
  const auto t = CapacityTrace::constant(sim::mbps(12));
  const sim::Time opp = t.next_opportunity(0);
  EXPECT_GT(t.next_opportunity(opp), opp);
}

TEST(CapacityTrace, OpportunitiesInCounts) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // 12 Mbps / (1500 B * 8) = 1000 opportunities per second.
  EXPECT_EQ(t.opportunities_in(0, seconds(1)), 1000);
  EXPECT_EQ(t.opportunities_in(0, seconds(10)), 10000);
  EXPECT_EQ(t.opportunities_in(seconds(5), seconds(5)), 0);
}

TEST(CapacityTrace, FromOpportunitiesValidates) {
  EXPECT_THROW(
      CapacityTrace::from_opportunities({seconds(2)}, seconds(1)),
      std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_opportunities({}, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(
      CapacityTrace::from_opportunities({0, milliseconds(5)}, seconds(1)));
}

TEST(CapacityTrace, EmptyTraceNeverDelivers) {
  const auto t = CapacityTrace::from_opportunities({}, seconds(1));
  EXPECT_EQ(t.next_opportunity(0), sim::kTimeNever);
  EXPECT_DOUBLE_EQ(t.average_rate_bps(), 0.0);
}

TEST(MarkovGen, DeterministicInSeed) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  EXPECT_EQ(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, DifferentSeedsDiffer) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 1);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 2);
  EXPECT_NE(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, ValidatesModel) {
  MarkovRateModel m;
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);
  m.states = {{"a", sim::mbps(1), 0.0, milliseconds(100), 0, {}}};
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);  // bad transition row
}

struct ProfileCase {
  FiveGProfile profile;
  double min_avg_mbps;
  double max_avg_mbps;
};

// Without this gtest prints a ProfileCase as its raw bytes, uninitialised
// padding included, and the printed value is part of the CTest name.
void PrintTo(const ProfileCase& pc, std::ostream* os) {
  *os << to_string(pc.profile);
}

class FiveGProfileTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(FiveGProfileTest, AverageRateInCalibratedBand) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(60), 7);
  const double avg = sim::to_mbps(
      static_cast<sim::RateBps>(t.average_rate_bps()));
  EXPECT_GE(avg, pc.min_avg_mbps) << to_string(pc.profile);
  EXPECT_LE(avg, pc.max_avg_mbps) << to_string(pc.profile);
}

TEST_P(FiveGProfileTest, TraceCoversRequestedDuration) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(30), 3);
  EXPECT_EQ(t.period(), seconds(30));
  EXPECT_GT(t.opportunities_per_period(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FiveGProfileTest,
    ::testing::Values(
        ProfileCase{FiveGProfile::kLowbandStationary, 35.0, 70.0},
        ProfileCase{FiveGProfile::kLowbandDriving, 12.0, 55.0},
        ProfileCase{FiveGProfile::kMmWaveDriving, 80.0, 600.0}));

TEST(FiveGProfiles, DrivingHasOutages) {
  // The driving profile must contain windows where throughput collapses —
  // that is what produces the paper's latency tails.
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandDriving, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_LT(worst, 2e6);
}

TEST(FiveGProfiles, StationaryHasNoDeepOutages) {
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandStationary, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_GT(worst, 5e6);
}

TEST(FiveGProfiles, MmWaveHasMultiSecondBlockages) {
  const auto t = make_5g_trace(FiveGProfile::kMmWaveDriving, seconds(180), 5);
  // Look for at least one ~1.5 s window with nearly zero capacity.
  double worst = t.min_windowed_rate_bps(milliseconds(1500));
  EXPECT_LT(worst, 1e6);
}

TEST(FiveGProfiles, BaseOwdMatchesPaperSetup) {
  EXPECT_EQ(embb_base_owd(FiveGProfile::kLowbandDriving), milliseconds(25));
  EXPECT_EQ(embb_base_owd(FiveGProfile::kMmWaveDriving), milliseconds(15));
}

// ---- Runs against the vector they replaced --------------------------
//
// A copy of the trace code as it was when every opportunity had its own
// vector entry: the builders' loops, the binary searches behind
// next_opportunity/opportunities_in, and Link's forward walk. The run
// form must give the same opportunities and the same answer to every
// query.
namespace vec {

std::vector<Time> constant(RateBps rate, Duration period, std::int64_t mtu) {
  std::vector<Time> out;
  const Duration gap = sim::transmission_time(mtu, rate);
  for (Time at = 0; at < period; at += gap) out.push_back(at);
  if (out.empty()) out.push_back(0);
  return out;
}

std::vector<Time> window(Duration from, Duration to, RateBps rate,
                         std::int64_t mtu) {
  std::vector<Time> out;
  const Duration gap = sim::transmission_time(mtu, rate);
  for (Time at = from; at + gap <= to; at += gap) out.push_back(at);
  return out;
}

std::vector<Time> markov(const MarkovRateModel& model, Duration duration,
                         std::uint64_t seed, std::int64_t mtu) {
  sim::Rng rng(seed);
  std::size_t state = model.initial_state;
  Time now = 0;
  double byte_credit = 0.0;
  std::vector<Time> opps;
  auto draw_dwell = [&](const RateState& s) -> Duration {
    auto d = static_cast<Duration>(
        rng.exponential(static_cast<double>(s.mean_dwell)));
    if (s.max_dwell > 0) d = std::min(d, s.max_dwell);
    return std::max<Duration>(d, model.step);
  };
  Time state_until = draw_dwell(model.states[state]);
  while (now < duration) {
    if (now >= state_until) {
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
    const double step_bytes = rate / 8.0 * sim::to_seconds(model.step);
    const double before = byte_credit;
    byte_credit += step_bytes;
    const auto n =
        static_cast<std::int64_t>(byte_credit / static_cast<double>(mtu)) -
        static_cast<std::int64_t>(before / static_cast<double>(mtu));
    for (std::int64_t i = 0; i < n; ++i) {
      const Time at = now + model.step * (i + 1) / (n + 1);
      if (at < duration) opps.push_back(at);
    }
    now += model.step;
  }
  std::sort(opps.begin(), opps.end());
  return opps;
}

struct Trace {
  std::vector<Time> opps;  // sorted, within [0, period)
  Duration period = 0;

  [[nodiscard]] Time next_opportunity(Time t) const {
    if (opps.empty()) return sim::kTimeNever;
    if (t < 0) t = -1;
    const std::int64_t cycle = t < 0 ? 0 : t / period;
    const Time offset = t - cycle * period;
    auto it = std::upper_bound(opps.begin(), opps.end(), offset);
    if (it != opps.end()) return cycle * period + *it;
    return (cycle + 1) * period + opps.front();
  }

  [[nodiscard]] std::int64_t opportunities_in(Time from, Time to) const {
    if (opps.empty() || to <= from) return 0;
    auto count_upto = [this](Time t) -> std::int64_t {
      if (t < 0) return 0;
      const std::int64_t cycle = t / period;
      const Time offset = t - cycle * period;
      const auto within =
          std::upper_bound(opps.begin(), opps.end(), offset) - opps.begin();
      return cycle * static_cast<std::int64_t>(opps.size()) + within;
    };
    return count_upto(to) - count_upto(from);
  }
};

/// Link's walk over the vector (nondecreasing queries only).
struct Walk {
  const Trace* trace;
  std::size_t idx = 0;
  Time cycle_base = 0;

  Time next_after(Time t) {
    const std::vector<Time>& opps = trace->opps;
    if (opps.empty()) return sim::kTimeNever;
    const Time base = (t / trace->period) * trace->period;
    if (base != cycle_base) {
      cycle_base = base;
      idx = 0;
    }
    while (idx < opps.size() && base + opps[idx] <= t) ++idx;
    if (idx == opps.size()) return base + trace->period + opps.front();
    return base + opps[idx];
  }
};

}  // namespace vec

struct ModelCase {
  std::string name;
  CapacityTrace runs;
  vec::Trace ref;
};

MarkovRateModel scaled(MarkovRateModel m, double factor) {
  for (auto& s : m.states) {
    s.mean_rate = static_cast<sim::RateBps>(static_cast<double>(s.mean_rate) *
                                            factor);
  }
  return m;
}

std::vector<ModelCase> model_cases() {
  std::vector<ModelCase> cases;
  auto add = [&](std::string name, CapacityTrace runs,
                 std::vector<Time> opps) {
    const Duration period = runs.period();
    cases.push_back({std::move(name), std::move(runs),
                     {std::move(opps), period}});
  };
  auto markov = [&](const std::string& name, const MarkovRateModel& m,
                    Duration d, std::uint64_t seed, std::int64_t mtu) {
    add(name, generate_markov_trace(m, d, seed, mtu),
        vec::markov(m, d, seed, mtu));
  };
  for (const auto p : {FiveGProfile::kLowbandStationary,
                       FiveGProfile::kLowbandDriving,
                       FiveGProfile::kMmWaveDriving}) {
    markov(std::string(to_string(p)) + " down", five_g_model(p),
           seconds(4), 3, 1500);
    markov(std::string(to_string(p)) + " up", scaled(five_g_model(p), 0.25),
           sim::seconds_f(2.0035), 4, 1500);
  }
  MarkovRateModel leo;
  leo.states = {
      {"beam", sim::mbps(180), 0.15, milliseconds(1200), 0, {0.0, 1.0}},
      {"handover", sim::mbps(25), 0.3, milliseconds(600), milliseconds(1500),
       {1.0, 0.0}},
  };
  markov("leo", leo, sim::seconds_f(3.333), 7, 1500);
  // 10 Gbps with outages, an odd step and a small MTU: many opportunities
  // per step, steps with none, and a step cut by the duration.
  MarkovRateModel fast;
  fast.step = sim::microseconds(7321);
  fast.states = {
      {"peak", sim::gbps(10), 0.2, milliseconds(40), 0, {0.0, 0.7, 0.3}},
      {"dip", sim::mbps(3), 0.5, milliseconds(30), 0, {0.6, 0.0, 0.4}},
      {"off", 0, 0.0, milliseconds(20), 0, {0.5, 0.5, 0.0}},
  };
  markov("10gbps markov", fast, sim::seconds_f(0.2003), 9, 1500);
  markov("10gbps markov, 250 B", fast, milliseconds(50), 10, 250);

  for (const auto& [rate, period, mtu] :
       std::vector<std::tuple<RateBps, Duration, std::int64_t>>{
           {sim::mbps(60), seconds(1), 1500},
           {sim::mbps(2), seconds(1), 250},
           {sim::mbps(7), milliseconds(333), 1500},
           {sim::kbps(1), seconds(1), 1500},  // one opportunity per period
           {sim::gbps(10), seconds(1), 1500}}) {
    add("constant " + std::to_string(rate) + " bps",
        CapacityTrace::constant(rate, period, mtu),
        vec::constant(rate, period, mtu));
  }

  for (const auto& s : std::vector<TsnSchedule>{
           TsnSchedule{},
           {.cycle = sim::microseconds(7777),
            .tsn_window = sim::microseconds(1234),
            .guard = sim::microseconds(55),
            .medium_rate = sim::mbps(300)},
           {.tsn_window = 0},  // no protected window at all
           {.cycle = milliseconds(1),
            .tsn_window = sim::microseconds(400),
            .guard = sim::microseconds(300)}}) {  // no room for best effort
    add("tsn " + std::to_string(s.cycle) + "/" + std::to_string(s.tsn_window),
        tsn_slice_trace(s),
        vec::window(s.guard, s.guard + s.tsn_window, s.medium_rate,
                    s.tsn_mtu));
    add("best effort " + std::to_string(s.cycle) + "/" +
            std::to_string(s.tsn_window),
        best_effort_slice_trace(s),
        vec::window(s.guard + s.tsn_window, s.cycle - s.guard, s.medium_rate,
                    s.best_effort_mtu));
  }

  sim::Rng rng(17);
  std::vector<Time> listed;
  for (int i = 0; i < 400; ++i) {
    const Time t = rng.uniform_int(0, milliseconds(50) - 1);
    listed.push_back(t);
    if (rng.chance(0.3)) listed.push_back(t);  // duplicate instants
  }
  listed.push_back(0);
  listed.push_back(milliseconds(50) - 1);
  std::vector<Time> sorted = listed;
  std::sort(sorted.begin(), sorted.end());
  add("explicit list", CapacityTrace::from_opportunities(listed,
                                                         milliseconds(50)),
      sorted);
  add("millisecond instants",
      CapacityTrace::from_opportunities(
          {milliseconds(1), milliseconds(2), milliseconds(2), milliseconds(5)},
          milliseconds(6)),
      {milliseconds(1), milliseconds(2), milliseconds(2), milliseconds(5)});
  add("empty", CapacityTrace::from_opportunities({}, seconds(1)), {});

  // Runs whose span * j and (t + 1) * slots overflow 64 bits, so the
  // 128-bit paths answer (a 23-day period keeps the cursor walk in range).
  const std::vector<OpportunityRun> wide = {
      {.start = 0, .span = 500'000'000'000'000'007, .slots = 1'000'003,
       .first = 1000, .count = 2000},
      {.start = 1'600'000'000'000'000, .span = 100'000'000'000'001,
       .slots = 3, .first = 0, .count = 3}};
  std::vector<Time> wide_times;
  for (const OpportunityRun& r : wide) {
    for (std::int64_t j = r.first; j < r.first + r.count; ++j) {
      wide_times.push_back(static_cast<Time>(
          r.start + static_cast<__int128>(r.span) * j / r.slots));
    }
  }
  add("128-bit products",
      CapacityTrace::from_runs(wide, 2'000'000'000'000'000, 1500),
      wide_times);
  return cases;
}

/// A query time near something interesting: an opportunity (one before,
/// on, or one after it) in some cycle, a cycle boundary, or anywhere.
Time pick_time(sim::Rng& rng, const vec::Trace& ref) {
  const Duration period = ref.period;
  const std::int64_t cycle = rng.uniform_int(0, 3);
  const Time wobble = rng.uniform_int(-1, 1);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      if (!ref.opps.empty()) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(ref.opps.size()) - 1));
        return cycle * period + ref.opps[i] + wobble;
      }
      [[fallthrough]];
    case 1:
      return cycle * period + wobble;
    default:
      return rng.uniform_int(-2, 4 * period);
  }
}

TEST(CapacityTraceModel, RunsMatchTheVectorTheyReplaced) {
  for (const ModelCase& c : model_cases()) {
    SCOPED_TRACE(c.name);
    const auto view = c.runs.opportunities();
    ASSERT_EQ(view.size(), c.ref.opps.size());
    ASSERT_TRUE(std::equal(view.begin(), view.end(), c.ref.opps.begin()));
    EXPECT_EQ(c.runs.opportunities_per_period(), c.ref.opps.size());

    sim::Rng rng(sim::fnv1a64(c.name));
    // Random access through the view, in no particular order.
    for (int i = 0; i < 200 && !view.empty(); ++i) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(view.size()) - 1));
      ASSERT_EQ(view[k], c.ref.opps[k]) << "index " << k;
    }
    for (int i = 0; i < 3000; ++i) {
      const Time t = pick_time(rng, c.ref);
      ASSERT_EQ(c.runs.next_opportunity(t), c.ref.next_opportunity(t))
          << "t " << t;
      const Time to = rng.chance(0.5) ? pick_time(rng, c.ref)
                                      : t + rng.uniform_int(0, c.ref.period);
      ASSERT_EQ(c.runs.opportunities_in(t, to), c.ref.opportunities_in(t, to))
          << "(" << t << ", " << to << "]";
    }
  }
}

TEST(CapacityTraceModel, CursorMatchesLinkWalkAndBinarySearch) {
  for (const ModelCase& c : model_cases()) {
    SCOPED_TRACE(c.name);
    sim::Rng rng(sim::fnv1a64(c.name) + 1);
    OpportunityCursor cursor(c.runs);
    vec::Walk walk{&c.ref};
    const Duration period = c.ref.period;
    const Duration mean_gap =
        c.ref.opps.empty()
            ? period
            : std::max<Duration>(
                  period / static_cast<Duration>(c.ref.opps.size()), 1);
    Time t = 0;
    Time answer = 0;
    for (int i = 0; i < 6000; ++i) {
      switch (rng.uniform_int(0, 9)) {
        case 0: break;                                           // same time
        case 1: t += 1; break;
        case 2: case 3: t += rng.uniform_int(0, 2 * mean_gap); break;
        case 4: case 5: case 6:                                   // service
          if (answer != sim::kTimeNever) t = answer;
          break;
        case 7: t += rng.uniform_int(0, period / 3); break;      // idle gap
        case 8: t += rng.uniform_int(period, 3 * period); break;  // cycles
        default:
          t = (t / period + 1) * period - rng.uniform_int(0, 1);  // boundary
      }
      answer = cursor.next_after(t);
      ASSERT_EQ(answer, c.ref.next_opportunity(t)) << "step " << i;
      ASSERT_EQ(answer, walk.next_after(t)) << "step " << i;
    }
    // Going back in time restarts the cursor's search.
    for (int i = 0; i < 300; ++i) {
      const Time back = pick_time(rng, c.ref);
      ASSERT_EQ(cursor.next_after(back), c.ref.next_opportunity(back))
          << "t " << back;
    }
  }
}

TEST(CapacityTraceModel, WindowCounterMatchesOpportunitiesIn) {
  for (const ModelCase& c : model_cases()) {
    SCOPED_TRACE(c.name);
    sim::Rng rng(sim::fnv1a64(c.name) + 2);
    const Duration period = c.ref.period;
    const Duration mean_gap =
        c.ref.opps.empty()
            ? period
            : std::max<Duration>(
                  period / static_cast<Duration>(c.ref.opps.size()), 1);
    const auto check = [&](WindowCounter& counter, Time from, Time to) {
      const std::int64_t want = c.runs.opportunities_in(from, to);
      ASSERT_EQ(want, c.ref.opportunities_in(from, to));
      ASSERT_EQ(counter.opportunities_in(from, to), want)
          << "(" << from << ", " << to << "]";
    };
    // Forward windows of a fixed width, as a link's recent-rate window
    // moves: each end steps inside a run, crosses runs, jumps an idle
    // gap or wraps a period.
    for (const Duration width :
         {Duration{1}, 3 * mean_gap, period / 5, milliseconds(200),
          2 * period + 7}) {
      WindowCounter counter(c.runs);
      Time to = -width;
      for (int i = 0; i < 1500; ++i) {
        switch (rng.uniform_int(0, 9)) {
          case 0: break;                                           // same time
          case 1: to += 1; break;
          case 2: case 3: to += rng.uniform_int(0, 2 * mean_gap); break;
          case 4: case 5: to += rng.uniform_int(mean_gap, 40 * mean_gap);
            break;                                                 // runs
          case 6: to += rng.uniform_int(0, period / 3); break;     // idle gap
          case 7: to += rng.uniform_int(period, 3 * period); break;  // cycles
          default:
            to = (to / period + 1) * period - rng.uniform_int(0, 1);  // wrap
        }
        check(counter, to - width, to);
        if (testing::Test::HasFatalFailure()) return;
      }
      // Then windows anywhere, earlier ones included.
      for (int i = 0; i < 500; ++i) {
        const Time a = pick_time(rng, c.ref);
        const Time b = rng.chance(0.5) ? pick_time(rng, c.ref)
                                       : a + rng.uniform_int(0, period);
        check(counter, a, b);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(CapacityTraceModel, RunsScaleWithDurationNotRate) {
  const auto t = make_5g_trace(FiveGProfile::kMmWaveDriving, seconds(90), 1);
  // At most one run per 10 ms step, however many opportunities it holds.
  EXPECT_LE(t.run_count(), 9000u);
  EXPECT_GT(t.opportunities_per_period(), 100 * t.run_count());
  EXPECT_EQ(CapacityTrace::constant(sim::gbps(10)).run_count(), 1u);
  TsnSchedule s;
  EXPECT_EQ(tsn_slice_trace(s).run_count(), 1u);
}

}  // namespace
}  // namespace hvc::trace
