// Tests for the city-cell population engine (src/pop) and its src/exp
// integration: determinism of run_city, O(1) telemetry memory vs
// population size, churn accounting, URLLC admission behaviour, and the
// sweep byte-identity contract (-j1 == -jN, shards merge losslessly).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/results.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "pop/engine.hpp"
#include "pop/spec.hpp"
#include "sim/seed.hpp"
#include "sim/simulator.hpp"

namespace hvc {
namespace {

pop::CityConfig small_city(std::int64_t users, double duration_s = 10.0) {
  pop::CityConfig cfg;
  cfg.population.users = users;
  cfg.population.churn.arrival_rate_per_s = 1.0;
  cfg.population.churn.mean_session_s = 20.0;
  cfg.cell.embb_rate_bps = 100e6;
  cfg.cell.urllc_rate_bps = 5e6;
  cfg.seed = 7;
  cfg.duration = sim::seconds(static_cast<std::int64_t>(duration_s));
  return cfg;
}

TEST(CityEngine, RunIsDeterministic) {
  const auto cfg = small_city(300);
  const pop::CityResult a = pop::run_city(cfg);
  const pop::CityResult b = pop::run_city(cfg);
  EXPECT_EQ(a.cohorts, b.cohorts);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.bg_transfers, b.bg_transfers);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.urllc_admitted, b.urllc_admitted);
  EXPECT_EQ(a.urllc_spilled, b.urllc_spilled);
  EXPECT_EQ(a.events, b.events);
}

TEST(CityEngine, SeedChangesOutcome) {
  auto cfg = small_city(300);
  const pop::CityResult a = pop::run_city(cfg);
  cfg.seed = 8;
  const pop::CityResult b = pop::run_city(cfg);
  EXPECT_NE(a.cohorts, b.cohorts);
}

TEST(CityEngine, TelemetryMemoryIndependentOfPopulation) {
  // The O(bins) claim end to end: a 10x larger population produces the
  // same accumulator footprint (and far more samples).
  const pop::CityResult small = pop::run_city(small_city(300));
  const pop::CityResult large = pop::run_city(small_city(3000));
  EXPECT_EQ(small.cohorts.memory_bytes(), large.cohorts.memory_bytes());
  EXPECT_GT(large.peak_active, small.peak_active);
}

TEST(CityEngine, ChurnProducesArrivalsAndDepartures) {
  const pop::CityResult r = pop::run_city(small_city(200, 20.0));
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_GT(r.departures, 0u);
  EXPECT_GE(r.peak_active, 200u);
  // All three archetypes did work.
  EXPECT_GT(r.pages, 0u);
  EXPECT_GT(r.chunks, 0u);
  EXPECT_GT(r.bg_transfers, 0u);
}

TEST(CityEngine, UrllcAdmissionExercised) {
  const pop::CityResult r = pop::run_city(small_city(500));
  // The steering rule must have a live operating point: some small
  // objects admitted, and under load some spilled back to eMBB.
  EXPECT_GT(r.urllc_admitted, 0u);
  EXPECT_GT(r.urllc_spilled, 0u);
}

TEST(CityEngine, NoUrllcPoolMeansNoAdmissions) {
  auto cfg = small_city(300);
  cfg.cell.has_urllc = false;
  const pop::CityResult r = pop::run_city(cfg);
  EXPECT_EQ(r.urllc_admitted, 0u);
  EXPECT_GT(r.pages, 0u);
}

// ---- PsLink ----

// Transfers that all start at one instant share the link equally, so
// they complete in size order, equal sizes in start order: the heap's
// (v_end, seq) order. A thousand transfers make the heap several levels
// deep; sizes from a small alphabet make many ties.
TEST(PsLink, CompletesInSizeOrderThenStartOrder) {
  sim::Simulator sim;
  pop::PsLink link(sim, 1e6);
  std::vector<std::uint32_t> done;
  link.set_on_done(
      [&done](std::uint32_t, std::uint32_t tag) { done.push_back(tag); });
  sim::CounterStream rng(0x5a5a);
  std::vector<std::pair<double, std::uint32_t>> want;
  for (std::uint32_t tag = 0; tag < 1'000; ++tag) {
    const std::int64_t size = rng.uniform() < 0.5
                                  ? 100 * rng.uniform_int(1, 8)
                                  : rng.uniform_int(1, 5'000);
    const auto bytes = static_cast<double>(size);
    link.start(0, tag, bytes);
    want.emplace_back(bytes, tag);
  }
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  sim.run();
  ASSERT_EQ(done.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(done[i], want[i].second) << "completion " << i;
  }
  EXPECT_EQ(link.active(), 0u);
}


using Dispatch = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Users fetch levels of 2–8 equal-size objects over two PS links of
/// equal rate. A level puts half its objects on each link, in a random
/// order, so both links always hold the same flows and every completion
/// on one link ties, to the nanosecond, with one on the other. The
/// (user, tag) dispatch order then follows the order of the two links'
/// timer events. A user's next level starts 1 ms after its last object
/// lands. `batched` starts a level through a
/// PsStartBatch, as CityEngine::begin_level does: one re-arm per link.
/// Otherwise every object is a start() with its own re-arm.
Dispatch run_tied_levels(bool batched) {
  sim::Simulator sim;
  pop::PsLink a(sim, 1e6);
  pop::PsLink b(sim, 1e6);
  constexpr std::uint32_t kUsers = 3;
  std::vector<int> left(kUsers, 0);
  sim::CounterStream rng(0x7135);
  pop::PsStartBatch batch;
  Dispatch log;
  const auto level = [&](std::uint32_t u) {
    const auto k = static_cast<int>(2 * rng.uniform_int(1, 4));
    left[u] = k;
    std::int64_t a_left = k / 2;
    std::int64_t b_left = k / 2;
    for (int i = 0; i < k; ++i) {
      const bool on_a = rng.uniform_int(1, a_left + b_left) <= a_left;
      (on_a ? a_left : b_left) -= 1;
      pop::PsLink& link = on_a ? a : b;
      const auto tag = static_cast<std::uint32_t>(i);
      if (batched) {
        batch.start(link, u, tag, 2'000.0);
      } else {
        link.start(u, tag, 2'000.0);
      }
    }
    if (batched) batch.rearm();
  };
  const auto done = [&](std::uint32_t u, std::uint32_t tag) {
    log.emplace_back(u, tag);
    if (--left[u] == 0) sim.after(sim::milliseconds(1), [&, u] { level(u); });
  };
  a.set_on_done(done);
  b.set_on_done(done);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    sim.at(0, [&, u] { level(u); });
  }
  sim.run_until(sim::seconds(20));
  return log;
}

TEST(PsLink, BatchedLevelStartsDispatchLikeOneByOne) {
  const Dispatch one_by_one = run_tied_levels(false);
  const Dispatch batched = run_tied_levels(true);
  ASSERT_GT(one_by_one.size(), 10'000u);
  EXPECT_EQ(batched, one_by_one);
}

TEST(PopulationSpec, ValidateRejectsBadValues) {
  pop::PopulationSpec p;
  p.users = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.mix.web = p.mix.video = p.mix.background = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.web.min_levels = 3;
  p.web.max_levels = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = {};
  p.validate();  // defaults are valid
}

TEST(CitySpec, ParseRejectsBadJson) {
  const std::string good = R"({
    "name": "t", "workload": "city", "duration_s": 1, "seed": 1,
    "channels": [{"type": "embb", "rate_mbps": 50, "rtt_ms": 40}],
    "city": {"users": 100}
  })";
  EXPECT_NO_THROW(exp::ScenarioSpec::from_json_text(good));

  // Unknown key inside the city block.
  const std::string bad_key = R"({
    "name": "t", "workload": "city", "duration_s": 1, "seed": 1,
    "channels": [{"type": "embb", "rate_mbps": 50, "rtt_ms": 40}],
    "city": {"users": 100, "bogus": 1}
  })";
  EXPECT_THROW(exp::ScenarioSpec::from_json_text(bad_key), exp::SpecError);

  // Out-of-range population.
  const std::string bad_users = R"({
    "name": "t", "workload": "city", "duration_s": 1, "seed": 1,
    "channels": [{"type": "embb", "rate_mbps": 50, "rtt_ms": 40}],
    "city": {"users": -5}
  })";
  EXPECT_THROW(exp::ScenarioSpec::from_json_text(bad_users), exp::SpecError);
}

exp::SweepSpec city_sweep() {
  return exp::SweepSpec::from_json_text(R"({
    "name": "pop_test_sweep",
    "base": {
      "name": "pop_test_sweep",
      "workload": "city",
      "duration_s": 5,
      "seed": 3,
      "channels": [
        {"type": "embb", "rate_mbps": 100, "rtt_ms": 50},
        {"type": "urllc", "rate_mbps": 5, "rtt_ms": 5}
      ],
      "city": {
        "users": 200,
        "churn": {"arrival_rate_per_s": 1, "mean_session_s": 20}
      }
    },
    "axes": {
      "city.users": [200, 400],
      "policy": ["embb-only", "dchannel"]
    }
  })");
}

TEST(CitySweep, ByteIdenticalAcrossThreadCounts) {
  const auto sweep = city_sweep();
  const auto serial = exp::run_sweep(sweep, 1);
  const auto parallel = exp::run_sweep(sweep, 4);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(exp::to_jsonl(serial), exp::to_jsonl(parallel));
  for (const auto& r : serial) EXPECT_EQ(r.error, "") << r.index;
}

TEST(CitySweep, ShardsMergeToUnshardedBytes) {
  const auto sweep = city_sweep();
  const auto whole = exp::run_sweep(sweep, 2);

  std::vector<exp::RunResult> merged;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    auto part = exp::run_sweep_shard(sweep, 2, shard, 3);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const exp::RunResult& a, const exp::RunResult& b) {
              return a.index < b.index;
            });
  EXPECT_EQ(exp::to_jsonl(merged), exp::to_jsonl(whole));
}

TEST(CitySweep, BadShardThrows) {
  const auto sweep = city_sweep();
  EXPECT_THROW(exp::run_sweep_shard(sweep, 1, 3, 3), exp::SpecError);
  EXPECT_THROW(exp::run_sweep_shard(sweep, 1, 0, 0), exp::SpecError);
}

TEST(CitySweep, PolicyAxisChangesSteering) {
  const auto sweep = city_sweep();
  const auto runs = exp::run_sweep(sweep, 4);
  ASSERT_EQ(runs.size(), 4u);
  // Axis order: city.users (200, 400) x policy (dchannel, embb-only)?
  // Don't assume ordering — find by params instead.
  for (const auto& r : runs) {
    const auto policy = r.params.at("policy");
    const double admitted = r.metrics.at("city.urllc_admitted");
    if (policy == "embb-only") {
      EXPECT_EQ(admitted, 0.0) << "run " << r.index;
    } else {
      EXPECT_GT(admitted, 0.0) << "run " << r.index;
    }
    EXPECT_GT(r.metrics.at("city.pages"), 0.0);
    EXPECT_GT(r.metrics.at("city.stats_bytes"), 0.0);
  }
}

}  // namespace
}  // namespace hvc
