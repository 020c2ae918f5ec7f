// Tests for the causal span layer (src/obs/span) and its src/exp
// integration: exact critical-path decomposition, bounded flight
// recorders, deterministic tail/reservoir retention, O(exemplars) memory
// as the city population scales, and the artifact byte-identity contract
// (.spans.jsonl is the same at any -j and across --shard/--merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "obs/span.hpp"
#include "sim/seed.hpp"

namespace hvc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::int64_t part(const obs::SpanLeg& leg, obs::SpanComp c) {
  return leg.parts[static_cast<std::size_t>(c)];
}

/// The --explain invariant: leading propagation plus the critical leg's
/// components, summed over all stages, equals the measured total.
std::int64_t component_sum(const obs::SpanUnit& u) {
  std::int64_t sum = 0;
  for (const auto& st : u.stages) {
    sum += st.prop_ns;
    if (st.legs > 0) {
      for (const std::int64_t p : st.crit.parts) sum += p;
    }
  }
  return sum;
}

// ---- SpanUnitBuilder ----

TEST(SpanBuilder, DecompositionSumsToMeasuredTotalExactly) {
  obs::SpanUnitBuilder b;
  b.begin("web", "plt_ms", 3, 1'000'000);
  // Stage 1: 5 ms request RTT, then two parallel legs; slot 1 closes
  // last, so it is the blocking (critical) one.
  b.begin_stage(1'000'000, 5'000'000, "embb");
  b.leg_open(0, 6'000'000, 2'000, "urllc", "t:fast", 1'000'000);
  b.leg_open(1, 6'000'000, 80'000, "embb", "t:big", 3'000'000);
  b.leg_close(0, 8'000'000);
  b.leg_charge(1, obs::SpanComp::kRetransmission, 2'000'000);
  b.leg_close(1, 16'000'000);
  b.end_stage(16'000'000);
  // Stage 2: another RTT and a single 6 ms leg.
  b.begin_stage(16'000'000, 5'000'000, "embb");
  b.leg_open(0, 21'000'000, 10'000, "embb", "t:obj", 4'000'000);
  b.leg_close(0, 27'000'000);
  b.end_stage(27'000'000);
  const obs::SpanUnit u = b.finish(27'000'000, 26'000'000, 26.0);

  ASSERT_EQ(u.stages.size(), 2u);
  EXPECT_EQ(u.stages[0].legs, 2u);
  EXPECT_EQ(u.stages[0].crit.slot, 1u) << "last close wins";
  // Critical leg of stage 1 spans 10 ms: 2 ms charged retransmission,
  // 3 ms serialization hint, and the 5 ms sharing remainder as queueing.
  const obs::SpanLeg& c = u.stages[0].crit;
  EXPECT_EQ(part(c, obs::SpanComp::kRetransmission), 2'000'000);
  EXPECT_EQ(part(c, obs::SpanComp::kSerialization), 3'000'000);
  EXPECT_EQ(part(c, obs::SpanComp::kQueueing), 5'000'000);
  EXPECT_EQ(component_sum(u), 26'000'000);
}

TEST(SpanBuilder, ChargesClampToLegDurationAndSlackLandsInQueueing) {
  obs::SpanUnitBuilder b;
  b.begin("video", "frame_ms", 0, 0);
  b.begin_stage(0, 0, "");
  // Both the charge and the serialization hint exceed the observed 2 ms
  // leg duration: the charge is clamped first, the hint gets what's left
  // (nothing), so no component can overrun the leg.
  b.leg_open(0, 0, 10, "embb", "v:frame", 9'000'000);
  b.leg_charge(0, obs::SpanComp::kDecodeWait, 10'000'000);
  b.leg_close(0, 2'000'000);
  b.end_stage(2'000'000);
  // 3 ms of measured total is unattributed; finish() books it as
  // queueing on the last leg-bearing stage so the sum stays exact.
  const obs::SpanUnit u = b.finish(2'000'000, 5'000'000, 5.0);

  ASSERT_EQ(u.stages.size(), 1u);
  const obs::SpanLeg& c = u.stages[0].crit;
  EXPECT_EQ(part(c, obs::SpanComp::kDecodeWait), 2'000'000);
  EXPECT_EQ(part(c, obs::SpanComp::kSerialization), 0);
  EXPECT_EQ(part(c, obs::SpanComp::kQueueing), 3'000'000);
  EXPECT_EQ(component_sum(u), 5'000'000);
}

TEST(SpanBuilder, StageOverflowIsCountedNotAllocated) {
  obs::SpanUnitBuilder b;
  b.begin("t", "ms", 0, 0);
  const int n = static_cast<int>(obs::SpanUnitBuilder::kMaxStages) + 8;
  for (int i = 0; i < n; ++i) {
    b.begin_stage(i, 0, "");
    b.end_stage(i + 1);
  }
  const obs::SpanUnit u = b.finish(n, n, static_cast<double>(n));
  EXPECT_EQ(u.stages.size(), obs::SpanUnitBuilder::kMaxStages);
  EXPECT_EQ(b.truncated(), 8u);
}

/// The builder as it was before open legs were indexed by slot: every
/// charge and close scans the stage's legs for the first open one with
/// the slot. The reference for the model test below.
class LinearScanBuilder {
 public:
  void begin(const char* cohort, const char* metric, std::uint32_t user,
             sim::Time t0) {
    unit_ = obs::SpanUnit{};
    unit_.cohort = cohort;
    unit_.metric = metric;
    unit_.user = user;
    unit_.seq = seq_++;
    unit_.t0 = t0;
    open_.clear();
    active_ = true;
    in_stage_ = false;
  }
  void begin_stage(sim::Time t0, std::int64_t prop_ns, const char* ch) {
    if (!active_) return;
    if (unit_.stages.size() >= obs::SpanUnitBuilder::kMaxStages) {
      ++truncated_;
      in_stage_ = false;
      return;
    }
    obs::SpanStage st;
    st.t0 = t0;
    st.t1 = t0;
    st.prop_ns = prop_ns;
    st.prop_channel = ch;
    unit_.stages.push_back(st);
    open_.clear();
    in_stage_ = true;
  }
  void leg_open(std::uint32_t slot, sim::Time t0, std::int64_t bytes,
                const char* ch, const char* reason, std::int64_t hint) {
    if (!active_ || !in_stage_) return;
    ++unit_.stages.back().legs;
    if (open_.size() >= obs::SpanUnitBuilder::kMaxOpenLegs) {
      ++truncated_;
      return;
    }
    OpenLeg ol;
    ol.leg.slot = slot;
    ol.leg.t0 = t0;
    ol.leg.t1 = t0;
    ol.leg.bytes = bytes;
    ol.leg.channel = ch;
    ol.leg.reason = reason;
    ol.ser_hint_ns = hint;
    ol.open = true;
    open_.push_back(ol);
  }
  void leg_charge(std::uint32_t slot, obs::SpanComp comp, std::int64_t ns) {
    if (!active_ || !in_stage_ || ns <= 0) return;
    for (OpenLeg& ol : open_) {
      if (ol.open && ol.leg.slot == slot) {
        ol.leg.parts[static_cast<std::size_t>(comp)] += ns;
        return;
      }
    }
  }
  void leg_close(std::uint32_t slot, sim::Time t1) {
    if (!active_ || !in_stage_) return;
    for (OpenLeg& ol : open_) {
      if (!ol.open || ol.leg.slot != slot) continue;
      ol.open = false;
      obs::SpanLeg& leg = ol.leg;
      leg.t1 = t1;
      std::int64_t cap = std::max<std::int64_t>(0, t1 - leg.t0);
      for (const obs::SpanComp c :
           {obs::SpanComp::kPropagation, obs::SpanComp::kRetransmission,
            obs::SpanComp::kReorderWait, obs::SpanComp::kSteeringWait,
            obs::SpanComp::kDecodeWait}) {
        auto& p = leg.parts[static_cast<std::size_t>(c)];
        p = std::min(p, cap);
        cap -= p;
      }
      const std::int64_t ser =
          std::clamp<std::int64_t>(ol.ser_hint_ns, 0, cap);
      leg.parts[static_cast<std::size_t>(obs::SpanComp::kSerialization)] =
          ser;
      leg.parts[static_cast<std::size_t>(obs::SpanComp::kQueueing)] =
          cap - ser;
      unit_.stages.back().crit = leg;
      return;
    }
    ++truncated_;
  }
  void end_stage(sim::Time t1) {
    if (!active_ || !in_stage_) return;
    unit_.stages.back().t1 = t1;
    in_stage_ = false;
    open_.clear();
  }
  obs::SpanUnit finish(sim::Time t1, std::int64_t total_ns, double value) {
    unit_.t1 = t1;
    unit_.total_ns = total_ns;
    unit_.value = value;
    std::int64_t parts = 0;
    obs::SpanStage* last_crit = nullptr;
    for (obs::SpanStage& st : unit_.stages) {
      parts += st.prop_ns;
      if (st.legs > 0) {
        last_crit = &st;
        for (const std::int64_t p : st.crit.parts) parts += p;
      }
    }
    const std::int64_t slack = total_ns - parts;
    if (slack != 0 && last_crit != nullptr) {
      auto& q = last_crit->crit.parts[static_cast<std::size_t>(
          obs::SpanComp::kQueueing)];
      auto& s = last_crit->crit.parts[static_cast<std::size_t>(
          obs::SpanComp::kSerialization)];
      q += slack;
      if (q < 0) {
        s = std::max<std::int64_t>(0, s + q);
        q = 0;
      }
    }
    active_ = false;
    in_stage_ = false;
    open_.clear();
    return std::move(unit_);
  }
  void abort() {
    active_ = false;
    in_stage_ = false;
    open_.clear();
    unit_ = obs::SpanUnit{};
  }
  [[nodiscard]] std::uint64_t truncated() const { return truncated_; }

 private:
  struct OpenLeg {
    obs::SpanLeg leg;
    std::int64_t ser_hint_ns = 0;
    bool open = false;
  };
  obs::SpanUnit unit_;
  std::vector<OpenLeg> open_;
  std::uint64_t seq_ = 0;
  std::uint64_t truncated_ = 0;
  bool active_ = false;
  bool in_stage_ = false;
};

/// Every field of a unit, stage and critical leg, as text.
std::string describe(const obs::SpanUnit& u) {
  std::ostringstream os;
  os << u.cohort << '.' << u.metric << " user " << u.user << " seq "
     << u.seq << " [" << u.t0 << ',' << u.t1 << "] total " << u.total_ns
     << " v " << u.value << '\n';
  for (const auto& st : u.stages) {
    os << "  stage [" << st.t0 << ',' << st.t1 << "] prop " << st.prop_ns
       << ' ' << st.prop_channel << " legs " << st.legs;
    const obs::SpanLeg& c = st.crit;
    os << " crit slot " << c.slot << " [" << c.t0 << ',' << c.t1 << "] "
       << c.bytes << ' ' << c.channel << ' ' << c.reason << " parts";
    for (const std::int64_t p : c.parts) os << ' ' << p;
    os << '\n';
  }
  return os.str();
}

// The slot index against the linear scan it replaced, on random call
// sequences: slots drawn from a small alphabet (duplicates, out of
// order), slots >= 64 that share buckets with small ones, stages that
// open more than 64 legs, closes and charges of slots never opened, calls
// outside a stage, and aborted units. Every unit and the truncated()
// count must come out the same.
TEST(SpanBuilder, SlotIndexMatchesLinearScanModel) {
  obs::SpanUnitBuilder fast;
  LinearScanBuilder model;
  sim::CounterStream rng(0x5107);
  const auto draw_slot = [&rng]() -> std::uint32_t {
    const double r = rng.uniform();
    if (r < 0.6) return static_cast<std::uint32_t>(rng.uniform_int(0, 7));
    if (r < 0.8) {  // same buckets as 0..7
      return static_cast<std::uint32_t>(64 * rng.uniform_int(1, 3) +
                                        rng.uniform_int(0, 7));
    }
    return static_cast<std::uint32_t>(rng.uniform_int(0, 300));
  };
  constexpr obs::SpanComp kComps[] = {
      obs::SpanComp::kPropagation, obs::SpanComp::kRetransmission,
      obs::SpanComp::kSteeringWait, obs::SpanComp::kDecodeWait};
  int units = 0;
  int over_cap_stages = 0;
  for (int unit = 0; unit < 3'000; ++unit) {
    sim::Time now = rng.uniform_int(0, 1'000'000);
    fast.begin("t", "ms", static_cast<std::uint32_t>(unit), now);
    model.begin("t", "ms", static_cast<std::uint32_t>(unit), now);
    const auto stages = rng.uniform_int(0, 36);
    for (std::int64_t st = 0; st < stages; ++st) {
      const std::int64_t prop = rng.uniform_int(0, 5'000);
      fast.begin_stage(now, prop, "embb");
      model.begin_stage(now, prop, "embb");
      const bool wide = rng.uniform() < 0.05;
      const std::int64_t ops = wide ? rng.uniform_int(130, 200)
                                    : rng.uniform_int(0, 24);
      std::int64_t opens = 0;
      for (std::int64_t op = 0; op < ops; ++op) {
        now += rng.uniform_int(0, 1'000);
        const std::uint32_t slot = draw_slot();
        const double r = rng.uniform();
        if (r < (wide ? 0.7 : 0.45)) {
          const std::int64_t bytes = rng.uniform_int(1, 100'000);
          const std::int64_t hint = rng.uniform_int(0, 3'000);
          fast.leg_open(slot, now, bytes, "urllc", "t:o", hint);
          model.leg_open(slot, now, bytes, "urllc", "t:o", hint);
          ++opens;
        } else if (r < 0.75) {
          const auto last = static_cast<std::int64_t>(std::size(kComps)) - 1;
          const obs::SpanComp c = kComps[rng.uniform_int(0, last)];
          const std::int64_t ns = rng.uniform_int(-100, 2'000);
          fast.leg_charge(slot, c, ns);
          model.leg_charge(slot, c, ns);
        } else {
          fast.leg_close(slot, now);
          model.leg_close(slot, now);
        }
      }
      if (opens > 64) ++over_cap_stages;
      if (rng.uniform() < 0.9) {  // else: the next stage opens unclosed
        fast.end_stage(now);
        model.end_stage(now);
        // Calls between stages are ignored by both.
        fast.leg_open(1, now, 1, "embb", "t:x", 0);
        model.leg_open(1, now, 1, "embb", "t:x", 0);
        fast.leg_close(1, now);
        model.leg_close(1, now);
      }
    }
    if (rng.uniform() < 0.1) {
      fast.abort();
      model.abort();
      continue;
    }
    const obs::SpanUnit got = fast.finish(now, now, 1.0);
    const obs::SpanUnit want = model.finish(now, now, 1.0);
    ASSERT_EQ(describe(got), describe(want)) << "unit " << unit;
    ASSERT_EQ(fast.truncated(), model.truncated()) << "unit " << unit;
    ++units;
  }
  EXPECT_EQ(fast.truncated(), model.truncated());
  EXPECT_GT(units, 2'000);
  EXPECT_GT(over_cap_stages, 50);
  EXPECT_GT(fast.truncated(), 1'000u);
}

// ---- SpanRecorder retention ----

obs::SpanUnit one_stage_unit(double value) {
  obs::SpanUnitBuilder b;
  b.begin("t", "ms", 1, 0);
  b.begin_stage(0, 1'000, "embb");
  b.leg_open(0, 1'000, 100, "embb", "t:r", 500);
  b.leg_close(0, 4'000);
  b.end_stage(4'000);
  return b.finish(4'000, 4'000, value);
}

obs::SpanConfig small_config() {
  obs::SpanConfig cfg;
  cfg.tail_quantile = 90.0;
  cfg.tail_budget = 4;
  cfg.reservoir_budget = 2;
  cfg.reservoir_period = 8;
  cfg.warmup = 16;
  cfg.seed = 42;
  return cfg;
}

TEST(SpanRetention, TailRuleKeepsSlowUnitsAndStaysBounded) {
  obs::SpanRecorder rec;
  rec.enable(small_config());
  for (int i = 0; i < 64; ++i) rec.offer(one_stage_unit(10.0));
  rec.offer(one_stage_unit(500.0));  // far above the live p90
  EXPECT_EQ(rec.offered(), 65u);
  EXPECT_LE(rec.retained(), 4u + 2u);
  const std::string out = rec.to_jsonl();
  EXPECT_NE(out.find("\"keep\":\"tail\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"keep\":\"reservoir\""), std::string::npos) << out;
}

TEST(SpanRetention, ExportIsAPureFunctionOfTheOfferSequence) {
  const auto feed = [](obs::SpanRecorder* rec) {
    rec->enable(small_config());
    for (int i = 0; i < 100; ++i) {
      rec->offer(one_stage_unit(static_cast<double>((i * 37) % 91)));
    }
  };
  obs::SpanRecorder a;
  obs::SpanRecorder b;
  feed(&a);
  feed(&b);
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());

  // The reservoir is keyed by the config seed, not a shared RNG: a
  // different seed may keep different "normal" exemplars, but the export
  // stays well-formed and bounded.
  obs::SpanRecorder c;
  auto cfg = small_config();
  cfg.seed = 43;
  c.enable(cfg);
  for (int i = 0; i < 100; ++i) {
    c.offer(one_stage_unit(static_cast<double>((i * 37) % 91)));
  }
  EXPECT_LE(c.retained(), 4u + 2u);
}

TEST(SpanRetention, MemoryIsBoundedAtAnyOfferCount) {
  obs::SpanRecorder rec;
  rec.enable(small_config());
  for (int i = 0; i < 1'000; ++i) {
    rec.offer(one_stage_unit(static_cast<double>(i % 97)));
  }
  const std::size_t after_1k = rec.span_bytes();
  for (int i = 1'000; i < 10'000; ++i) {
    rec.offer(one_stage_unit(static_cast<double>(i % 97)));
  }
  EXPECT_LE(rec.retained(), 4u + 2u);
  EXPECT_EQ(rec.span_bytes(), after_1k)
      << "retention is O(exemplars): 10x the offers, same footprint";
}

// ---- City-scale integration (src/exp) ----

exp::RunResult run_city_with_spans(int users, const std::string& prefix) {
  const std::string spec_json = R"({
    "name": "span_scale", "workload": "city", "duration_s": 5, "seed": 11,
    "channels": [
      {"type": "embb", "rate_mbps": 100, "rtt_ms": 50},
      {"type": "urllc", "rate_mbps": 5, "rtt_ms": 5}
    ],
    "city": {"users": )" +
                                std::to_string(users) + R"(,
             "churn": {"arrival_rate_per_s": 1, "mean_session_s": 20}},
    "spans": {}
  })";
  const auto spec = exp::ScenarioSpec::from_json_text(spec_json);
  exp::RunOptions opts;
  opts.out_prefix = prefix;
  return exp::run_scenario(spec, opts);
}

TEST(SpanScale, ExemplarCountAndMemoryBoundedAsPopulationGrows) {
  const auto small =
      run_city_with_spans(1'000, ::testing::TempDir() + "hvc_span_1k");
  const auto large =
      run_city_with_spans(8'000, ::testing::TempDir() + "hvc_span_8k");
  ASSERT_TRUE(small.error.empty()) << small.error;
  ASSERT_TRUE(large.error.empty()) << large.error;

  // Both scales complete units (8x the users saturates the shared cell,
  // so the larger run may well finish *fewer* pages)...
  EXPECT_GT(small.metrics.at("city.spans_offered"), 0.0);
  EXPECT_GT(large.metrics.at("city.spans_offered"), 0.0);
  // ...and retention is capped per (cohort, metric) key regardless: the
  // city workload has two keys (web.plt_ms, video.latency_ms) at the
  // default budgets of 16 tail + 8 reservoir exemplars each.
  EXPECT_LE(small.metrics.at("city.spans_retained"), 2 * (16 + 8));
  EXPECT_LE(large.metrics.at("city.spans_retained"), 2 * (16 + 8));
  // The O(exemplars) claim end to end: footprint stays the same order,
  // not 8x. (Retained trees differ, so allow shape variation.)
  EXPECT_LE(large.metrics.at("city.span_bytes"),
            2.0 * small.metrics.at("city.span_bytes"));
}

// ---- Sweep artifact byte-identity ----

exp::SweepSpec span_sweep() {
  return exp::SweepSpec::from_json_text(R"({
    "name": "span_sweep",
    "base": {
      "name": "span_sweep", "workload": "city", "duration_s": 5, "seed": 3,
      "channels": [
        {"type": "embb", "rate_mbps": 100, "rtt_ms": 50},
        {"type": "urllc", "rate_mbps": 5, "rtt_ms": 5}
      ],
      "city": {"users": 300,
               "churn": {"arrival_rate_per_s": 1, "mean_session_s": 20}},
      "spans": {"warmup": 8, "reservoir_period": 16}
    },
    "axes": {"policy": ["embb-only", "dchannel"]}
  })");
}

TEST(SpanSweep, PerRunSpansAreByteIdenticalAcrossJobs) {
  const auto sweep = span_sweep();
  const std::string p1 = ::testing::TempDir() + "hvc_span_j1";
  const std::string p4 = ::testing::TempDir() + "hvc_span_j4";
  const auto serial = exp::run_sweep(sweep, 1, nullptr, p1);
  const auto parallel = exp::run_sweep(sweep, 4, nullptr, p4);
  ASSERT_EQ(serial.size(), 2u);
  for (const auto& r : serial) ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(exp::to_jsonl(serial), exp::to_jsonl(parallel));
  for (int i = 0; i < 2; ++i) {
    const std::string run = ".run" + std::to_string(i) + ".spans.jsonl";
    const std::string a = slurp(p1 + run);
    ASSERT_FALSE(a.empty()) << p1 + run;
    EXPECT_EQ(a, slurp(p4 + run)) << run;
  }
}

TEST(SpanSweep, ShardedSpansMatchUnshardedBytes) {
  const auto sweep = span_sweep();
  const std::string pw = ::testing::TempDir() + "hvc_span_whole";
  const std::string ps = ::testing::TempDir() + "hvc_span_shard";
  const auto whole = exp::run_sweep(sweep, 2, nullptr, pw);

  std::vector<exp::RunResult> merged;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    auto part = exp::run_sweep_shard(sweep, 1, shard, 2, nullptr, ps);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const exp::RunResult& a, const exp::RunResult& b) {
              return a.index < b.index;
            });
  EXPECT_EQ(exp::to_jsonl(merged), exp::to_jsonl(whole));
  // Shard artifacts carry the global run index, so each shard's
  // .spans.jsonl is byte-identical to the unsharded sweep's.
  for (int i = 0; i < 2; ++i) {
    const std::string run = ".run" + std::to_string(i) + ".spans.jsonl";
    const std::string a = slurp(pw + run);
    ASSERT_FALSE(a.empty()) << pw + run;
    EXPECT_EQ(a, slurp(ps + run)) << run;
  }
}

}  // namespace
}  // namespace hvc
