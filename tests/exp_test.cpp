// Tests for the scenario engine (src/exp): spec parsing/validation and
// round-trip, sweep grid expansion, engine-vs-core equivalence, CSV/JSONL
// aggregation, and the isolation machinery that makes concurrent sweeps
// deterministic. The concurrency/determinism suites are named ExpSweep*
// so the tsan stage of scripts/check.sh can select exactly them.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/scenario.hpp"
#include "exp/report.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "sim/seed.hpp"
#include "sim/units.hpp"
#include "trace/gen5g.hpp"
#include "transport/cca.hpp"

namespace hvc {
namespace {

// ---- Spec parsing and validation ----

TEST(ExpSpec, DefaultsApplyWhenFieldsOmitted) {
  const auto s = exp::ScenarioSpec::from_json_text("{}");
  EXPECT_EQ(s.workload, "web");
  EXPECT_EQ(s.cca, "cubic");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.duration_s, 60.0);
  // The default channel set is the paper's standard pair.
  ASSERT_EQ(s.channels.size(), 2u);
  EXPECT_EQ(s.channels[0].type, "embb");
  EXPECT_EQ(s.channels[1].type, "urllc");
  EXPECT_EQ(s.up_policy.name, "dchannel");
  EXPECT_EQ(s.down_policy.name, "dchannel");
}

TEST(ExpSpec, ParsesFullScenario) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "name": "t", "workload": "video", "duration_s": 90, "seed": 7,
    "channels": [
      {"type": "5g", "profile": "mmwave-driving", "duration_s": 120},
      {"type": "urllc", "rate_mbps": 4}
    ],
    "policy": {"name": "dchannel", "preset": "web-tuned",
               "use_flow_priority": true},
    "down_policy": "msg-priority",
    "video": {"duration_s": 60, "layer_kbps": [400, 4100, 7500]}
  })");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.channels.size(), 2u);
  EXPECT_EQ(s.channels[0].profile, "mmwave-driving");
  EXPECT_DOUBLE_EQ(s.channels[0].duration_s, 120.0);
  EXPECT_DOUBLE_EQ(s.channels[1].rate_mbps, 4.0);
  // "policy" sets both directions; "down_policy" then overrides down.
  EXPECT_EQ(s.up_policy.name, "dchannel");
  EXPECT_EQ(s.up_policy.preset, "web-tuned");
  EXPECT_EQ(s.up_policy.label(), "dchannel+prio");
  EXPECT_EQ(s.down_policy.name, "msg-priority");
  EXPECT_DOUBLE_EQ(s.video.duration_s, 60.0);
}

TEST(ExpSpec, RoundTripsThroughToJson) {
  const auto s = exp::ScenarioSpec::from_json_text(R"({
    "name": "rt", "workload": "bulk", "duration_s": 12.5, "seed": 3,
    "cca": "bbr",
    "channels": [{"type": "cisp", "rtt_ms": 9}, {"type": "leo", "seed": 5}],
    "up_policy": {"name": "dchannel", "cost_factor": 2.5},
    "down_policy": "min-delay",
    "resequence_hold_ms": 40
  })");
  const std::string json = s.to_json();
  const auto s2 = exp::ScenarioSpec::from_json_text(json);
  EXPECT_EQ(s2.to_json(), json);
  EXPECT_EQ(s2.cca, "bbr");
  EXPECT_DOUBLE_EQ(s2.channels[0].rtt_ms, 9.0);
  EXPECT_EQ(s2.channels[1].seed, 5);
  EXPECT_DOUBLE_EQ(s2.up_policy.cost_factor, 2.5);
  EXPECT_DOUBLE_EQ(s2.resequence_hold_ms, 40.0);
}

TEST(ExpSpec, EveryFieldOffItsDefaultRoundTripsFieldForField) {
  // Every key of every block set to a value other than its default; to_json
  // writes only the workload's own block, so each workload gets a spec.
  const std::string common = R"(
    "name": "every-field", "duration_s": 12.5, "seed": 9, "cca": "bbr",
    "channels": [
      {"type": "5g", "profile": "mmwave-driving", "rtt_ms": 7,
       "rate_mbps": 3.5, "duration_s": 20, "seed": 4},
      {"type": "cisp", "rtt_ms": 9, "rate_mbps": 12}
    ],
    "up_policy": {"name": "dchannel+prio", "preset": "web-tuned",
                  "cost_factor": 2.5, "min_margin_ms": 3,
                  "max_queue_fill": 0.7, "max_data_queue_fill": 0.6,
                  "queue_risk": 0.2, "accelerate_control": false,
                  "use_flow_priority": false},
    "down_policy": "msg-priority",
    "resequence_hold_ms": 40,
    "faults": [
      {"kind": "outage", "channel": 1, "direction": "up", "start_s": 1,
       "duration_s": 2},
      {"kind": "rate_cliff", "channel": 0, "start_s": 1, "duration_s": 2,
       "rate_scale": 0.3},
      {"kind": "ge_burst", "channel": 0, "direction": "down", "start_s": 4,
       "p_good_to_bad": 0.2, "p_bad_to_good": 0.4, "loss_in_bad": 0.5,
       "loss_in_good": 0.01, "seed": 8},
      {"kind": "delay_spike", "channel": 1, "start_s": 5,
       "extra_delay_ms": 30},
      {"kind": "flap", "channel": 1, "start_s": 7, "duration_s": 2,
       "period_s": 0.2, "up_fraction": 0.7, "seed": 3}
    ],
    "telemetry": {"enabled": false, "period_ms": 2.5,
                  "series": ["link", "pop"], "audit": true,
                  "max_samples": 64, "max_series": 8, "audit_capacity": 128},
    "spans": {"enabled": false, "tail_quantile": 90, "tail_budget": 4,
              "reservoir_budget": 2, "reservoir_period": 16, "warmup": 3},
  )";
  const std::pair<const char*, const char*> blocks[] = {
      {"web", R"({"pages": 7, "landing_fraction": 0.25, "corpus_seed": 5,
                  "loads_per_page": 2, "background_flows": false,
                  "bg_upload_bytes": 100, "bg_download_bytes": 200,
                  "bg_flow_priority": 3, "per_load_timeout_s": 9})"},
      {"video", R"({"duration_s": 4, "fps": 25, "layer_kbps": [300, 900],
                    "keyframe_interval": 10, "decode_wait_ms": 40,
                    "lookahead_frames": 1, "encoder_seed": 5,
                    "receiver_seed": 6})"},
      {"bulk", R"({"duration_s": 3})"},
      {"city", R"({"users": 50,
                   "mix": {"web": 0.5, "video": 0.3, "background": 0.2},
                   "web": {"think_time_s": 3, "min_levels": 2,
                           "max_levels": 4, "min_objects": 3,
                           "max_objects": 6, "html_min_bytes": 4096,
                           "html_max_bytes": 32768, "object_xm_bytes": 2048,
                           "object_alpha": 1.5, "object_cap_bytes": 131072},
                   "video": {"chunk_s": 2, "kbps": 800},
                   "background": {"period_s": 5, "xm_bytes": 50000,
                                  "alpha": 1.2, "cap_bytes": 1000000},
                   "churn": {"arrival_rate_per_s": 1.5,
                             "mean_session_s": 30},
                   "steer": {"enabled": false, "delay_bound_ms": 20,
                             "max_bytes": 2048}})"},
  };
  for (const auto& [workload, block] : blocks) {
    SCOPED_TRACE(workload);
    const auto s = exp::ScenarioSpec::from_json_text(
        "{" + common + R"("workload": ")" + workload + R"(", ")" + workload +
        R"(": )" + block + "}");
    const auto round = exp::ScenarioSpec::from_json_text(s.to_json());
    EXPECT_TRUE(round == s) << s.to_json();
    EXPECT_EQ(round.to_json(), s.to_json());
  }
}

TEST(ExpSpec, EveryTableNameParsesAndBuilds) {
  const auto parse = [](const std::string& json) {
    return exp::ScenarioSpec::from_json_text(json);
  };
  for (const auto& p : core::kPolicies) {
    const std::string name(p.name);
    EXPECT_NE(core::make_policy(name), nullptr) << name;
    EXPECT_EQ(parse(R"({"policy": ")" + name + R"("})").down_policy.name,
              name);
  }
  for (const auto& c : transport::kCcas) {
    const std::string name(c.name);
    EXPECT_NE(transport::make_cca(name), nullptr) << name;
    EXPECT_EQ(parse(R"({"cca": ")" + name + R"("})").cca, name);
  }
  for (const auto& t : exp::kChannelTypes) {
    const std::string name(t.name);
    const std::string profile =
        name == "5g" ? R"(, "profile": "lowband-driving")" : "";
    const auto cfg = exp::build_scenario_config(parse(
        R"({"duration_s": 1, "channels": [{"type": ")" + name + "\"" +
        profile + "}]}"));
    EXPECT_EQ(cfg.channels.size(), 1u) << name;
  }
  for (const auto& p : trace::kFiveGProfiles) {
    const std::string name(p.name);
    const auto cfg = exp::build_scenario_config(parse(
        R"({"duration_s": 1, "channels": [{"type": "5g", "profile": ")" +
        name + R"("}]})"));
    ASSERT_EQ(cfg.channels.size(), 1u);
    EXPECT_EQ(cfg.channels[0].name, "embb-" + name);
  }
  for (const auto& k : fault::kFaultKinds) {
    for (const auto& d : fault::kFaultDirs) {
      const auto cfg = exp::build_scenario_config(parse(
          R"({"duration_s": 2, "faults": [{"kind": ")" + std::string(k.name) +
          R"(", "direction": ")" + std::string(d.name) + R"("}]})"));
      ASSERT_EQ(cfg.faults.events.size(), 1u);
      EXPECT_EQ(cfg.faults.events[0].kind, k.value) << k.name;
      EXPECT_EQ(cfg.faults.events[0].dir, d.value) << d.name;
      EXPECT_NO_THROW(cfg.faults.validate(cfg.channels.size()));
    }
  }
  for (const auto& p : exp::kDChannelPresets) {
    const auto cfg = exp::build_scenario_config(parse(
        R"({"duration_s": 1, "policy": {"name": "dchannel", "preset": ")" +
        std::string(p.name) + R"("}})"));
    ASSERT_TRUE(cfg.up_factory) << p.name;
    EXPECT_NE(cfg.up_factory(), nullptr);
  }
  for (const auto& w : exp::kWorkloads) {
    EXPECT_EQ(parse(R"({"workload": ")" + std::string(w.name) + R"("})")
                  .workload,
              w.name);
  }
}

TEST(ExpSpec, RejectsMalformedInput) {
  // Syntax error.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"name\": }"),
               exp::SpecError);
  // Top-level must be an object.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("[1, 2]"),
               exp::SpecError);
  // Unknown top-level key.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"wrkload\": \"web\"}"),
               exp::SpecError);
  // Unknown workload / cca / policy / channel type.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"workload\": \"batch\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"cca\": \"reno\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"policy\": \"fastest\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"channels\": [{\"type\": \"6g\"}]}"),
               exp::SpecError);
  // 5g channels require a known profile.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"channels\": [{\"type\": \"5g\"}]}"),
               exp::SpecError);
  // Profile is only meaningful on 5g channels.
  EXPECT_THROW(
      (void)exp::ScenarioSpec::from_json_text(
          "{\"channels\": [{\"type\": \"embb\", \"profile\": \"x\"}]}"),
      exp::SpecError);
  // Wrong types and out-of-range values.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"duration_s\": \"ten\"}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"duration_s\": 0}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"seed\": -1}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"seed\": 1.5}"),
               exp::SpecError);
  // DChannel knobs on a non-dchannel policy.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text(
                   "{\"policy\": {\"name\": \"min-delay\", "
                   "\"cost_factor\": 2}}"),
               exp::SpecError);
}

TEST(ExpSpec, ErrorsCarryJsonPaths) {
  try {
    (void)exp::ScenarioSpec::from_json_text(
        "{\"channels\": [{\"type\": \"urllc\"}, {\"type\": \"5g\"}]}");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("channels.1.profile"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)exp::ScenarioSpec::from_json_text("{\"web\": {\"pages\": 0}}");
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("web.pages"), std::string::npos)
        << e.what();
  }
}

TEST(ExpSpec, ErrorMessagesNameTheFullPath) {
  // The exact text of one error per kind of path the parser builds; the
  // paths are assembled only once a field is known to be bad.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"duration_s": 0})",
       "duration_s: must be > 0"},
      {R"({"duration_s": "x"})",
       "duration_s: expected a number, got string"},
      {R"({"web": {"per_load_timeout_s": 0}})",
       "web.per_load_timeout_s: must be > 0"},
      {R"({"web": {"pages": 1.5}})",
       "web.pages: expected an integer"},
      // An int member past its type's limits, before it can wrap.
      {R"({"web": {"pages": 4294967297}})",
       "web.pages: must be <= 2147483647"},
      {R"({"video": {"fps": 4294967326}})",
       "video.fps: must be <= 2147483647"},
      {R"({"workload": "city", "city": {"web": {"max_levels": 2147483648}}})",
       "city.web.max_levels: must be <= 2147483647"},
      {R"({"video": {"layer_kbps": [1, -2]}})",
       "video.layer_kbps.1: expected a positive number"},
      {R"({"policy": {"name": "dchannel", "preset": "x"}})",
       "policy.preset: expected aggressive|web-tuned"},
      {R"({"policy": {"name": "nope"}})",
       "policy.name: unknown steering policy 'nope'"},
      {R"({"policy": {"name": "min-delay", "cost_factor": 2}})",
       "policy: policy parameters are only valid for the dchannel family"},
      {R"({"channels": [{"type": "embb", "rtt": 3}]})",
       "channels.0.rtt: unknown key"},
      {R"({"video": {"drain_s": 12}})",
       "video.drain_s: unknown key"},
      {R"({"telemetry": {"out_prefix": "out/t"}})",
       "telemetry.out_prefix: unknown key"},
      {R"({"faults": [{"kind": "outage", "channel": 0, "duration_s": 0}]})",
       "faults.0.duration_s: must be > 0"},
      {R"({"faults": [{"kind": "outage", "channel": 0, "start_s": 1,)"
       R"( "duration_s": 2}, {"kind": "flap", "channel": 0, "start_s": 2,)"
       R"( "duration_s": 2}]})",
       "faults.1: overlaps faults.0 (outage on channel 0)"},
      {R"({"workload": "city", "city": {"web": {"think_time_s": 0}}})",
       "city.web.think_time_s: must be > 0"},
      {R"({"workload": "city", "city": {"mix": {"web": -1}}})",
       "city.mix: weights must be >= 0"},
      {R"({"telemetry": {"series": ["x"]}})",
       "telemetry.series.0: expected channel|link|steer|transport|fault|pop"},
      {R"({"telemetry": {"period_ms": 0}})",
       "telemetry.period_ms: must be > 0"},
      {R"({"bulk": {"duration_s": "x"}})",
       "bulk.duration_s: expected a number, got string"},
      {R"({"spans": {"tail_budget": -1}})",
       "spans.tail_budget: must be >= 0"},
      // One row per list an error message spells out from a table.
      {R"({"channels": [{"type": "6g"}]})",
       "channels.0.type: unknown channel type '6g' "
       "(embb|urllc|5g|tsn|wifi|cisp|fiber|leo)"},
      {R"({"cca": "reno"})",
       "cca: unknown CCA 'reno' (cubic|bbr|vegas|vivace|hvc)"},
      {R"({"faults": [{"kind": "meteor"}]})",
       "faults.0.kind: unknown fault kind 'meteor' "
       "(outage|rate_cliff|ge_burst|delay_spike|flap)"},
      {R"({"channels": [{"type": "5g", "profile": "x"}]})",
       "channels.0.profile: 5g channels need profile: "
       "lowband-stationary|lowband-driving|mmwave-driving (got 'x')"},
      {R"({"faults": [{"kind": "outage", "direction": "sideways"}]})",
       "faults.0.direction: expected down|up|both"},
      {R"({"workload": "batch"})",
       "workload: expected bulk|video|web|city (got 'batch')"},
  };
  for (const auto& [spec, message] : cases) {
    try {
      (void)exp::ScenarioSpec::from_json_text(spec);
      ADD_FAILURE() << "expected SpecError for " << spec;
    } catch (const exp::SpecError& e) {
      EXPECT_STREQ(e.what(), message) << spec;
    }
  }
}

TEST(ExpSpec, NumbersMustConvertWhollyAndFinitely) {
  // 1e400 overflows a double: a syntax error, not an infinite duration.
  EXPECT_THROW(
      (void)exp::ScenarioSpec::from_json_text("{\"duration_s\": 1e400}"),
      exp::SpecError);
  // A token converts whole or not at all: "1e" is not 1, "3e+" is not 3.
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"duration_s\": 1e}"),
               exp::SpecError);
  EXPECT_THROW((void)exp::ScenarioSpec::from_json_text("{\"seed\": 3e+}"),
               exp::SpecError);
  // Underflow still reads as 0, which a positive-only field rejects.
  try {
    (void)exp::ScenarioSpec::from_json_text("{\"duration_s\": 1e-400}");
    ADD_FAILURE() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_STREQ(e.what(), "duration_s: must be > 0");
  }
  EXPECT_DOUBLE_EQ(
      exp::ScenarioSpec::from_json_text("{\"duration_s\": 25e-1}").duration_s,
      2.5);
}

// FNV-1a 64 and length of each committed scenario file's to_json() (one
// line per expanded run for a sweep), captured with the sscanf-based
// number reader: the from_chars reader must read every committed number
// to the same double. The three files with video runs were re-captured
// when the unread "video.drain_s" field left the schema; each dump is
// the earlier one with every "drain_s":12, removed.
struct SpecDigest {
  const char* file;
  std::size_t bytes;
  std::uint64_t fnv;
};

const SpecDigest kSpecDigests[] = {
    {"ablation_policy_zoo.json", 3722, 0x2e712c3508d1b816ull},
    {"ablation_resequencer.json", 1137, 0x459db55f7a45f095ull},
    {"city_cell.json", 6524, 0xdd2485567f2c3bbdull},
    {"city_cell_smoke.json", 1644, 0x3814da06963ace93ull},
    {"fig1a_cca_sweep.json", 2004, 0x3c59c5e9744ef925ull},
    {"fig2_video.json", 2423, 0xbd2b307bcca5e725ull},
    {"fig2_video_telemetry.json", 471, 0x0afda618f39ab1efull},
    {"outage_recovery.json", 370, 0x11502832c893025cull},
    {"outage_recovery_single_channel.json", 269, 0xfa40b2ee7950ac18ull},
    {"table1_sweep.json", 11192, 0x1e4bb8f07bc2e735ull},
    {"table1_web_plt.json", 2843, 0x41d19d44b040f40aull},
};

TEST(ExpSpec, CommittedScenarioFilesReadAsBefore) {
  for (const SpecDigest& d : kSpecDigests) {
    SCOPED_TRACE(d.file);
    const std::string text =
        exp::read_file(std::string(HVC_SCENARIO_DIR) + "/" + d.file);
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(text, &v));
    std::string all;
    if (v.find("base") != nullptr) {
      for (const auto& run : exp::expand(exp::SweepSpec::from_json(v))) {
        all += run.spec.to_json() + "\n";
      }
    } else {
      all = exp::ScenarioSpec::from_json(v).to_json() + "\n";
    }
    EXPECT_EQ(all.size(), d.bytes);
    EXPECT_EQ(sim::fnv1a64(all), d.fnv);
  }
}

TEST(ExpSpec, FromFileReportsPathAndMissingFiles) {
  EXPECT_THROW((void)exp::ScenarioSpec::from_file("/nonexistent/x.json"),
               exp::SpecError);
  EXPECT_THROW((void)exp::read_file("/nonexistent/x.json"), exp::SpecError);
}

// ---- Sweep expansion ----

exp::SweepSpec make_sweep(const std::string& axes_json) {
  return exp::SweepSpec::from_json_text(
      R"({"name": "s", "base": {"workload": "bulk", "duration_s": 1},
          "axes": )" +
      axes_json + "}");
}

TEST(ExpSweepSpec, ExpandsGridWithSortedAxesLastFastest) {
  const auto sweep = make_sweep(
      R"({"seed": {"range": [0, 3]}, "cca": ["cubic", "bbr"]})");
  EXPECT_EQ(sweep.run_count(), 6u);
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 6u);
  // Axes sort by path ("cca" < "seed"), so seed spins fastest.
  EXPECT_EQ(runs[0].params.at("cca"), "cubic");
  EXPECT_EQ(runs[0].params.at("seed"), "0");
  EXPECT_EQ(runs[1].params.at("seed"), "1");
  EXPECT_EQ(runs[2].params.at("seed"), "2");
  EXPECT_EQ(runs[3].params.at("cca"), "bbr");
  EXPECT_EQ(runs[3].params.at("seed"), "0");
  EXPECT_EQ(runs[3].spec.cca, "bbr");
  EXPECT_EQ(runs[5].spec.seed, 2u);
}

TEST(ExpSweepSpec, RangeSupportsStepAndRejectsBadBounds) {
  const auto sweep = make_sweep(R"({"seed": {"range": [0, 10, 4]}})");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 3u);  // 0, 4, 8
  EXPECT_EQ(runs[2].spec.seed, 8u);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [5, 1]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [0, 4, 0]}})"),
               exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"range": [0]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": {"span": [0, 4]}})"), exp::SpecError);
  EXPECT_THROW(make_sweep(R"({"seed": []})"), exp::SpecError);
}

TEST(ExpSweepSpec, AxisPathsReachIntoArraysAndObjects) {
  const auto sweep = exp::SweepSpec::from_json_text(R"({
    "base": {
      "workload": "web", "duration_s": 1,
      "channels": [{"type": "5g", "profile": "lowband-stationary"},
                   {"type": "urllc"}]
    },
    "axes": {
      "channels.0.profile": ["lowband-stationary", "lowband-driving"],
      "web.pages": [1, 2]
    }
  })");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].spec.channels[0].profile, "lowband-stationary");
  EXPECT_EQ(runs[3].spec.channels[0].profile, "lowband-driving");
  EXPECT_EQ(runs[3].spec.web.pages, 2);
  // Out-of-range array index is an error, not a silent append.
  EXPECT_THROW(
      (void)exp::expand(exp::SweepSpec::from_json_text(
          R"({"base": {"workload": "bulk", "duration_s": 1},
              "axes": {"channels.7.seed": [1]}})")),
      exp::SpecError);
}

TEST(ExpSweepSpec, PolicyAxisObjectsRenderAsSchemeLabels) {
  const auto sweep = make_sweep(
      R"({"policy": ["embb-only",
                     {"name": "dchannel", "preset": "web-tuned",
                      "use_flow_priority": true}]})");
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].params.at("policy"), "embb-only");
  EXPECT_EQ(runs[1].params.at("policy"), "dchannel+prio");
  EXPECT_TRUE(runs[1].spec.up_policy.use_flow_priority > 0);
}

TEST(ExpSweepSpec, InvalidCombinationsFailAtExpandTime) {
  // The axis splices an invalid policy into an otherwise valid base.
  const auto sweep = make_sweep(R"({"policy": ["embb-only", "warp-speed"]})");
  EXPECT_THROW((void)exp::expand(sweep), exp::SpecError);
  // Sweep files are strict about their own keys too.
  EXPECT_THROW((void)exp::SweepSpec::from_json_text(
                   R"({"base": {}, "axis": {}})"),
               exp::SpecError);
  EXPECT_THROW((void)exp::SweepSpec::from_json_text(R"({"name": "x"})"),
               exp::SpecError);
}

// expand() substitutes every run into one working document and renders
// each axis value's display string once. The reference expands each grid
// point on its own, as a one-run grid whose axes hold just that point's
// values: that run starts from a fresh copy of the base, as every run
// did before. Both must give the same spec bytes and params, run by run.
void expect_expand_matches_per_run_copies(const std::string& sweep_json) {
  const auto sweep = exp::SweepSpec::from_json_text(sweep_json);
  const auto runs = exp::expand(sweep);
  ASSERT_EQ(runs.size(), sweep.run_count());
  ASSERT_GT(runs.size(), 1u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    exp::SweepSpec point = sweep;
    std::size_t rest = i;
    for (std::size_t a = point.axes.size(); a-- > 0;) {  // last fastest
      auto& values = point.axes[a].values;
      const std::size_t n = values.size();
      values = {values[rest % n]};
      rest /= n;
    }
    const auto ref = exp::expand(point);
    ASSERT_EQ(ref.size(), 1u);
    EXPECT_EQ(runs[i].spec.to_json(), ref[0].spec.to_json()) << "run " << i;
    EXPECT_EQ(runs[i].params, ref[0].params) << "run " << i;
  }
}

TEST(ExpSweepSpec, ExpandMatchesPerRunCopiesOnTheCityGrid) {
  expect_expand_matches_per_run_copies(R"({
    "name": "city_cell",
    "base": {
      "name": "city_cell", "workload": "city", "duration_s": 60, "seed": 42,
      "channels": [
        {"type": "embb", "rate_mbps": 1000, "rtt_ms": 50},
        {"type": "urllc", "rate_mbps": 20, "rtt_ms": 5}
      ],
      "city": {"users": 1000,
               "churn": {"arrival_rate_per_s": 2, "mean_session_s": 120}},
      "spans": {}
    },
    "axes": {
      "city.users": [1000, 3000, 10000, 30000],
      "policy": ["embb-only", "dchannel"]
    }
  })");
}

TEST(ExpSweepSpec, ExpandMatchesPerRunCopiesOnAPolicyObjectAxis) {
  expect_expand_matches_per_run_copies(R"({
    "base": {"workload": "bulk", "duration_s": 1},
    "axes": {
      "policy": ["embb-only",
                 {"name": "dchannel", "preset": "web-tuned",
                  "use_flow_priority": true},
                 "min-delay"],
      "seed": {"range": [0, 3]}
    }
  })");
}

TEST(ExpSweepSpec, ExpandMatchesPerRunCopiesWhenAnAxisCreatesAKey) {
  // The base has no "web" block: the first run creates it.
  expect_expand_matches_per_run_copies(R"({
    "base": {"workload": "web", "duration_s": 1},
    "axes": {"cca": ["cubic", "bbr"], "web.pages": [1, 2, 3]}
  })");
}

TEST(ExpSweepSpec, ExpandMatchesPerRunCopiesOnNestedPaths) {
  // "channels" replaces the whole array, then "channels.1.rate_mbps"
  // writes into the array it just replaced.
  expect_expand_matches_per_run_copies(R"({
    "base": {"workload": "bulk", "duration_s": 1},
    "axes": {
      "channels": [
        [{"type": "embb", "rate_mbps": 50}, {"type": "urllc"}],
        [{"type": "embb"}, {"type": "urllc", "rate_mbps": 2, "rtt_ms": 3}]
      ],
      "channels.1.rate_mbps": [1, 4]
    }
  })");
}

TEST(ExpReport, DisplayParamPrintsIntegralAxisValuesAsIntegers) {
  const auto runs = exp::expand(exp::SweepSpec::from_json_text(R"({
    "base": {"workload": "city", "duration_s": 1},
    "axes": {"city.users": [30000], "cca": ["cubic"],
             "city.churn.mean_session_s": [0.5]}
  })"));
  ASSERT_EQ(runs.size(), 1u);
  const auto& params = runs[0].params;
  // The results files keep number()'s form; only the display changes.
  EXPECT_EQ(params.at("city.users"), "3e+04");
  EXPECT_EQ(exp::display_param(params.at("city.users")), "30000");
  EXPECT_EQ(exp::display_param(params.at("city.churn.mean_session_s")),
            "0.5");
  EXPECT_EQ(exp::display_param(params.at("cca")), "cubic");
  EXPECT_EQ(exp::display_param("embb-only"), "embb-only");
  EXPECT_EQ(exp::display_param("-2e+01"), "-20");
  EXPECT_EQ(exp::display_param("1e-05"), "1e-05");
}

// ---- Engine vs direct core run: equivalence ----

TEST(ExpRunner, MatchesDirectCoreRun) {
  // Each spec run through the engine must equal the same experiment built
  // directly on src/core: the contract the scenario files rely on to
  // reproduce the programs they replaced.
  const auto engine = [](const char* json) {
    auto result = exp::run_scenario(exp::ScenarioSpec::from_json_text(json));
    EXPECT_TRUE(result.error.empty()) << result.error;
    return result.metrics;
  };
  const auto expect_bulk_equal = [](const std::map<std::string, double>& m,
                                    const core::BulkResult& direct) {
    EXPECT_DOUBLE_EQ(m.at("bulk.goodput_mbps"), direct.goodput_bps / 1e6);
    EXPECT_DOUBLE_EQ(m.at("bulk.retransmissions"),
                     static_cast<double>(direct.retransmissions));
    EXPECT_DOUBLE_EQ(m.at("bulk.rto_count"),
                     static_cast<double>(direct.rto_count));
  };

  // Bulk, against the engine's own spec -> config mapping.
  const char* bulk = R"({
    "workload": "bulk", "duration_s": 5, "seed": 11,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel"
  })";
  const auto bulk_metrics = engine(bulk);
  {
    net::IdScope ids;
    const auto cfg =
        exp::build_scenario_config(exp::ScenarioSpec::from_json_text(bulk));
    expect_bulk_equal(bulk_metrics,
                      core::run_bulk(cfg, "cubic", sim::seconds(5)));
  }

  // Bulk with a resequencer, against ScenarioConfig::fig1().
  const auto reseq_metrics = engine(R"({
    "workload": "bulk", "duration_s": 5, "seed": 42,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel", "resequence_hold_ms": 40
  })");
  {
    net::IdScope ids;
    auto cfg = core::ScenarioConfig::fig1();
    cfg.resequence_hold = sim::milliseconds(40);
    expect_bulk_equal(reseq_metrics,
                      core::run_bulk(cfg, "cubic", sim::seconds(5)));
  }

  // Video on a 5G driving trace, shorter than the trace horizon, against
  // ScenarioConfig::traced() with default codec and receiver configs.
  const auto video_metrics = engine(R"({
    "workload": "video", "duration_s": 8, "seed": 42,
    "channels": [{"type": "5g", "profile": "lowband-driving"},
                 {"type": "urllc"}],
    "policy": "msg-priority", "video": {"duration_s": 4}
  })");
  {
    net::IdScope ids;
    const auto direct = core::run_video(
        core::ScenarioConfig::traced(trace::FiveGProfile::kLowbandDriving,
                                     "msg-priority", sim::seconds(8), 42),
        {}, {}, sim::seconds(4));
    EXPECT_DOUBLE_EQ(video_metrics.at("video.latency_ms.p95"),
                     direct.stats.latency_ms.percentile(95));
    EXPECT_DOUBLE_EQ(video_metrics.at("video.latency_ms.max"),
                     direct.stats.latency_ms.max());
    EXPECT_DOUBLE_EQ(video_metrics.at("video.ssim.mean"),
                     direct.stats.ssim.mean());
    EXPECT_DOUBLE_EQ(video_metrics.at("video.frames_decoded"),
                     static_cast<double>(direct.stats.frames_decoded));
  }
}

TEST(ExpRunner, CapturesRunErrorsInsteadOfThrowing) {
  // Bypass the parser (which would reject this) to exercise the capture
  // path: an unknown CCA makes transport::make_cca throw mid-run.
  exp::ScenarioSpec spec;
  spec.workload = "bulk";
  spec.duration_s = 1;
  exp::ChannelSpec embb;
  embb.type = "embb";
  exp::ChannelSpec urllc;
  urllc.type = "urllc";
  spec.channels = {embb, urllc};
  spec.cca = "reno";
  const auto result = exp::run_scenario(spec);
  EXPECT_NE(result.error.find("unknown CCA"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.metrics.empty());
}

/// A short bulk run that writes telemetry and audit artifacts.
constexpr const char* kArtifactSpec = R"({
  "name": "unwritable", "workload": "bulk", "duration_s": 0.5,
  "channels": [{"type": "embb"}, {"type": "urllc"}],
  "policy": "dchannel",
  "telemetry": {"period_ms": 10, "audit": true}
})";

TEST(ExpRunner, UnwritableArtifactBecomesTheRunError) {
  const std::string prefix = ::testing::TempDir() + "no_such_dir/x";
  exp::RunOptions opts;
  opts.out_prefix = prefix;
  const auto result =
      exp::run_scenario(exp::ScenarioSpec::from_json_text(kArtifactSpec), opts);
  EXPECT_EQ(result.error,
            prefix + ".telemetry.jsonl: cannot open for writing");
  EXPECT_EQ(result.name, "unwritable");
  EXPECT_TRUE(result.metrics.empty());
  EXPECT_TRUE(result.obs.empty());
}

TEST(ExpSweepArtifacts, UnwritableArtifactsFailEachRunAtAnyJobs) {
  const std::string sweep_json =
      std::string(R"({"name": "unwritable", "base": )") + kArtifactSpec +
      R"(, "axes": {"seed": {"range": [0, 3]}}})";
  const auto sweep = exp::SweepSpec::from_json_text(sweep_json);
  const std::string prefix = ::testing::TempDir() + "no_such_dir/s";
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "-j " << jobs);
    std::size_t reported = 0;
    const auto runs = exp::run_sweep(
        sweep, jobs,
        [&reported](const exp::RunResult&, std::size_t, std::size_t) {
          ++reported;
        },
        prefix);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(reported, 3u);
    for (const auto& r : runs) {
      EXPECT_EQ(r.error, prefix + ".run" + std::to_string(r.index) +
                             ".telemetry.jsonl: cannot open for writing");
      EXPECT_TRUE(r.metrics.empty());
    }
  }
}

// ---- Aggregated output ----

TEST(ExpResults, JsonlRowsParseBackAndOmitWallClock) {
  exp::RunResult a;
  a.index = 3;
  a.name = "r";
  a.params = {{"seed", "4"}};
  a.metrics = {{"web.plt_ms.mean", 123.5}};
  a.obs = {{"node.client.unroutable", 0.0}};
  a.wall_ms = 9999.0;  // must not appear in the output
  const std::string jsonl = exp::to_jsonl({a});
  EXPECT_EQ(jsonl.find("wall"), std::string::npos);
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(
      std::string_view(jsonl).substr(0, jsonl.size() - 1), &v));
  EXPECT_DOUBLE_EQ(v.number_or("run", -1), 3.0);
  EXPECT_DOUBLE_EQ(v.find("metrics")->number_or("web.plt_ms.mean", 0),
                   123.5);
}

// ---- Isolation machinery ----

TEST(ExpSweepIsolation, ScopedRegistryNestsAndIsPerThread) {
  auto& global = obs::MetricsRegistry::global();
  EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
  obs::MetricsRegistry outer;
  {
    obs::ScopedMetricsRegistry s1(outer);
    EXPECT_EQ(&obs::MetricsRegistry::current(), &outer);
    obs::MetricsRegistry inner;
    {
      obs::ScopedMetricsRegistry s2(inner);
      EXPECT_EQ(&obs::MetricsRegistry::current(), &inner);
      // A different thread is unaffected by this thread's scopes.
      std::thread([&] {
        EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
      }).join();
    }
    EXPECT_EQ(&obs::MetricsRegistry::current(), &outer);
  }
  EXPECT_EQ(&obs::MetricsRegistry::current(), &global);
}

TEST(ExpSweepIsolation, IdScopeResetsAndRestoresCounters) {
  const auto flow_before = net::flow_id_counter();
  const auto packet_before = net::packet_id_counter();
  {
    net::IdScope scope;
    EXPECT_EQ(net::flow_id_counter(), 1u);
    EXPECT_EQ(net::packet_id_counter(), 1u);
    (void)net::next_flow_id();
    EXPECT_EQ(net::flow_id_counter(), 2u);
  }
  EXPECT_EQ(net::flow_id_counter(), flow_before);
  EXPECT_EQ(net::packet_id_counter(), packet_before);
}

// ---- Concurrent sweep determinism (ExpSweep*: runs under tsan too) ----

exp::SweepSpec determinism_sweep() {
  return exp::SweepSpec::from_json_text(R"({
    "name": "det",
    "base": {
      "name": "det", "workload": "bulk", "duration_s": 2,
      "channels": [{"type": "embb"}, {"type": "urllc"}],
      "policy": "dchannel"
    },
    "axes": {
      "policy": ["embb-only", "dchannel", "min-delay"],
      "seed": {"range": [0, 3]}
    }
  })");
}

TEST(ExpSweepDeterminism, SerialAndParallelResultsAreByteIdentical) {
  const auto sweep = determinism_sweep();
  const auto serial = exp::run_sweep(sweep, 1);
  const auto parallel = exp::run_sweep(sweep, 8);
  ASSERT_EQ(serial.size(), 9u);
  EXPECT_EQ(exp::to_jsonl(serial), exp::to_jsonl(parallel));
  for (const auto& r : serial) EXPECT_TRUE(r.error.empty()) << r.error;
}

TEST(ExpSweepDeterminism, ResultsOrderedByGridIndexWithProgress) {
  const auto sweep = determinism_sweep();
  std::size_t calls = 0;
  const auto results = exp::run_sweep(
      sweep, 4, [&](const exp::RunResult&, std::size_t, std::size_t total) {
        ++calls;  // serialized by the engine's progress mutex
        EXPECT_EQ(total, 9u);
      });
  EXPECT_EQ(calls, 9u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
  }
}

TEST(ExpSweepDeterminism, ConcurrentRunsDoNotPolluteGlobalRegistry) {
  auto& global = obs::MetricsRegistry::global();
  global.reset_values();
  const auto before = global.snapshot();
  (void)exp::run_sweep(determinism_sweep(), 4);
  EXPECT_EQ(global.snapshot(), before);
}

// ---- Every workload under concurrent sweeps (ExpSweep*: runs under tsan) ----
//
// One small sweep per workload, each at -j 1 and -j 4: under
// ThreadSanitizer this puts every workload's worker path (bulk with
// faults, trace-driven video, web with background flows, city with
// spans) on more than one thread, and checks that the results and every
// per-run artifact stay byte-identical.

std::map<std::string, std::string> read_dir(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

/// Runs `sweep` at -j 1 and -j 4, each into a fresh directory, and expects
/// identical results and identical artifact files. Every name in
/// `artifacts` (e.g. ".run0.spans.jsonl") must have been written.
void expect_jobs_invariant(const std::string& sweep_json,
                           const std::vector<std::string>& artifacts) {
  const auto sweep = exp::SweepSpec::from_json_text(sweep_json);
  std::string results[2];
  std::map<std::string, std::string> files[2];
  const int jobs[2] = {1, 4};
  for (int k = 0; k < 2; ++k) {
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("hvc_all_" + sweep.name + "_j" + std::to_string(jobs[k]));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto runs =
        exp::run_sweep(sweep, jobs[k], nullptr, (dir / sweep.name).string());
    ASSERT_GE(runs.size(), 2u);
    for (const auto& r : runs) ASSERT_TRUE(r.error.empty()) << r.error;
    results[k] = exp::to_jsonl(runs);
    files[k] = read_dir(dir);
  }
  EXPECT_EQ(results[0], results[1]);
  for (const auto& name : artifacts) {
    EXPECT_TRUE(files[0].contains(sweep.name + name)) << name;
  }
  ASSERT_EQ(files[0].size(), files[1].size());
  for (const auto& [name, bytes] : files[0]) {
    ASSERT_TRUE(files[1].contains(name)) << name;
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_TRUE(bytes == files[1].at(name)) << name << " differs across -j";
  }
}

TEST(ExpSweepAllWorkloads, BulkEveryPolicyWithFaultAndAudit) {
  expect_jobs_invariant(R"({
    "name": "all_bulk",
    "base": {
      "name": "all_bulk", "workload": "bulk", "duration_s": 1, "seed": 5,
      "channels": [{"type": "embb"}, {"type": "urllc"}],
      "faults": [{"kind": "outage", "channel": 0, "start_s": 0.3,
                  "duration_s": 0.2}],
      "telemetry": {"period_ms": 10, "audit": true}
    },
    "axes": {"policy": ["embb-only", "urllc-only", "round-robin",
                        "weighted", "min-delay", "dchannel", "dchannel+prio",
                        "msg-priority", "redundant", "cost-aware",
                        "flow-binding"]}
  })",
                        {".run0.telemetry.jsonl", ".run0.audit.jsonl",
                         ".run10.telemetry.jsonl", ".run10.audit.jsonl"});
}

TEST(ExpSweepAllWorkloads, VideoOnDrivingTraceWithTelemetry) {
  expect_jobs_invariant(R"({
    "name": "all_video",
    "base": {
      "name": "all_video", "workload": "video", "duration_s": 3, "seed": 7,
      "channels": [{"type": "5g", "profile": "lowband-driving"},
                   {"type": "urllc"}],
      "video": {"duration_s": 2},
      "telemetry": {"period_ms": 20}
    },
    "axes": {"policy": ["embb-only", "dchannel"]}
  })",
                        {".run0.telemetry.jsonl", ".run1.telemetry.jsonl"});
}

TEST(ExpSweepAllWorkloads, WebWithBackgroundFlows) {
  expect_jobs_invariant(R"({
    "name": "all_web",
    "base": {
      "name": "all_web", "workload": "web", "duration_s": 30, "seed": 9,
      "channels": [{"type": "5g", "profile": "lowband-stationary"},
                   {"type": "urllc"}],
      "web": {"pages": 2, "loads_per_page": 1, "background_flows": true}
    },
    "axes": {"policy": ["embb-only", "dchannel"]}
  })",
                        {});
}

TEST(ExpSweepAllWorkloads, CityWithSpans) {
  expect_jobs_invariant(R"({
    "name": "all_city",
    "base": {
      "name": "all_city", "workload": "city", "duration_s": 5, "seed": 3,
      "channels": [
        {"type": "embb", "rate_mbps": 100, "rtt_ms": 50},
        {"type": "urllc", "rate_mbps": 5, "rtt_ms": 5}
      ],
      "city": {"users": 300,
               "churn": {"arrival_rate_per_s": 1, "mean_session_s": 20}},
      "spans": {"warmup": 8, "reservoir_period": 16}
    },
    "axes": {"policy": ["embb-only", "dchannel"]}
  })",
                        {".run0.spans.jsonl", ".run1.spans.jsonl"});
}

}  // namespace
}  // namespace hvc
