// Tests for the telemetry subsystem: TelemetrySampler ring/cap behavior
// and exports, the steering-decision audit log, the "telemetry" spec
// block, sweep byte-identity with telemetry both off and on, and the
// report library behind hvc_report.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "exp/report.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "transport/tcp.hpp"

namespace hvc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- TelemetrySampler ----

TEST(ObsTelemetry, ProbesAreNoOpWithoutActiveSampler) {
  ASSERT_EQ(obs::TelemetrySampler::active(), nullptr);
  obs::TelemetryProbes probes;
  probes.add("link", "link.x.queued_bytes", [] { return 1.0; });
  EXPECT_EQ(probes.size(), 0u);
}

TEST(ObsTelemetry, RingOverwritesOldestAndCountsTruncation) {
  obs::TelemetrySampler ts;
  obs::TelemetryConfig cfg;
  cfg.max_samples_per_series = 4;
  ts.enable(cfg);
  double v = 0;
  ASSERT_NE(ts.add_probe("link", "link.a.q", [&] { return v; }), 0u);
  for (int i = 0; i < 10; ++i) {
    v = i;
    ts.sample(sim::milliseconds(i));
  }
  ts.disable();
  EXPECT_EQ(ts.total_recorded(), 10u);
  EXPECT_EQ(ts.overwritten(), 6u);
  const auto samples = ts.samples("link.a.q");
  ASSERT_EQ(samples.size(), 4u);  // oldest four fell off the ring
  EXPECT_EQ(samples.front().at, sim::milliseconds(6));
  EXPECT_DOUBLE_EQ(samples.front().value, 6.0);
  EXPECT_EQ(samples.back().at, sim::milliseconds(9));
  EXPECT_DOUBLE_EQ(samples.back().value, 9.0);
}

TEST(ObsTelemetry, SeriesCapRefusesRegistrationAndCounts) {
  obs::TelemetrySampler ts;
  obs::TelemetryConfig cfg;
  cfg.max_series = 2;
  ts.enable(cfg);
  EXPECT_NE(ts.add_probe("link", "a", [] { return 0.0; }), 0u);
  EXPECT_NE(ts.add_probe("link", "b", [] { return 0.0; }), 0u);
  EXPECT_EQ(ts.add_probe("link", "c", [] { return 0.0; }), 0u);
  ts.disable();
  EXPECT_EQ(ts.series_count(), 2u);
  EXPECT_EQ(ts.dropped_series(), 1u);
  // The refusal is reported in the export meta line, never silent.
  EXPECT_NE(ts.to_jsonl().find("\"dropped_series\":1"), std::string::npos);
}

TEST(ObsTelemetry, GroupFilterDropsUnselectedProbes) {
  obs::TelemetrySampler ts;
  obs::TelemetryConfig cfg;
  cfg.groups = {"link"};
  ts.enable(cfg);
  EXPECT_EQ(ts.add_probe("channel", "channel.a.rate", [] { return 0.0; }),
            0u);
  EXPECT_NE(ts.add_probe("link", "link.a.q", [] { return 0.0; }), 0u);
  ts.disable();
  EXPECT_EQ(ts.series_count(), 1u);
  EXPECT_EQ(ts.dropped_series(), 0u);  // filtered out, not cap-refused
}

TEST(ObsTelemetry, AttachSamplesOnSimTimePeriod) {
  sim::Simulator sim;
  obs::TelemetrySampler ts;
  obs::TelemetryConfig cfg;
  cfg.period = sim::milliseconds(10);
  ts.enable(cfg);
  ASSERT_NE(ts.add_probe("link", "link.a.q", [] { return 7.0; }), 0u);
  ts.attach(sim);
  sim.run_until(sim::milliseconds(35));
  ts.disable();
  const auto samples = ts.samples("link.a.q");
  ASSERT_EQ(samples.size(), 3u);  // ticks at 10, 20, 30 ms
  EXPECT_EQ(samples[0].at, sim::milliseconds(10));
  EXPECT_EQ(samples[2].at, sim::milliseconds(30));
}

TEST(ObsTelemetry, ExportsOrderSeriesByName) {
  obs::TelemetrySampler ts;
  ts.enable({});
  ASSERT_NE(ts.add_probe("link", "z.last", [] { return 1.0; }), 0u);
  ASSERT_NE(ts.add_probe("link", "a.first", [] { return 2.0; }), 0u);
  ts.sample(sim::milliseconds(1));
  ts.disable();
  EXPECT_EQ(ts.series_names(),
            (std::vector<std::string>{"a.first", "z.last"}));
  const std::string jsonl = ts.to_jsonl();
  EXPECT_LT(jsonl.find("a.first"), jsonl.find("z.last"));
}

TEST(ObsTelemetry, LinkQueueProbeSeesBulkBacklog) {
  obs::TelemetrySampler ts;
  obs::TelemetryConfig cfg;
  cfg.period = sim::milliseconds(100);
  cfg.groups = {"link"};
  ts.enable(cfg);
  {
    // Scenario attaches the enabled sampler. The HVC-aware CCA holds ~1
    // BDP of standing queue once ramped: a reliable backlog signal.
    core::Scenario sc(core::ScenarioConfig::fig1());
    const auto flows = transport::make_flow_pair();
    transport::TcpSender snd(sc.server(), flows, transport::make_cca("hvc"));
    transport::TcpReceiver rcv(sc.client(), flows);
    snd.write(60'000'000);
    sc.sim().run_until(sim::seconds(6));
  }
  ts.disable();
  const auto samples = ts.samples("link.embb-down.queued_bytes");
  EXPECT_GE(samples.size(), 20u);
  double max_q = 0;
  for (const auto& s : samples) max_q = std::max(max_q, s.value);
  EXPECT_GT(max_q, 10'000.0);
}

// ---- SteeringAuditLog ----

TEST(ObsAudit, RingWrapsOldestFirstWithTrueTotal) {
  obs::SteeringAuditLog log;
  log.enable(4);
  for (int i = 0; i < 6; ++i) {
    obs::AuditRecord rec;
    rec.at = sim::milliseconds(i);
    rec.packet_id = static_cast<std::uint64_t>(i);
    rec.reason = "dchannel:default";
    rec.policy = "dchannel";
    log.record(std::move(rec));
  }
  log.disable();
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 6u);
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().packet_id, 2u);  // 0 and 1 overwritten
  EXPECT_EQ(records.back().packet_id, 5u);
}

TEST(ObsAudit, JsonlCarriesReasonAndChannelSnapshots) {
  obs::SteeringAuditLog log;
  log.enable(8);
  obs::AuditRecord rec;
  rec.at = sim::microseconds(1500);
  rec.packet_id = 9;
  rec.flow_id = 2;
  rec.size_bytes = 1500;
  rec.chosen = 1;
  rec.reason = "dchannel:small-object";
  rec.policy = "dchannel";
  rec.channels = {{2960, 50.4}, {0, 5.2}};
  log.record(std::move(rec));
  log.disable();
  const std::string jsonl = log.to_jsonl();
  EXPECT_NE(jsonl.find("\"reason\":\"dchannel:small-object\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"channels\":[{\"q\":2960"), std::string::npos);
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(
      std::string_view(jsonl).substr(0, jsonl.find('\n')), &v));
  EXPECT_DOUBLE_EQ(v.number_or("t_us", 0), 1500.0);
  EXPECT_DOUBLE_EQ(v.number_or("ch", -1), 1.0);
}

/// Records `n` decisions into a 4-record ring, writes its export next to
/// a one-run results file under `name`, and loads both as a Report, with
/// the lifecycle trace at `trace_path` when one is given.
exp::Report audit_report(const std::string& name, int n, std::string* jsonl,
                         const std::string& trace_path = "") {
  obs::SteeringAuditLog log;
  log.enable(4);
  for (int i = 0; i < n; ++i) {
    obs::AuditRecord rec;
    rec.at = sim::milliseconds(i);
    rec.packet_id = static_cast<std::uint64_t>(i);
    rec.reason = "dchannel:default";
    rec.policy = "dchannel";
    log.record(std::move(rec));
  }
  *jsonl = log.to_jsonl();
  const std::string prefix = ::testing::TempDir() + name;
  exp::RunResult run;
  run.name = name;
  exp::write_file(prefix + ".results.jsonl", exp::to_jsonl({run}));
  exp::write_file(prefix + ".audit.jsonl", *jsonl);
  return exp::Report::load(prefix, trace_path);
}

TEST(ObsAudit, UnwrappedRingExportsRecordsOnly) {
  std::string jsonl;
  const exp::Report report = audit_report("hvc_audit_whole", 4, &jsonl);
  EXPECT_EQ(jsonl.find("meta"), std::string::npos);
  EXPECT_EQ(jsonl.rfind("{\"t_us\":0.000,", 0), 0u);
  ASSERT_EQ(report.audit.size(), 4u);
  EXPECT_EQ(report.audit.front().pkt, 0u);
  EXPECT_TRUE(report.audit_meta.empty());
  EXPECT_NE(report.render_decisions().find(
                "== decision reasons (audit, 4 records) ==\n"),
            std::string::npos);
}

TEST(ObsAudit, WrappedRingExportLeadsWithOverwrittenCount) {
  std::string jsonl;
  const exp::Report report = audit_report("hvc_audit_wrapped", 10, &jsonl);
  EXPECT_EQ(jsonl.substr(0, jsonl.find('\n') + 1),
            "{\"meta\":{\"capacity\":4,\"recorded\":10,"
            "\"overwritten\":6}}\n");
  ASSERT_EQ(report.audit.size(), 4u);  // the meta line is not a record
  EXPECT_EQ(report.audit.front().pkt, 6u);
  EXPECT_DOUBLE_EQ(report.audit_meta.at("overwritten"), 6.0);
  EXPECT_NE(report.render_decisions().find(
                "== decision reasons (audit, 4 records, 6 older records "
                "overwritten) ==\n"),
            std::string::npos);
}

TEST(ExpReport, MergedTraceCarriesBothTruncationFlags) {
  // A 4-event lifecycle ring and a 4-record audit ring, each given `n`
  // entries, merged: only wrapped rings add flags.
  const auto merged = [](const std::string& name, int n) {
    obs::PacketTracer tracer;
    tracer.enable(4);
    for (int i = 0; i < n; ++i) {
      tracer.record(obs::EventKind::kTx, sim::milliseconds(i),
                    static_cast<std::uint64_t>(i), 1, 0, obs::kDirUp, 100);
    }
    tracer.disable();
    const std::string trace_path =
        ::testing::TempDir() + name + ".lifecycle.json";
    exp::write_file(trace_path, tracer.to_chrome_trace());
    std::string jsonl;
    return audit_report(name, n, &jsonl, trace_path).to_chrome_trace();
  };

  const std::string whole = merged("hvc_merged_whole", 4);
  EXPECT_EQ(whole.find("otherData"), std::string::npos);
  EXPECT_NE(whole.find("\"args\":{\"name\":\"steering decisions\"}}"),
            std::string::npos);
  EXPECT_EQ(whole.substr(whole.size() - 2), "]}");

  const std::string wrapped = merged("hvc_merged_wrapped", 10);
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(wrapped, &doc)) << wrapped;
  EXPECT_NE(wrapped.find("\"args\":{\"name\":\"steering decisions (6 older "
                         "overwritten)\"}}"),
            std::string::npos);
  const std::string flags =
      R"(,"otherData":{)"
      R"("lifecycle":{"capacity":4,"recorded":10,"overwritten":6},)"
      R"("audit":{"capacity":4,"recorded":10,"overwritten":6}}})";
  ASSERT_GT(wrapped.size(), flags.size());
  EXPECT_EQ(wrapped.substr(wrapped.size() - flags.size()), flags);
  std::size_t decisions = 0;
  for (const auto& e : doc.find("traceEvents")->array) {
    decisions += e.number_or("tid", 0) == 3000 &&
                         e.string_or("ph", "") == "i"
                     ? 1
                     : 0;
  }
  EXPECT_EQ(decisions, 4u);  // the retained records only
}

TEST(ExpReport, StreamedMergedTraceMatchesInMemoryBytes) {
  // A lifecycle trace many Writer buffers long, merged once into a
  // string and once streamed to a file: the bytes must agree.
  obs::PacketTracer tracer;
  tracer.enable(1u << 14);
  for (int i = 0; i < (1 << 14); ++i) {
    tracer.record(obs::EventKind::kTx, sim::microseconds(i),
                  static_cast<std::uint64_t>(i), 1,
                  static_cast<std::uint8_t>(i % 2), obs::kDirUp, 1200);
  }
  tracer.disable();
  const std::string prefix = ::testing::TempDir() + "hvc_merged_stream";
  const std::string trace_path = prefix + ".lifecycle.json";
  exp::write_file(trace_path, tracer.to_chrome_trace());
  ASSERT_GT(slurp(trace_path).size(), 8 * obs::json::Writer::kBufferBytes);
  std::string jsonl;
  const exp::Report report =
      audit_report("hvc_merged_stream", 10, &jsonl, trace_path);

  obs::json::Writer w(prefix + ".merged.json");
  report.write_chrome_trace(w);
  w.close();
  const std::string streamed = slurp(prefix + ".merged.json");
  EXPECT_EQ(streamed, report.to_chrome_trace());
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(streamed, &doc));
  std::size_t lifecycle_events = 0;
  for (const auto& e : doc.find("traceEvents")->array) {
    lifecycle_events += e.string_or("name", "") == "tx" ? 1 : 0;
  }
  EXPECT_EQ(lifecycle_events, std::size_t{1} << 14);
}

TEST(ExpReport, MalformedLifecycleTraceIsAnError) {
  const std::string trace_path =
      ::testing::TempDir() + "hvc_merged_bad.lifecycle.json";
  exp::write_file(trace_path, R"({"traceEvents":[{"name":"tx"},)");
  std::string jsonl;
  const exp::Report report =
      audit_report("hvc_merged_bad", 4, &jsonl, trace_path);
  EXPECT_THROW((void)report.to_chrome_trace(), exp::SpecError);
}

// ---- "telemetry" spec block ----

TEST(ExpSpecTelemetry, BlockPresenceEnablesByDefault) {
  const auto s = exp::ScenarioSpec::from_json_text(
      R"({"telemetry": {"period_ms": 5, "audit": true,
                        "series": ["channel", "steer"]}})");
  EXPECT_TRUE(s.telemetry.enabled);
  EXPECT_DOUBLE_EQ(s.telemetry.period_ms, 5.0);
  EXPECT_TRUE(s.telemetry.audit);
  EXPECT_EQ(s.telemetry.series,
            (std::vector<std::string>{"channel", "steer"}));
}

TEST(ExpSpecTelemetry, OmittedBlockStaysOffAndOutOfJson) {
  const auto s = exp::ScenarioSpec::from_json_text("{}");
  EXPECT_FALSE(s.telemetry.enabled);
  EXPECT_EQ(s.to_json().find("telemetry"), std::string::npos);
}

TEST(ExpSpecTelemetry, RoundTripsThroughToJson) {
  const auto s = exp::ScenarioSpec::from_json_text(
      R"({"telemetry": {"enabled": true, "period_ms": 2.5, "audit": true,
                        "series": ["link"], "max_samples": 64,
                        "max_series": 8, "audit_capacity": 128}})");
  const auto round = exp::ScenarioSpec::from_json_text(s.to_json());
  EXPECT_TRUE(s.telemetry == round.telemetry);
}

TEST(ExpSpecTelemetry, RejectsBadBlocks) {
  EXPECT_THROW(exp::ScenarioSpec::from_json_text(
                   R"({"telemetry": {"cadence_ms": 5}})"),
               exp::SpecError);  // unknown key
  EXPECT_THROW(exp::ScenarioSpec::from_json_text(
                   R"({"telemetry": {"series": ["queues"]}})"),
               exp::SpecError);  // not a probe group
  EXPECT_THROW(exp::ScenarioSpec::from_json_text(
                   R"({"telemetry": {"period_ms": 0}})"),
               exp::SpecError);  // period must be positive
}

// ---- Sweep byte-identity (ExpSweep*: runs under tsan too) ----

exp::SweepSpec two_run_sweep(bool telemetry) {
  std::string base = R"({
      "name": "telem", "workload": "bulk", "duration_s": 1,
      "channels": [{"type": "embb"}, {"type": "urllc"}],
      "policy": "dchannel")";
  if (telemetry) {
    base += R"(, "telemetry": {"period_ms": 5, "audit": true})";
  }
  base += "}";
  return exp::SweepSpec::from_json_text(
      R"({"name": "telem", "base": )" + base +
      R"(, "axes": {"seed": {"range": [0, 2]}}})");
}

TEST(ExpSweepTelemetry, DisabledSweepWritesNoArtifacts) {
  const std::string prefix = ::testing::TempDir() + "hvc_telem_off";
  const auto results = exp::run_sweep(two_run_sweep(false), 2, nullptr,
                                      prefix);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(
      std::filesystem::exists(prefix + ".run0.telemetry.jsonl"));
  EXPECT_FALSE(std::filesystem::exists(prefix + ".run0.audit.jsonl"));
}

TEST(ExpSweepTelemetry, PerRunArtifactsAreByteIdenticalAcrossJobs) {
  const auto sweep = two_run_sweep(true);
  const std::string p1 = ::testing::TempDir() + "hvc_telem_j1";
  const std::string p8 = ::testing::TempDir() + "hvc_telem_j8";
  const auto serial = exp::run_sweep(sweep, 1, nullptr, p1);
  const auto parallel = exp::run_sweep(sweep, 8, nullptr, p8);
  ASSERT_EQ(serial.size(), 2u);
  for (const auto& r : serial) ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(exp::to_jsonl(serial), exp::to_jsonl(parallel));
  for (int i = 0; i < 2; ++i) {
    const std::string run = ".run" + std::to_string(i);
    const std::string telemetry = slurp(p1 + run + ".telemetry.jsonl");
    ASSERT_FALSE(telemetry.empty());
    EXPECT_EQ(telemetry, slurp(p8 + run + ".telemetry.jsonl"));
    const std::string audit = slurp(p1 + run + ".audit.jsonl");
    ASSERT_FALSE(audit.empty());
    EXPECT_EQ(audit, slurp(p8 + run + ".audit.jsonl"));
  }
}

// ---- Report library (hvc_report) ----

TEST(ExpReport, ParsesTelemetryWithMetaLine) {
  std::map<std::string, double> meta;
  const auto samples = exp::Report::parse_telemetry(
      "{\"meta\":{\"period_ms\":10,\"series\":1,\"overwritten\":0}}\n"
      "{\"t_us\":10000.000,\"series\":\"link.a.queued_bytes\",\"v\":2960}\n"
      "{\"t_us\":20000.000,\"series\":\"link.a.queued_bytes\",\"v\":0}\n",
      &meta);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].t_us, 10000.0);
  EXPECT_EQ(samples[0].series, "link.a.queued_bytes");
  EXPECT_DOUBLE_EQ(samples[0].value, 2960.0);
  EXPECT_DOUBLE_EQ(meta["period_ms"], 10.0);
}

TEST(ExpReport, ParseRejectsMalformedLinesWithLineNumber) {
  try {
    (void)exp::Report::parse_audit("{\"t_us\":1}\nnot json\n", nullptr);
    FAIL() << "expected SpecError";
  } catch (const exp::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ExpReport, SummaryPrintsIntegralValuesAsIntegers) {
  EXPECT_EQ(exp::display_number(131780), "131780");
  EXPECT_EQ(exp::display_number(20), "20");
  EXPECT_EQ(exp::display_number(-0.0), "0");
  EXPECT_EQ(exp::display_number(-1), "-1");
  EXPECT_EQ(exp::display_number(53.98), "53.98");
  EXPECT_EQ(exp::display_number(0.125), "0.125");

  exp::Report report;
  report.runs.emplace_back();
  report.runs[0].name = "bulk";
  report.runs[0].params = {{"policy", "dchannel"},
                           {"resequence_hold_ms", "2e+01"}};
  report.runs[0].metrics = {{"bulk.channel0.data_packets", 131780},
                            {"bulk.goodput_mbps", 53.98},
                            {"bulk.rto_count", 20}};
  const std::string summary = report.render_summary();
  EXPECT_NE(summary.find("run 0 bulk policy=dchannel resequence_hold_ms=20\n"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find(" 131780\n"), std::string::npos) << summary;
  EXPECT_NE(summary.find(" 20\n"), std::string::npos) << summary;
  EXPECT_NE(summary.find(" 53.98\n"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("e+"), std::string::npos) << summary;
}

TEST(ExpReport, SummaryFlagsCensoredPageLoadTimes) {
  exp::Report report;
  report.runs.resize(2);
  report.runs[0].name = "slow";
  report.runs[0].metrics = {{"web.plt_ms.count", 150}, {"web.timeouts", 3}};
  report.runs[1].index = 1;
  report.runs[1].name = "fast";
  report.runs[1].metrics = {{"web.plt_ms.count", 150}, {"web.timeouts", 0}};
  const std::string summary = report.render_summary();
  const std::size_t flag = summary.find(
      "  censored: 3 of 150 loads hit the timeout and enter web.plt_ms.* at "
      "the timeout value\n");
  ASSERT_NE(flag, std::string::npos) << summary;
  // The flag belongs to the run with timeouts, and only to it.
  const std::size_t fast = summary.find("run 1 fast");
  EXPECT_LT(flag, fast);
  EXPECT_EQ(summary.find("censored", fast), std::string::npos) << summary;
}

TEST(ExpReport, EndToEndRunRendersReasonsAndTelemetry) {
  const std::string prefix = ::testing::TempDir() + "hvc_report_smoke";
  const auto spec = exp::ScenarioSpec::from_json_text(R"({
    "name": "smoke", "workload": "bulk", "duration_s": 1,
    "channels": [{"type": "embb"}, {"type": "urllc"}],
    "policy": "dchannel",
    "telemetry": {"period_ms": 5, "audit": true}
  })");
  exp::RunOptions opts;
  opts.out_prefix = prefix;
  const auto result = exp::run_scenario(spec, opts);
  ASSERT_TRUE(result.error.empty()) << result.error;
  exp::write_file(prefix + ".results.jsonl", exp::to_jsonl({result}));

  const auto report = exp::Report::load(prefix);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_FALSE(report.telemetry.empty());
  EXPECT_FALSE(report.audit.empty());
  // Every audit record carries a DChannel-family reason tag.
  for (const auto& row : report.audit) {
    EXPECT_EQ(row.reason.rfind("dchannel:", 0), 0u) << row.reason;
  }
  const std::string decisions = report.render_decisions();
  EXPECT_NE(decisions.find("decision reasons"), std::string::npos);
  EXPECT_NE(decisions.find("dchannel:"), std::string::npos);
  const std::string telemetry = report.render_telemetry();
  EXPECT_NE(telemetry.find("channel."), std::string::npos);
  EXPECT_NE(telemetry.find("transport.tcp.flow"), std::string::npos);
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(report.to_chrome_trace(), &v));
  EXPECT_FALSE(v.find("traceEvents")->array.empty());

  // The whole pipeline is deterministic: rendering a second identical
  // run produces the same report text.
  const std::string prefix2 = prefix + "_again";
  exp::RunOptions opts2;
  opts2.out_prefix = prefix2;
  const auto result2 = exp::run_scenario(spec, opts2);
  exp::write_file(prefix2 + ".results.jsonl", exp::to_jsonl({result2}));
  const auto report2 = exp::Report::load(prefix2);
  EXPECT_EQ(report.render_decisions(), report2.render_decisions());
  EXPECT_EQ(report.render_telemetry(), report2.render_telemetry());
}

}  // namespace
}  // namespace hvc
