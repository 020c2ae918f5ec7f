// Post-run report assembly: ingest the artifacts one prefix's run (or
// sweep) produced — results.jsonl, telemetry.jsonl, audit.jsonl and an
// optional lifecycle Chrome trace — and render them as human-readable
// summary tables, steering-decision shares, and one merged Chrome trace
// with lifecycle, telemetry-counter and audit-instant tracks on a shared
// simulated-time base.
//
// Everything here is a pure function of the artifact text (parse_* take
// strings; load() only adds the file I/O), so tests can exercise the
// whole pipeline without touching disk and the rendered output is
// byte-deterministic for identical inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "obs/json.hpp"

namespace hvc::exp {

/// A metric value for display: integral values print as integers
/// ("131780", "20"), anything else in obs::json::number's shortest
/// round-trip form. Display only; results files keep their bytes.
[[nodiscard]] std::string display_number(double v);

/// A sweep axis value for display. ExpandedRun::params and the results
/// files hold numbers in number()'s form ("3e+04"); a numeric value
/// prints through display_number() ("30000"), anything else unchanged.
[[nodiscard]] std::string display_param(const std::string& value);

/// One telemetry sample row (`{"t_us":…,"series":…,"v":…}`).
struct ReportSample {
  double t_us = 0.0;
  std::string series;
  double value = 0.0;
};

/// One steering-audit row (see obs::SteeringAuditLog::to_jsonl).
struct ReportAuditRow {
  double t_us = 0.0;
  std::uint64_t pkt = 0;
  std::uint64_t flow = 0;
  std::string dir;     ///< "up" | "down" | "-"
  std::string type;    ///< "data" | "ack" | "control"
  std::string policy;
  std::string reason;
  int prio = 0;
  int app_prio = -1;   ///< -1 = no app header visible to the policy
  std::int64_t bytes = 0;
  int chosen = 0;
  int duplicates = 0;
};

/// The critical leg of one span stage (see obs::SpanRecorder::to_jsonl).
struct ReportSpanLeg {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t bytes = 0;
  int slot = 0;
  std::string channel;
  std::string reason;   ///< steering/policy tag (joins the audit log)
  std::map<std::string, std::int64_t> parts_ns;  ///< component -> ns
};

struct ReportSpanStage {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t prop_ns = 0;
  std::string prop_channel;
  int legs = 0;
  ReportSpanLeg crit;   ///< valid when legs > 0
};

/// One retained span exemplar (a page load / video chunk tree).
struct ReportSpanUnit {
  int run = -1;         ///< sweep run index; -1 = unsharded base artifact
  std::string key;      ///< "web.plt_ms" | "video.latency_ms" | …
  std::uint64_t n = 0;  ///< offer index within the key
  std::string keep;     ///< "tail" | "reservoir"
  std::uint64_t user = 0;
  std::uint64_t seq = 0;
  double value = 0;     ///< headline sample in cohort units
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t total_ns = 0;
  std::vector<ReportSpanStage> stages;
};

struct Report {
  std::string prefix;
  std::vector<RunResult> runs;          ///< from <prefix>.results.jsonl
  std::vector<ReportSample> telemetry;  ///< from <prefix>.telemetry.jsonl
  std::map<std::string, double> telemetry_meta;  ///< the meta line's fields
  std::vector<ReportAuditRow> audit;    ///< from <prefix>.audit.jsonl
  std::map<std::string, double> audit_meta;  ///< meta line (wrapped ring)
  std::vector<ReportSpanUnit> spans;    ///< from <prefix>[.runN].spans.jsonl
  std::map<std::string, double> spans_meta;      ///< the meta line's fields
  std::string lifecycle_trace;          ///< raw Chrome trace JSON, optional

  /// Read every artifact that exists for `prefix`. results.jsonl is
  /// required (throws SpecError when missing/unparseable); the rest are
  /// optional. `trace_path`, when non-empty, names a lifecycle Chrome
  /// trace (hvc_run --trace output) to merge into write_chrome_trace().
  static Report load(const std::string& prefix,
                     const std::string& trace_path = "");

  // ---- Parsers (throw SpecError on malformed rows) ----
  static std::vector<RunResult> parse_results(std::string_view jsonl);
  static std::vector<ReportSample> parse_telemetry(
      std::string_view jsonl, std::map<std::string, double>* meta);
  static std::vector<ReportAuditRow> parse_audit(
      std::string_view jsonl, std::map<std::string, double>* meta);
  static std::vector<ReportSpanUnit> parse_spans(
      std::string_view jsonl, std::map<std::string, double>* meta);

  // ---- Renderers (plain text, trailing newline) ----

  /// Per-run headline metrics: name, axis params, key workload numbers,
  /// numbers shown with display_number(). A web run with timed-out loads
  /// gets one more line saying how many of its PLT samples are censored
  /// at the timeout.
  [[nodiscard]] std::string render_summary() const;

  /// Steering behaviour: per-channel decision shares (from the runs' obs
  /// counters) and, when an audit log is present, decision-reason shares
  /// per policy; when its ring wrapped, the heading says how many older
  /// records were overwritten.
  [[nodiscard]] std::string render_decisions() const;

  /// Per-series telemetry statistics (count, mean, p50, p99, min, max).
  [[nodiscard]] std::string render_telemetry() const;

  /// City-workload cohort tables: one row per (cohort, metric) with the
  /// streaming stats and the cohort's Jain fairness index over per-user
  /// means ("city.jain.<cohort>"). Empty string when no run carries
  /// city cohort metrics.
  [[nodiscard]] std::string render_cohorts() const;

  /// Users-vs-quality capacity curves: runs are grouped into one curve
  /// per distinct non-population parameter set, ordered by population
  /// (the "city.users" axis, falling back to the city.users metric).
  /// Each point shows web PLT p50/p95, video latency p95, URLLC spill
  /// rate and web fairness. Empty string when fewer than one city run.
  [[nodiscard]] std::string render_capacity() const;

  /// The same capacity curves as canonical JSON
  /// ({"curves":[{"params":{…},"points":[{"users":…,…}]}]}) for
  /// downstream plotting; byte-deterministic for identical inputs.
  [[nodiscard]] std::string capacity_json() const;

  /// Critical-path explanation of every retained span exemplar: a
  /// waterfall of its stages plus a per-(component, channel) attribution
  /// table whose columns sum to the measured total exactly (integer
  /// sim-time accounting; each unit prints the check). Empty string when
  /// no spans artifact was loaded.
  [[nodiscard]] std::string render_explain() const;

  /// One merged Chrome trace: lifecycle events (if loaded; each event
  /// re-serialized with sorted keys), telemetry counter tracks, audit
  /// decisions as instant events, and retained span trees as nested
  /// duration events (one tid per exemplar, so overlapping units never
  /// break nesting). Streams into `w`; throws SpecError when the
  /// lifecycle trace is not a JSON object.
  void write_chrome_trace(obs::json::Writer& w) const;
  /// write_chrome_trace() into a string.
  [[nodiscard]] std::string to_chrome_trace() const;
};

}  // namespace hvc::exp
