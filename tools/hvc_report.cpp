// hvc_report — render the artifacts of a run/sweep prefix as a report.
//
//   hvc_report <prefix> [--trace <lifecycle.json>] [--merged <out.json>]
//              [--capacity <out.json>] [--explain]
//
// Ingests <prefix>.results.jsonl (required) plus <prefix>.telemetry.jsonl,
// <prefix>.audit.jsonl and <prefix>[.runN].spans.jsonl when present, and
// prints:
//   * per-run headline metrics,
//   * city-workload cohort tables (with Jain fairness) and the
//     users-vs-quality capacity curve, when city runs are present,
//   * per-channel steering-decision shares (and, with an audit log,
//     decision-reason shares per policy),
//   * per-series telemetry statistics.
// With --explain, it instead prints the critical-path explanation of
// every retained span exemplar: a stage waterfall plus an attribution
// table whose per-(component, channel) entries sum to the measured
// PLT/chunk latency exactly (integer sim-time accounting).
// With --merged, it also streams one Chrome trace (chrome://tracing /
// Perfetto) merging telemetry counter tracks, audit instant events and
// retained span trees — and, with --trace, the packet lifecycle trace on
// the same time base, read one event at a time. With --capacity, the
// capacity curves are exported as canonical JSON.
//
// All rendering lives in exp::Report (src/exp/report.*); this file is
// argument parsing and I/O only.
//
// Exit codes: 0 success, 1 I/O or parse failure, 2 bad usage.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "exp/report.hpp"
#include "exp/results.hpp"
#include "obs/json.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hvc_report <prefix> [--trace <lifecycle.json>] "
               "[--merged <out.json>] [--capacity <out.json>] [--explain]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hvc;
  std::string prefix;
  std::string trace_path;
  std::string merged_path;
  std::string capacity_path;
  bool explain = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--merged") == 0) {
      if (i + 1 >= argc) return usage();
      merged_path = argv[++i];
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      if (i + 1 >= argc) return usage();
      capacity_path = argv[++i];
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (prefix.empty()) {
      prefix = argv[i];
    } else {
      return usage();
    }
  }
  if (prefix.empty()) return usage();

  exp::Report report;
  try {
    report = exp::Report::load(prefix, trace_path);
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_report: %s\n", e.what());
    return 1;
  }

  if (explain) {
    const std::string text = report.render_explain();
    if (text.empty()) {
      std::fprintf(stderr,
                   "hvc_report: no spans artifact for '%s' (enable with a "
                   "\"spans\": {} scenario block)\n",
                   prefix.c_str());
      return 1;
    }
    std::fputs(text.c_str(), stdout);
  } else {
    std::fputs(report.render_summary().c_str(), stdout);
    std::fputs(report.render_cohorts().c_str(), stdout);
    std::fputs(report.render_capacity().c_str(), stdout);
    std::fputs(report.render_decisions().c_str(), stdout);
    std::fputs(report.render_telemetry().c_str(), stdout);
  }

  if (!capacity_path.empty()) {
    try {
      exp::write_file(capacity_path, report.capacity_json());
    } catch (const exp::SpecError& e) {
      std::fprintf(stderr, "hvc_report: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", capacity_path.c_str());
  }

  if (!merged_path.empty()) {
    try {
      obs::json::Writer w(merged_path);
      report.write_chrome_trace(w);
      w.close();
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "hvc_report: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", merged_path.c_str());
  }
  return 0;
}
