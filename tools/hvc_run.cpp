// hvc_run — execute one scenario file and print/export its metrics.
//
//   hvc_run <scenario.json> [--out <prefix>] [--trace <path>]
//
// Prints the headline metrics to stdout and writes one results file,
// <prefix>.results.jsonl (default prefix: bench/out/<scenario name>, so
// generated files stay out of the repo root): the run's params, metrics
// and obs::MetricsRegistry snapshot, in the row format hvc_sweep writes.
// With --trace, the packet lifecycle tracer is enabled and its Chrome
// trace (chrome://tracing / Perfetto) is written to <path>. When the
// scenario's "telemetry" block is on, <prefix>.telemetry.jsonl (and with
// audit, <prefix>.audit.jsonl) appear too — see hvc_report.
//
// Exit codes: 0 success, 1 run error, 2 bad usage / invalid spec.
#include <cstdio>
#include <cstring>
#include <string>

#include "exp/report.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hvc_run <scenario.json> [--out <prefix>] "
               "[--trace <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hvc;
  std::string path;
  std::string prefix;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) return usage();
      prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  exp::ScenarioSpec spec;
  try {
    spec = exp::ScenarioSpec::from_file(path);
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_run: %s\n", e.what());
    return 2;
  }
  if (prefix.empty()) prefix = exp::default_out_prefix(spec.name);

  std::printf("scenario %s: workload=%s seed=%llu channels=%zu "
              "policy=%s/%s\n",
              spec.name.c_str(), spec.workload.c_str(),
              static_cast<unsigned long long>(spec.seed),
              spec.channels.size(), spec.up_policy.label().c_str(),
              spec.down_policy.label().c_str());

  exp::RunOptions opts;
  opts.out_prefix = prefix;
  opts.trace_path = trace_path;
  exp::RunResult result = exp::run_scenario(spec, opts);
  if (!result.error.empty()) {
    std::fprintf(stderr, "hvc_run: run failed: %s\n", result.error.c_str());
    return 1;
  }

  for (const auto& [name, value] : result.metrics) {
    std::printf("  %-32s %s\n", name.c_str(),
                exp::display_number(value).c_str());
  }
  std::printf("wall: %.0f ms\n", result.wall_ms);

  try {
    exp::write_file(prefix + ".results.jsonl", exp::to_jsonl({result}));
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_run: %s\n", e.what());
    return 1;
  }
  std::printf("wrote %s.results.jsonl\n", prefix.c_str());
  if (spec.telemetry.enabled) {
    std::printf("wrote %s.telemetry.jsonl%s%s\n", prefix.c_str(),
                spec.telemetry.audit ? ", " : "",
                spec.telemetry.audit ? (prefix + ".audit.jsonl").c_str() : "");
  }
  if (!trace_path.empty()) std::printf("wrote %s\n", trace_path.c_str());
  return 0;
}
