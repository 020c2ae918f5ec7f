// hvc_perf — run the pinned-cycle hot-path suite and manage the
// BENCH_*.json perf trajectory.
//
//   hvc_perf                         full run, writes BENCH_hotpath.json
//   hvc_perf --quick                 CI smoke: scale/8, 3 repeats
//   hvc_perf --baseline BENCH_hotpath.json --check --tolerance 0.5
//                                    regression gate vs a committed manifest
//   hvc_perf --list                  registered benches, one per line
//
// Exit codes: 0 ok, 1 regression/compare failure or I/O error, 2 usage or
// no bench matched the filter.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/hotpath/harness.hpp"
#include "obs/perf_manifest.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: hvc_perf [options]\n"
      "  --quick            reduced scale + repeats (CI smoke)\n"
      "  --repeats N        measured repeats per bench (default 7)\n"
      "  --warmup N         discarded warmup repeats (default 2)\n"
      "  --filter SUBSTR    only benches whose name contains SUBSTR\n"
      "  --pin CPU          pin to CPU before measuring (default 0; -1 off)\n"
      "  --name NAME        manifest name (default hotpath)\n"
      "  --out FILE         output path (default BENCH_<name>.json)\n"
      "  --baseline FILE    manifest to compare against\n"
      "  --check            exit 1 when a bench regresses below tolerance\n"
      "  --tolerance F      allowed fractional slowdown (default 0.5)\n"
      "  --list             list registered benches and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hvc;

  bench::hotpath::SuiteOptions opts;
  std::string out_file;
  std::string baseline_file;
  bool check = false;
  bool list = false;
  double tolerance = 0.5;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hvc_perf: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--repeats") {
      opts.repeats = std::atoi(next());
    } else if (arg == "--warmup") {
      opts.warmup = std::atoi(next());
    } else if (arg == "--filter") {
      opts.filter = next();
    } else if (arg == "--pin") {
      opts.pin_cpu = std::atoi(next());
    } else if (arg == "--name") {
      opts.name = next();
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--baseline") {
      baseline_file = next();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--tolerance") {
      tolerance = std::atof(next());
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "hvc_perf: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (opts.repeats < 1 || opts.warmup < 0 || tolerance < 0.0) {
    std::fprintf(stderr, "hvc_perf: invalid repeats/warmup/tolerance\n");
    return 2;
  }

  bench::hotpath::register_default_suite();
  if (list) {
    for (const auto& def : bench::hotpath::registry()) {
      std::printf("%-24s %10llu %s\n", def.name.c_str(),
                  static_cast<unsigned long long>(def.scale),
                  def.unit.c_str());
    }
    return 0;
  }
  const auto manifest = bench::hotpath::run_suite(opts);
  if (manifest.benches.empty()) {
    std::fprintf(stderr, "hvc_perf: no benches ran (filter \"%s\")\n",
                 opts.filter.c_str());
    return 2;
  }

  if (out_file.empty()) out_file = "BENCH_" + opts.name + ".json";
  if (!manifest.write(out_file)) {
    std::fprintf(stderr, "hvc_perf: failed to write %s\n", out_file.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu benches, git %s, pinned cpu %d)\n",
              out_file.c_str(), manifest.benches.size(),
              manifest.git_sha.c_str(), manifest.pinned_cpu);

  if (baseline_file.empty()) return 0;
  const auto baseline = obs::PerfManifest::read(baseline_file);
  if (!baseline) {
    std::fprintf(stderr, "hvc_perf: cannot read baseline %s\n",
                 baseline_file.c_str());
    return 1;
  }
  const auto result = obs::compare_perf(*baseline, manifest, tolerance);
  std::printf("\nvs %s (git %s, tolerance %.0f%%):\n%s", baseline_file.c_str(),
              baseline->git_sha.c_str(), tolerance * 100.0,
              result.to_text().c_str());
  if (!result.ok && check) {
    std::fprintf(stderr, "hvc_perf: regression vs %s\n",
                 baseline_file.c_str());
    return 1;
  }
  return 0;
}
