// hvc_perfbench: one benchmark workload, one seed, one thread.
//
//   hvc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --specs <dir> --out <dir>
//
// --trace 0 times the workload untraced and prints the end-to-end metrics
// (wall_s, setup_s, peak_rss_mb). --trace 1 runs it traced and prints the
// per-layer metrics. Either way every simulation run goes through the
// correctness gate, and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code: 0 all checks passed, 1 a check failed or a run threw,
// 2 usage error. perfbench/README.md explains the design.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "obs/prof.hpp"
#include "spans.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace exp = hvc::exp;
namespace prof = hvc::obs::prof;

// Set-up is timed in repeated passes and reported as their median: at
// least kSetupMinReps passes, more while they fit in kSetupBudgetNs.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 100000;
constexpr std::int64_t kSetupBudgetNs = 1'000'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string specs;
  std::string out;
};

using ChannelNames = std::vector<std::vector<std::string>>;

/// Tallies the correctness gate over every simulation run executed.
class Gate {
 public:
  void check(const Run& run, const exp::RunResult& result,
             const std::vector<std::string>& channel_names) {
    ++attempted_;
    const auto broken = check_run(run, result, channel_names);
    if (broken.empty()) return;
    ++failed_;
    for (const auto& b : broken) {
      std::fprintf(stderr, "check failed: %s run %d: %s\n", run.part.c_str(),
                   run.run_index, b.c_str());
    }
  }
  /// Returns how many of the pass's runs failed.
  std::uint64_t check(const Pass& pass, const ChannelNames& names) {
    const std::uint64_t before = failed_;
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      check(pass.runs[i], pass.results[i], names.at(i));
    }
    return failed_ - before;
  }
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    consistent_ = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && consistent_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool consistent_ = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Human-readable table, then the one-line JSON result (last line).
int emit(const Gate& gate, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += gate.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(gate.attempted());
  line += ", \"failed\": " + std::to_string(gate.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return gate.correct() ? 0 : 1;
}

double median_s(std::vector<std::int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  const std::size_t n = ns.size();
  const double mid = n % 2 == 1
                         ? static_cast<double>(ns[n / 2])
                         : 0.5 * static_cast<double>(ns[n / 2 - 1] + ns[n / 2]);
  return mid * 1e-9;
}

double to_seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string make_dir(const std::string& base, const std::string& sub) {
  const std::string dir = base + "/" + sub;
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- --trace 0: end-to-end metrics --------------------------------------

int run_untraced(const Options& o) {
  const std::vector<Part> parts = load_workload(o.specs, o.workload, o.seed);
  const std::string out = make_dir(o.out, "untraced");
  Gate gate;

  SetupPass first = setup_pass(parts);
  const ChannelNames names = std::move(first.channel_names);

  // Untimed warm-up pass: the first pass in a process runs slower
  // (cold allocator, page faults), and its rows are the reference. The
  // peak RSS is read right after it: what one run of the workload needs,
  // and independent of how many passes the time budget later allows.
  const Pass warm = untraced_pass(parts, out);
  gate.check(warm, names);
  const double rss_mb = peak_rss_mb();

  std::vector<std::int64_t> setup_ns = {first.ns};
  const std::int64_t setup_start = now_ns();
  while (static_cast<int>(setup_ns.size()) < kSetupMinReps ||
         (now_ns() - setup_start < kSetupBudgetNs &&
          static_cast<int>(setup_ns.size()) < kSetupMaxReps)) {
    setup_ns.push_back(setup_pass(parts).ns);
  }

  std::vector<std::int64_t> wall_ns;
  std::int64_t timed = 0;
  const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
  while (wall_ns.empty() || timed < budget) {
    const Pass pass = untraced_pass(parts, out);
    gate.check(pass, names);
    gate.expect(pass.rows == warm.rows,
                "results differ between passes of the same seed");
    wall_ns.push_back(pass.ns);
    timed += pass.ns;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu set-up pass(es); "
                       "timed passes (s):",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               setup_ns.size());
  for (const std::int64_t ns : wall_ns) {
    std::fprintf(stderr, " %.4f", to_seconds(ns));
  }
  std::fprintf(stderr, "\n");
  return emit(gate, {{"wall_s", median_s(wall_ns), "s"},
                     {"setup_s", median_s(setup_ns), "s"},
                     {"peak_rss_mb", rss_mb, "MB"}});
}

// ---- --trace 1: per-layer metrics ---------------------------------------

bool strip_spans(exp::ScenarioSpec* spec) {
  if (!spec->spans.enabled) return false;
  spec->spans = exp::SpansSpec{};
  return true;
}

bool strip_telemetry(exp::ScenarioSpec* spec) {
  if (!spec->telemetry.enabled) return false;
  spec->telemetry = exp::TelemetrySpec{};
  return true;
}

/// Cost of a recorder by ablation: for each run that has it, host time of
/// exp::run_scenario with it minus without it, interleaved run by run.
/// Zero when no run of the workload has it.
std::int64_t ablation_ns(const std::vector<Part>& parts,
                         bool (*strip)(exp::ScenarioSpec*),
                         const std::string& out_dir, const ChannelNames& names,
                         Gate* gate) {
  std::int64_t delta = 0;
  std::size_t pos = 0;
  for (const Part& part : parts) {
    for (const Run& run : expand_part(part)) {
      Run off = run;
      if (strip(&off.spec)) {
        const std::int64_t t0 = now_ns();
        const exp::RunResult on_r =
            exp::run_scenario(run.spec, run_options(run, out_dir));
        const std::int64_t t1 = now_ns();
        const exp::RunResult off_r =
            exp::run_scenario(off.spec, run_options(off, out_dir));
        const std::int64_t t2 = now_ns();
        delta += (t1 - t0) - (t2 - t1);
        gate->check(run, on_r, names.at(pos));
        gate->check(off, off_r, names.at(pos));
      }
      ++pos;
    }
  }
  return delta;
}

/// Sum of RunResult::metrics[key] over the pass's runs.
double sum_metric(const Pass& pass, const std::string& key) {
  double total = 0;
  for (const auto& r : pass.results) {
    if (const auto it = r.metrics.find(key); it != r.metrics.end()) {
      total += it->second;
    }
  }
  return total;
}

/// Sum of the RunResult::obs values whose key is prefix*suffix.
double sum_obs(const Pass& pass, const std::string& prefix,
               const std::string& suffix) {
  double total = 0;
  for (const auto& r : pass.results) {
    for (const auto& [key, value] : r.obs) {
      if (key.size() >= prefix.size() + suffix.size() &&
          key.starts_with(prefix) && key.ends_with(suffix)) {
        total += value;
      }
    }
  }
  return total;
}

/// num / den, or 0 when nothing was counted.
double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int run_traced(const Options& o) {
  const std::vector<Part> parts = load_workload(o.specs, o.workload, o.seed);
  const std::string plain_dir = make_dir(o.out, "untraced");
  const std::string traced_dir = make_dir(o.out, "traced");
  const std::string ablate_dir = make_dir(o.out, "ablation");
  Gate gate;
  const ChannelNames names = setup_pass(parts).channel_names;

  const Pass warm = untraced_pass(parts, plain_dir);
  gate.check(warm, names);
  const Pass plain = untraced_pass(parts, plain_dir);
  gate.check(plain, names);
  gate.expect(plain.rows == warm.rows,
              "results differ between passes of the same seed");

  prof::reset();
  prof::enable();
  TracedPass tp = traced_pass(parts, traced_dir);
  prof::disable();
  const auto events =
      static_cast<double>(prof::stats(prof::Hook::kEventPop).calls);
  const Pass& traced = tp.pass;
  const Tracer& tr = tp.tracer;
  const std::uint64_t traced_failed = gate.check(traced, names);
  gate.expect(traced.rows == warm.rows,
              "traced exp::to_jsonl rows differ from the untraced rows");
  for (const auto& name : tp.counts.artifacts) {
    gate.expect(exp::read_file(traced_dir + "/" + name) ==
                    exp::read_file(plain_dir + "/" + name),
                "traced artifact " + name + " differs from the untraced one");
  }
  gate.expect(tr.self_sum_ns() == tr.total_ns(),
              "layer self times do not sum to the traced total");

  const std::int64_t spans_cost =
      ablation_ns(parts, strip_spans, ablate_dir, names, &gate);
  const std::int64_t telemetry_cost =
      ablation_ns(parts, strip_telemetry, ablate_dir, names, &gate);

  const auto self = [&](Layer l) { return to_seconds(tr.self_ns(l)); };
  const double sent = sum_obs(traced, "transport.tcp.packets_sent", "");
  const double retx =
      sum_obs(traced, "transport.tcp.retransmissions", "");
  const double admitted = sum_metric(traced, "city.urllc_admitted");
  const double spilled = sum_metric(traced, "city.urllc_spilled");
  const auto& c = tp.counts;
  const double total = to_seconds(tr.total_ns());
  const double unattributed = self(Layer::kBench);

  return emit(
      gate,
      {
          {"sim.events", events, "count"},
          {"sim.events_per_s", ratio(events, to_seconds(plain.ns)), "1/s"},
          {"sim.self_s", self(Layer::kSim), "s"},
          {"transport.cca_calls",
           static_cast<double>(tr.calls(Layer::kTransport)), "count"},
          {"transport.cca_self_s", self(Layer::kTransport), "s"},
          {"transport.packets_sent", sent, "count"},
          {"transport.retransmissions", retx, "count"},
          {"transport.useful_ratio", 1.0 - ratio(retx, sent), "ratio"},
          {"transport.rto_count",
           sum_obs(traced, "transport.tcp.rto_count", ""), "count"},
          {"steer.decisions", static_cast<double>(tr.calls(Layer::kSteer)),
           "count"},
          {"steer.self_s", self(Layer::kSteer), "s"},
          {"steer.urllc_share",
           ratio(static_cast<double>(c.steer_non_default),
                 static_cast<double>(tr.calls(Layer::kSteer))),
           "ratio"},
          {"net.shim_packets", sum_obs(traced, "shim.", ".packets"),
           "count"},
          {"net.unroutable", sum_obs(traced, "node.", ".unroutable"),
           "count"},
          {"channel.build_s", self(Layer::kChannel), "s"},
          {"channel.delivered_packets",
           sum_obs(traced, "link.", ".delivered_packets"), "count"},
          {"channel.dropped_packets",
           sum_obs(traced, "link.", ".dropped_queue") +
               sum_obs(traced, "link.", ".dropped_wire"),
           "count"},
          {"trace.gen_calls", static_cast<double>(c.generated_traces),
           "count"},
          {"trace.gen_s", self(Layer::kTrace), "s"},
          {"app.web.page_loads", sum_metric(traced, "web.plt_ms.count"),
           "count"},
          {"app.web.timeouts", sum_metric(traced, "web.timeouts"),
           "count"},
          {"app.video.frames_decoded",
           sum_metric(traced, "video.frames_decoded"), "count"},
          {"app.video.frames_concealed",
           sum_metric(traced, "video.frames_concealed"), "count"},
          {"pop.run_s", self(Layer::kPop), "s"},
          {"pop.arrivals", sum_metric(traced, "city.arrivals"),
           "count"},
          {"pop.pages", sum_metric(traced, "city.pages"), "count"},
          {"pop.chunks", sum_metric(traced, "city.chunks"), "count"},
          {"pop.urllc_admit_ratio", ratio(admitted, admitted + spilled),
           "ratio"},
          {"stats.bytes", sum_metric(traced, "city.stats_bytes"),
           "bytes"},
          {"obs.spans_offered",
           sum_metric(traced, "city.spans_offered"), "count"},
          {"obs.spans_retained",
           sum_metric(traced, "city.spans_retained"), "count"},
          {"obs.span_bytes", sum_metric(traced, "city.span_bytes"),
           "bytes"},
          {"obs.spans_cost_s", to_seconds(spans_cost), "s"},
          {"obs.telemetry_cost_s", to_seconds(telemetry_cost), "s"},
          {"obs.artifact_bytes", static_cast<double>(c.artifact_bytes),
           "bytes"},
          {"obs.audit_records", static_cast<double>(c.audit_records),
           "count"},
          {"exp.runs", static_cast<double>(traced.runs.size()), "count"},
          {"exp.failed_runs", static_cast<double>(traced_failed), "count"},
          {"exp.parse_s", self(Layer::kExpParse), "s"},
          {"exp.export_s", self(Layer::kExpExport), "s"},
          {"bench.coverage", ratio(total - unattributed, total), "ratio"},
          {"bench.unattributed_s", unattributed, "s"},
          {"bench.traced_total_s", total, "s"},
          {"bench.tracing_overhead_s", total - to_seconds(plain.ns), "s"},
      });
}

// ---- CLI -----------------------------------------------------------------

int usage(const char* msg) {
  std::fprintf(stderr,
               "hvc_perfbench: %s\nusage: hvc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --specs <dir> "
               "--out <dir>\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      // Seeds travel through JSON numbers; keep them exact.
      if (end == v || *end != '\0' || o.seed > (1ULL << 52)) {
        return usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (arg == "--specs") {
      o.specs = v;
    } else if (arg == "--out") {
      o.out = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.specs.empty() || o.out.empty()) {
    return usage("--specs and --out are required");
  }
  try {
    return o.trace ? run_traced(o) : run_untraced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hvc_perfbench: %s\n", e.what());
    return 1;
  }
}
