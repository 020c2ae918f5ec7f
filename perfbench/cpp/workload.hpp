// Benchmark workloads: which scenario files make up each one, how the
// command-line seed enters them, and the untraced passes that the
// end-to-end metrics time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "net/node.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"

namespace perfbench {

/// One scenario file of a workload with the seed substituted in.
struct Part {
  std::string name;    ///< file stem, e.g. "fig1a_cca_sweep"
  bool sweep = false;  ///< a SweepSpec ("base" + "axes"), else a ScenarioSpec
  std::string text;    ///< seeded JSON: the input the timed parse reads
};

/// One simulation run of a part, as hvc_sweep (or hvc_run) executes it.
struct Run {
  std::string part;
  hvc::exp::ScenarioSpec spec;
  std::map<std::string, std::string> params;
  int run_index = -1;  ///< grid index for sweeps; -1 for a plain scenario
};

/// Read `<dir>/<workload>/<part>.json` for every part of `workload` and
/// substitute `seed`: it becomes each scenario's seed (from which the 5G
/// trace and city seeds follow) and, mixed with a fixed salt, each web
/// corpus seed. Throws std::runtime_error on an unknown workload or a
/// missing file.
[[nodiscard]] std::vector<Part> load_workload(const std::string& dir,
                                              const std::string& workload,
                                              std::uint64_t seed);

/// Spec parse + exp::expand: the first thing hvc_sweep/hvc_run do.
[[nodiscard]] std::vector<Run> expand_part(const Part& part);

/// Options exp::run_scenario receives for `run`: artifacts named as
/// hvc_sweep names them, under `out_dir`.
[[nodiscard]] hvc::exp::RunOptions run_options(const Run& run,
                                               const std::string& out_dir);

/// The per-run isolation exp::run_scenario installs (runner.cpp), rebuilt
/// so that the set-up and traced passes construct scenarios under the same
/// recorders, enabled the same way, as the untraced pass does.
struct RunScope {
  explicit RunScope(const hvc::exp::ScenarioSpec& spec);
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  hvc::obs::MetricsRegistry registry;
  hvc::obs::ScopedMetricsRegistry metrics_scope{registry};
  hvc::obs::PacketTracer tracer;
  hvc::obs::ScopedPacketTracer tracer_scope{tracer};
  hvc::obs::TelemetrySampler sampler;
  hvc::obs::ScopedTelemetrySampler sampler_scope{sampler};
  hvc::obs::SteeringAuditLog audit;
  hvc::obs::ScopedSteeringAuditLog audit_scope{audit};
  hvc::obs::SpanRecorder spans;
  hvc::obs::ScopedSpanRecorder spans_scope{spans};
  hvc::net::IdScope ids;
};

/// One timed set-up pass: spec parse + expand, exp::build_scenario_config
/// and the core::Scenario constructor, timed on their own and summed over
/// the workload's runs. Also returns each run's channel names (in run
/// order across parts; empty for city runs) for the link check.
struct SetupPass {
  std::int64_t ns = 0;
  std::vector<std::vector<std::string>> channel_names;
};
[[nodiscard]] SetupPass setup_pass(const std::vector<Part>& parts);

/// One pass over every run of a workload.
struct Pass {
  std::int64_t ns = 0;  ///< host time of the whole pass
  std::vector<Run> runs;
  std::vector<hvc::exp::RunResult> results;
  std::string rows;     ///< exp::to_jsonl of every part, concatenated
};

/// The untraced pass: per part, parse + expand, exp::run_scenario for each
/// run on this thread, then exp::to_jsonl and the results file, as
/// `hvc_sweep -j 1` does. Artifacts land in `out_dir`.
[[nodiscard]] Pass untraced_pass(const std::vector<Part>& parts,
                                 const std::string& out_dir);

/// The correctness gate for one run. Returns the broken checks (empty =
/// the run is good): the run threw, a metric is not finite, a workload
/// count disagrees with its sample count, or a link delivered plus dropped
/// more packets than its shim sent it. `channel_names` maps the run's
/// channel indices to link names.
[[nodiscard]] std::vector<std::string> check_run(
    const Run& run, const hvc::exp::RunResult& result,
    const std::vector<std::string>& channel_names);

}  // namespace perfbench
