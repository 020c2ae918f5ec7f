// One isolated experiment run: ScenarioSpec in, metric bundle out.
//
// run_scenario() owns the isolation contract that makes the sweep engine
// (sweep.hpp) safe to parallelize: each call installs a RunIsolation (a
// fresh registry and fresh, disabled recorders as the calling thread's
// bindings, and zeroed flow/packet id counters), builds a private
// sim::Simulator via the core::run_* helpers, and tears all of it down
// before returning. Nothing escapes into process-global state, so any
// number of runs can execute on different threads concurrently and a
// run's results depend only on its spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "core/scenario.hpp"
#include "exp/spec.hpp"
#include "net/node.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "sim/names.hpp"
#include "steer/dchannel.hpp"

namespace hvc::exp {

/// What one run installs on its thread, in installation order: the
/// registry and each recorder, every one followed by the scope that binds
/// it (obs/binding.hpp), then fresh flow/packet id counters. The
/// recorders start disabled, so their scopes mask any outer binding;
/// enable() one to record into it until the isolation ends. Members die
/// in reverse, so each scope restores the previous binding before its
/// recorder goes.
struct RunIsolation {
  obs::MetricsRegistry registry;
  obs::ScopedMetricsRegistry registry_scope{registry};
  obs::PacketTracer tracer;
  obs::ScopedPacketTracer tracer_scope{tracer};
  obs::TelemetrySampler sampler;
  obs::ScopedTelemetrySampler sampler_scope{sampler};
  obs::SteeringAuditLog audit;
  obs::ScopedSteeringAuditLog audit_scope{audit};
  obs::SpanRecorder spans;
  obs::ScopedSpanRecorder spans_scope{spans};
  net::IdScope ids;
};

struct RunResult {
  std::size_t index = 0;     ///< position in the sweep grid (0 for hvc_run)
  std::string name;          ///< scenario name
  std::map<std::string, std::string> params;  ///< sweep axis values
  std::map<std::string, double> metrics;      ///< workload headline metrics
  std::map<std::string, double> obs;          ///< MetricsRegistry snapshot
  double wall_ms = 0;  ///< host wall clock; NEVER written to aggregated
                       ///< outputs (would break -j1 vs -jN byte equality)
  std::string error;   ///< non-empty = the run threw or an artifact
                       ///< could not be written (naming its path);
                       ///< metrics and obs are then empty
};

/// Per-invocation knobs that are the *caller's* business, not the
/// spec's: where observability artifacts land and which extra recorders
/// to arm. Everything here is deterministic (no wall clock) so sweep
/// outputs stay byte-identical across -j.
struct RunOptions {
  /// Artifact path prefix for telemetry/audit/spans files. Empty = the
  /// scenario name.
  std::string out_prefix;
  /// >= 0: this run's sweep-grid index; artifact names get a ".run<i>"
  /// infix so parallel runs write distinct files.
  int run_index = -1;
  /// Non-empty: enable the packet lifecycle tracer and write its Chrome
  /// trace here after the run (hvc_run --trace).
  std::string trace_path;
};

using ChannelBuilder = channel::ChannelProfile (*)(
    const ChannelSpec&, sim::Duration trace_duration,
    std::uint64_t trace_seed);
using DChannelPreset = steer::DChannelConfig (*)();
using WorkloadRunner = void (*)(const ScenarioSpec&,
                                std::map<std::string, double>& metrics);

/// The channel types, DChannel presets and workloads a spec may name,
/// each with what this module builds from it. The spec parser accepts
/// exactly these names; core, transport, trace and fault table the
/// policies, CCAs, 5G profiles and fault kinds the same way.
extern const std::span<const sim::Named<ChannelBuilder>> kChannelTypes;
extern const std::span<const sim::Named<DChannelPreset>> kDChannelPresets;
extern const std::span<const sim::Named<WorkloadRunner>> kWorkloads;

/// Execute one scenario in full isolation (see file comment), then stream
/// its artifacts (trace, telemetry, audit, spans) to their files.
/// Exceptions from the simulation and failures to open, write or close an
/// artifact are captured into RunResult::error, not thrown; only
/// spec-independent programming errors propagate.
RunResult run_scenario(const ScenarioSpec& spec);
RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts);

/// The spec → core::ScenarioConfig mapping, exposed for equivalence tests
/// (engine output must match a direct core::run_* call with the same
/// config).
core::ScenarioConfig build_scenario_config(const ScenarioSpec& spec);

}  // namespace hvc::exp
