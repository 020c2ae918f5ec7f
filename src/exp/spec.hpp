// Declarative experiment specs — the JSON surface of the scenario engine.
//
// A ScenarioSpec names everything one experiment needs: the channel set
// (profiles or synthetic traces), the steering policy and its parameters,
// the transport CCA, the application workload and its knobs, duration and
// seeds. specs parse with the in-repo obs::json parser (no external
// dependency), validate strictly (unknown keys and out-of-range values
// are errors, reported with their JSON path), and round-trip through
// to_json() so tools can record exactly what ran.
//
// spec.cpp declares each block's fields once, in one field list (key,
// member, range rule, when to_json writes it) that both the parser and
// to_json walk. Every enumerated name (policy, CCA, channel type, 5G
// profile, fault kind, ...) is checked against the one table its builder
// uses (sim/names.hpp). The mapping from spec fields onto the
// src/channel, src/steer, src/transport and src/app factories lives in
// runner.cpp; this header is pure data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "pop/spec.hpp"

namespace hvc::exp {

/// Malformed or invalid scenario/sweep JSON. what() carries a
/// "<json path>: <problem>" message suitable for CLI error output.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One virtual channel. `type` names an entry of exp::kChannelTypes
/// (runner.hpp), which builds it from a channel/profile.hpp factory: the
/// fixed-characteristic embb, urllc, tsn, wifi, cisp and fiber, and the
/// trace-driven "5g" (which needs a trace::kFiveGProfiles `profile`) and
/// "leo". Negative numeric fields mean "use the factory default".
struct ChannelSpec {
  std::string type = "embb";
  std::string profile;        ///< 5g only
  double rtt_ms = -1;
  double rate_mbps = -1;
  double duration_s = -1;     ///< trace horizon (5g/leo); -1 = scenario's
  std::int64_t seed = -1;     ///< trace seed (5g/leo); -1 = scenario's

  bool operator==(const ChannelSpec&) const = default;
};

/// Steering policy. `name` accepts every core::kPolicies name; for the
/// DChannel family, `preset` (an exp::kDChannelPresets name) picks a
/// DChannelConfig baseline and the numeric fields override individual
/// knobs (negative / -1 = keep the preset's value).
struct PolicySpec {
  std::string name = "dchannel";
  std::string preset;
  double cost_factor = -1;
  double min_margin_ms = -1;
  double max_queue_fill = -1;
  double max_data_queue_fill = -1;
  double queue_risk = -1;
  int accelerate_control = -1;  ///< tri-state: -1 default / 0 / 1
  int use_flow_priority = -1;   ///< tri-state

  /// Human-readable scheme label ("dchannel+prio" style): a policy sweep
  /// axis value in results params, and hvc_run's banner.
  [[nodiscard]] std::string label() const;
  /// Whether any DChannel knob is set (to_json writes more than the
  /// name); an untuned policy is built by core::make_policy(name).
  [[nodiscard]] bool tuned() const;

  /// Parse + validate a policy value, a name or an object, as the
  /// scenario key "policy" takes it; throws SpecError.
  static PolicySpec from_json(const obs::json::Value& v);

  bool operator==(const PolicySpec&) const = default;
};

/// Table 1-style web workload (core::run_web).
struct WebSpec {
  int pages = 30;
  double landing_fraction = 0.5;
  std::int64_t corpus_seed = 2023;
  int loads_per_page = 5;
  bool background_flows = true;
  std::int64_t bg_upload_bytes = 5 * 1000;
  std::int64_t bg_download_bytes = 10 * 1000;
  int bg_flow_priority = 1;
  double per_load_timeout_s = 60;

  bool operator==(const WebSpec&) const = default;
};

/// Fig. 2-style real-time SVC video workload (core::run_video).
struct VideoSpec {
  double duration_s = -1;       ///< -1 = scenario duration
  int fps = 30;
  std::vector<double> layer_kbps = {400, 4100, 7500};
  int keyframe_interval = 30;
  double decode_wait_ms = 60;
  int lookahead_frames = 2;
  std::int64_t encoder_seed = 17;
  std::int64_t receiver_seed = 23;

  bool operator==(const VideoSpec&) const = default;
};

/// Fig. 1-style bulk download (core::run_bulk).
struct BulkSpec {
  double duration_s = -1;       ///< -1 = scenario duration

  bool operator==(const BulkSpec&) const = default;
};

/// City-cell population workload (pop::run_city): 10⁴–10⁶ archetype-mixed
/// users on a flow-level shared cell with O(1)-memory streaming
/// statistics. The cell itself comes from the scenario's channel list
/// (first "embb" = shared link, first "urllc" = scarce steering pool);
/// duration and seed come from the scenario. Runs with an "embb-only"
/// policy disable URLLC steering.
struct CitySpec {
  pop::PopulationSpec population;

  bool operator==(const CitySpec&) const = default;
};

/// One injected disruption episode (src/fault). `kind` (a
/// fault::kFaultKinds name) picks the fault and which kind-specific knobs
/// apply — supplying another kind's knob is an error, so specs can't
/// silently carry dead parameters:
///   "outage"       full blackout of the link(s) for the window
///   "rate_cliff"   capacity drops to `rate_scale` (handover cliff)
///   "ge_burst"     Gilbert-Elliott burst-loss episode (p_good_to_bad,
///                  p_bad_to_good, loss_in_bad, loss_in_good, seed)
///   "delay_spike"  `extra_delay_ms` added to propagation delay
///   "flap"         down/up toggling every `period_s`, up `up_fraction`
///                  of each period; `seed` >= 0 jitters the down spans
/// Windows of the same family (outage/flap share link availability) may
/// not overlap on the same channel+direction.
struct FaultSpec {
  std::string kind = "outage";
  std::int64_t channel = 0;
  std::string direction = "both";  ///< a fault::kFaultDirs name
  double start_s = 0;
  double duration_s = 1;
  double rate_scale = 0.1;         ///< rate_cliff only, (0, 1)
  double extra_delay_ms = 100;     ///< delay_spike only
  double p_good_to_bad = 0.05;     ///< ge_burst only
  double p_bad_to_good = 0.25;     ///< ge_burst only
  double loss_in_bad = 0.9;        ///< ge_burst only
  double loss_in_good = 0;         ///< ge_burst only
  /// ge_burst/flap RNG seed; -1 = derive from the scenario seed
  /// (ge_burst) / strictly periodic toggling (flap).
  std::int64_t seed = -1;
  double period_s = 0.5;           ///< flap only
  double up_fraction = 0.5;        ///< flap only

  bool operator==(const FaultSpec&) const = default;
};

/// Optional time-series telemetry and steering-decision audit
/// (obs/telemetry.hpp, obs/audit.hpp). The block's *presence* turns
/// sampling on (`enabled` defaults to true inside it, so `"telemetry":{}`
/// is the minimal opt-in); the runner writes `<prefix>.telemetry.jsonl`
/// and — with `audit` — `<prefix>.audit.jsonl` after the run.
struct TelemetrySpec {
  bool enabled = false;      ///< default-constructed == telemetry off
  double period_ms = 10;     ///< sim-time sampling period
  /// Probe groups to sample (obs::kProbeGroups names); empty = all.
  std::vector<std::string> series;
  bool audit = false;        ///< also record per-steer() audit log
  std::int64_t max_samples = 16384;    ///< ring capacity per series
  std::int64_t max_series = 512;       ///< series-count cap
  std::int64_t audit_capacity = 65536; ///< audit ring capacity

  bool operator==(const TelemetrySpec&) const = default;
};

/// Optional causal span tracing (obs/span.hpp). The block's presence
/// turns the recorder on (`enabled` defaults to true inside it, so
/// `"spans": {}` is the minimal opt-in); the runner writes
/// `<prefix>.spans.jsonl` after the run. Retention is tail-based: a
/// completed unit's full tree is kept when its sample lands at/above
/// `tail_quantile` of the live per-metric histogram (after `warmup`
/// samples), plus a deterministic counter-hash reservoir of normal
/// exemplars — cost is O(exemplars), never O(packets).
struct SpansSpec {
  bool enabled = false;          ///< default-constructed == spans off
  double tail_quantile = 95.0;
  std::int64_t tail_budget = 16;
  std::int64_t reservoir_budget = 8;
  std::int64_t reservoir_period = 64;
  std::int64_t warmup = 32;

  bool operator==(const SpansSpec&) const = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::string workload = "web";  ///< an exp::kWorkloads name
  double duration_s = 60;        ///< trace horizon & default run length
  std::uint64_t seed = 42;
  std::string cca = "cubic";     ///< bulk/web transports (transport::kCcas)
  std::vector<ChannelSpec> channels;  ///< default: {embb, urllc}
  PolicySpec up_policy;
  PolicySpec down_policy;
  double resequence_hold_ms = 0;
  WebSpec web;
  VideoSpec video;
  BulkSpec bulk;
  CitySpec city;
  std::vector<FaultSpec> faults;  ///< injected disruptions; empty = none
  TelemetrySpec telemetry;
  SpansSpec spans;

  /// Parse + validate. Throw SpecError with a path-qualified message on
  /// any unknown key, wrong type, or out-of-range value.
  static ScenarioSpec from_json(const obs::json::Value& v);
  static ScenarioSpec from_json_text(std::string_view text);
  static ScenarioSpec from_file(const std::string& path);

  /// Canonical serialization, each block's keys in its field-list order
  /// (spec.cpp); from_json(to_json(s)) == s.
  [[nodiscard]] std::string to_json() const;

  bool operator==(const ScenarioSpec&) const = default;
};

/// Read a whole file in one read into a string of its size; throws
/// SpecError naming the path on I/O failure (a file that is not a
/// regular file cannot be opened).
std::string read_file(const std::string& path);

}  // namespace hvc::exp
