#include "exp/spec.hpp"

#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/scenario.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"
#include "trace/gen5g.hpp"
#include "transport/cca.hpp"

namespace hvc::exp {

namespace {

using obs::json::Value;

// ---- Paths and errors -----------------------------------------------------

/// A JSON path, turned into text only on the way to an error: each level
/// points at its parent. The root names the document ("scenario") and is
/// left out of its children's paths.
struct Path {
  static constexpr std::size_t kKey = ~std::size_t{0};
  const Path* parent = nullptr;
  std::string_view key;
  std::size_t index = kKey;  ///< an array element's index

  [[nodiscard]] Path operator/(std::string_view k) const { return {this, k}; }
  [[nodiscard]] Path operator[](std::size_t i) const { return {this, {}, i}; }

  [[nodiscard]] std::string str() const {
    if (parent == nullptr) return std::string(key);
    std::string out =
        parent->parent == nullptr ? std::string() : parent->str() + '.';
    return index == kKey ? out.append(key) : out + std::to_string(index);
  }
};

[[noreturn]] void fail(const Path& p, std::string_view problem) {
  throw SpecError(p.str() + ": " + std::string(problem));
}

[[noreturn]] void fail_type(const Path& p, std::string_view expected,
                            const Value& v) {
  // Indexed by Value::Kind.
  constexpr const char* kNames[] = {"null",   "bool",  "number",
                                    "string", "array", "object"};
  fail(p, "expected " + std::string(expected) + ", got " +
              kNames[static_cast<int>(v.kind)]);
}

/// Fails with `problem`, in which %v stands for `value` and %l for the
/// names of `table` joined by '|'.
template <typename Table>
[[noreturn]] void fail_name(const Path& p, std::string_view problem,
                            std::string_view value, const Table& table) {
  std::string text;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    if (problem[i] != '%') {
      text += problem[i];
    } else if (problem[++i] == 'v') {
      text += value;
    } else {  // %l
      for (const auto& entry : table) text.append(sim::name_of(entry)) += '|';
      text.pop_back();
    }
  }
  fail(p, text);
}

// ---- Field lists ----------------------------------------------------------

/// The range a numeric field's value must fall in.
enum class Range : std::uint8_t {
  kAny,
  kPositive,     ///< > 0
  kNonNegative,  ///< >= 0
  kUnit,         ///< [0, 1]
  kOpenUnit,     ///< (0, 1)
  kPercent,      ///< [0, 100]
  kSeed,         ///< >= 0, or -1 for "derive the default"
};

/// When to_json writes a field.
enum class Emit : std::uint8_t {
  kAlways,
  kNever,       ///< an alias that only sets other members
  kIfSet,       ///< numbers >= 0, non-empty strings and lists: -1 and ""
                ///< mean "use the default"
  kIfChanged,   ///< differs from the block's default
  kIfWorkload,  ///< the block named after the scenario's workload
};

using enum Range;
using enum Emit;

/// The problem with `v` under `r`; nullptr when it is in range.
const char* range_problem(double v, Range r) {
  switch (r) {
    case kAny: return nullptr;
    case kPositive: return v > 0 ? nullptr : "must be > 0";
    case kNonNegative: return v >= 0 ? nullptr : "must be >= 0";
    case kUnit: return v >= 0 && v <= 1 ? nullptr : "must be in [0, 1]";
    case kOpenUnit: return v > 0 && v < 1 ? nullptr : "must be in (0, 1)";
    case kPercent: return v >= 0 && v <= 100 ? nullptr : "must be in [0, 100]";
    case kSeed: return v >= -1 ? nullptr : "must be >= 0 (or -1 for default)";
  }
  return nullptr;
}

/// A field: its key, the member it fills, the range its value must fall
/// in and when to_json writes it. `kinds` marks a fault knob: one bit
/// per fault::FaultKind it belongs to (0 = every kind).
template <typename S, typename M>
struct Field {
  std::string_view key;
  M S::*member;
  Range range = kAny;
  Emit emit = kAlways;
  std::uint8_t kinds = 0;
};

/// A field whose string value, or each string of its list, must name an
/// entry of `table`; `problem` is the error text (see fail_name). A
/// kIfSet choice may be empty.
template <typename S, typename M, typename Table>
struct Choice {
  std::string_view key;
  M S::*member;
  const Table* table;
  std::string_view problem;
  Emit emit = kAlways;
};

/// A true/false knob kept as an int: -1 until a spec sets it to 0 or 1.
template <typename S>
struct Toggle {
  std::string_view key;
  int S::*member;
  Emit emit = kIfSet;
};

/// A key that sets `member` and then copies it to `also`, and is never
/// written: "policy" sets both directions' policies, which "up_policy"
/// and "down_policy" later in the list then override.
template <typename S, typename M>
struct Both {
  std::string_view key;
  M S::*member;
  M S::*also;
  Emit emit = kNever;
};

template <fault::FaultKind... K>
constexpr std::uint8_t kKinds = ((1u << static_cast<unsigned>(K)) | ...);

/// Each block's field list, in the order to_json writes its keys.
template <typename S>
constexpr std::tuple<> kFields{};

template <>
constexpr auto kFields<ChannelSpec> = std::tuple{
    Choice{"type", &ChannelSpec::type, &kChannelTypes,
           "unknown channel type '%v' (%l)"},
    Field{"profile", &ChannelSpec::profile, kAny, kIfSet},
    Field{"rtt_ms", &ChannelSpec::rtt_ms, kAny, kIfSet},
    Field{"rate_mbps", &ChannelSpec::rate_mbps, kAny, kIfSet},
    Field{"duration_s", &ChannelSpec::duration_s, kAny, kIfSet},
    Field{"seed", &ChannelSpec::seed, kAny, kIfSet},
};

template <>
constexpr auto kFields<PolicySpec> = std::tuple{
    Choice{"name", &PolicySpec::name, &core::kPolicies,
           "unknown steering policy '%v'"},
    Choice{"preset", &PolicySpec::preset, &kDChannelPresets, "expected %l",
           kIfSet},
    Field{"cost_factor", &PolicySpec::cost_factor, kAny, kIfSet},
    Field{"min_margin_ms", &PolicySpec::min_margin_ms, kAny, kIfSet},
    Field{"max_queue_fill", &PolicySpec::max_queue_fill, kAny, kIfSet},
    Field{"max_data_queue_fill", &PolicySpec::max_data_queue_fill, kAny,
          kIfSet},
    Field{"queue_risk", &PolicySpec::queue_risk, kAny, kIfSet},
    Toggle{"accelerate_control", &PolicySpec::accelerate_control},
    Toggle{"use_flow_priority", &PolicySpec::use_flow_priority},
};

template <>
constexpr auto kFields<WebSpec> = std::tuple{
    Field{"pages", &WebSpec::pages, kPositive},
    Field{"landing_fraction", &WebSpec::landing_fraction, kUnit},
    Field{"corpus_seed", &WebSpec::corpus_seed},
    Field{"loads_per_page", &WebSpec::loads_per_page, kPositive},
    Field{"background_flows", &WebSpec::background_flows},
    Field{"bg_upload_bytes", &WebSpec::bg_upload_bytes},
    Field{"bg_download_bytes", &WebSpec::bg_download_bytes},
    Field{"bg_flow_priority", &WebSpec::bg_flow_priority},
    Field{"per_load_timeout_s", &WebSpec::per_load_timeout_s, kPositive},
};

template <>
constexpr auto kFields<VideoSpec> = std::tuple{
    Field{"duration_s", &VideoSpec::duration_s, kAny, kIfSet},
    Field{"fps", &VideoSpec::fps, kPositive},
    Field{"layer_kbps", &VideoSpec::layer_kbps, kPositive},
    Field{"keyframe_interval", &VideoSpec::keyframe_interval, kPositive},
    Field{"decode_wait_ms", &VideoSpec::decode_wait_ms, kNonNegative},
    Field{"lookahead_frames", &VideoSpec::lookahead_frames},
    Field{"encoder_seed", &VideoSpec::encoder_seed},
    Field{"receiver_seed", &VideoSpec::receiver_seed},
};

template <>
constexpr auto kFields<BulkSpec> =
    std::tuple{Field{"duration_s", &BulkSpec::duration_s, kAny, kIfSet}};

template <>
constexpr auto kFields<pop::ArchetypeMix> = std::tuple{
    Field{"web", &pop::ArchetypeMix::web},
    Field{"video", &pop::ArchetypeMix::video},
    Field{"background", &pop::ArchetypeMix::background},
};

template <>
constexpr auto kFields<pop::WebArchetype> = std::tuple{
    Field{"think_time_s", &pop::WebArchetype::think_time_s, kPositive},
    Field{"min_levels", &pop::WebArchetype::min_levels},
    Field{"max_levels", &pop::WebArchetype::max_levels},
    Field{"min_objects", &pop::WebArchetype::min_objects},
    Field{"max_objects", &pop::WebArchetype::max_objects},
    Field{"html_min_bytes", &pop::WebArchetype::html_min_bytes},
    Field{"html_max_bytes", &pop::WebArchetype::html_max_bytes},
    Field{"object_xm_bytes", &pop::WebArchetype::object_xm_bytes, kPositive},
    Field{"object_alpha", &pop::WebArchetype::object_alpha, kPositive},
    Field{"object_cap_bytes", &pop::WebArchetype::object_cap_bytes},
};

template <>
constexpr auto kFields<pop::VideoArchetype> = std::tuple{
    Field{"chunk_s", &pop::VideoArchetype::chunk_s, kPositive},
    Field{"kbps", &pop::VideoArchetype::kbps, kPositive},
};

template <>
constexpr auto kFields<pop::BackgroundArchetype> = std::tuple{
    Field{"period_s", &pop::BackgroundArchetype::period_s, kPositive},
    Field{"xm_bytes", &pop::BackgroundArchetype::xm_bytes, kPositive},
    Field{"alpha", &pop::BackgroundArchetype::alpha, kPositive},
    Field{"cap_bytes", &pop::BackgroundArchetype::cap_bytes},
};

template <>
constexpr auto kFields<pop::ChurnSpec> = std::tuple{
    Field{"arrival_rate_per_s", &pop::ChurnSpec::arrival_rate_per_s,
          kNonNegative},
    Field{"mean_session_s", &pop::ChurnSpec::mean_session_s, kNonNegative},
};

template <>
constexpr auto kFields<pop::SteerSpec> = std::tuple{
    Field{"enabled", &pop::SteerSpec::enabled},
    Field{"delay_bound_ms", &pop::SteerSpec::delay_bound_ms, kPositive},
    Field{"max_bytes", &pop::SteerSpec::max_bytes, kNonNegative},
};

/// The "city" block: a CitySpec's keys are its population's.
template <>
constexpr auto kFields<pop::PopulationSpec> = std::tuple{
    Field{"users", &pop::PopulationSpec::users, kNonNegative},
    Field{"mix", &pop::PopulationSpec::mix},
    Field{"web", &pop::PopulationSpec::web},
    Field{"video", &pop::PopulationSpec::video},
    Field{"background", &pop::PopulationSpec::background},
    Field{"churn", &pop::PopulationSpec::churn},
    Field{"steer", &pop::PopulationSpec::steer},
};

template <>
constexpr auto kFields<FaultSpec> = std::tuple{
    Choice{"kind", &FaultSpec::kind, &fault::kFaultKinds,
           "unknown fault kind '%v' (%l)"},
    Field{"channel", &FaultSpec::channel},
    Choice{"direction", &FaultSpec::direction, &fault::kFaultDirs,
           "expected %l", kIfChanged},
    Field{"start_s", &FaultSpec::start_s, kNonNegative},
    Field{"duration_s", &FaultSpec::duration_s, kPositive},
    Field{"rate_scale", &FaultSpec::rate_scale, kOpenUnit, kAlways,
          kKinds<fault::FaultKind::kRateCliff>},
    Field{"extra_delay_ms", &FaultSpec::extra_delay_ms, kPositive, kAlways,
          kKinds<fault::FaultKind::kDelaySpike>},
    Field{"p_good_to_bad", &FaultSpec::p_good_to_bad, kUnit, kAlways,
          kKinds<fault::FaultKind::kGeBurst>},
    Field{"p_bad_to_good", &FaultSpec::p_bad_to_good, kUnit, kAlways,
          kKinds<fault::FaultKind::kGeBurst>},
    Field{"loss_in_bad", &FaultSpec::loss_in_bad, kUnit, kAlways,
          kKinds<fault::FaultKind::kGeBurst>},
    Field{"loss_in_good", &FaultSpec::loss_in_good, kUnit, kAlways,
          kKinds<fault::FaultKind::kGeBurst>},
    Field{"period_s", &FaultSpec::period_s, kPositive, kAlways,
          kKinds<fault::FaultKind::kFlap>},
    Field{"up_fraction", &FaultSpec::up_fraction, kOpenUnit, kAlways,
          kKinds<fault::FaultKind::kFlap>},
    Field{"seed", &FaultSpec::seed, kSeed, kIfSet,
          kKinds<fault::FaultKind::kGeBurst, fault::FaultKind::kFlap>},
};

template <>
constexpr auto kFields<TelemetrySpec> = std::tuple{
    Field{"enabled", &TelemetrySpec::enabled},
    Field{"period_ms", &TelemetrySpec::period_ms, kPositive},
    Choice{"series", &TelemetrySpec::series, &obs::kProbeGroups,
           "expected %l", kIfSet},
    Field{"audit", &TelemetrySpec::audit},
    Field{"max_samples", &TelemetrySpec::max_samples, kPositive, kIfChanged},
    Field{"max_series", &TelemetrySpec::max_series, kPositive, kIfChanged},
    Field{"audit_capacity", &TelemetrySpec::audit_capacity, kPositive,
          kIfChanged},
};

template <>
constexpr auto kFields<SpansSpec> = std::tuple{
    Field{"enabled", &SpansSpec::enabled},
    Field{"tail_quantile", &SpansSpec::tail_quantile, kPercent},
    Field{"tail_budget", &SpansSpec::tail_budget, kNonNegative, kIfChanged},
    Field{"reservoir_budget", &SpansSpec::reservoir_budget, kNonNegative,
          kIfChanged},
    Field{"reservoir_period", &SpansSpec::reservoir_period, kPositive,
          kIfChanged},
    Field{"warmup", &SpansSpec::warmup, kNonNegative, kIfChanged},
};

template <>
constexpr auto kFields<ScenarioSpec> = std::tuple{
    Field{"name", &ScenarioSpec::name},
    Choice{"workload", &ScenarioSpec::workload, &kWorkloads,
           "expected %l (got '%v')"},
    Field{"duration_s", &ScenarioSpec::duration_s, kPositive},
    Field{"seed", &ScenarioSpec::seed, kNonNegative},
    Choice{"cca", &ScenarioSpec::cca, &transport::kCcas,
           "unknown CCA '%v' (%l)"},
    Field{"channels", &ScenarioSpec::channels},
    Both{"policy", &ScenarioSpec::up_policy, &ScenarioSpec::down_policy},
    Field{"up_policy", &ScenarioSpec::up_policy},
    Field{"down_policy", &ScenarioSpec::down_policy},
    Field{"resequence_hold_ms", &ScenarioSpec::resequence_hold_ms,
          kNonNegative, kIfChanged},
    Field{"web", &ScenarioSpec::web, kAny, kIfWorkload},
    Field{"video", &ScenarioSpec::video, kAny, kIfWorkload},
    Field{"bulk", &ScenarioSpec::bulk, kAny, kIfWorkload},
    Field{"city", &ScenarioSpec::city, kAny, kIfWorkload},
    Field{"faults", &ScenarioSpec::faults, kAny, kIfSet},
    Field{"telemetry", &ScenarioSpec::telemetry, kAny, kIfChanged},
    Field{"spans", &ScenarioSpec::spans, kAny, kIfChanged},
};

template <typename Fields, typename F>
constexpr void for_each_field(const Fields& fields, F&& f) {
  std::apply([&](const auto&... field) { (f(field), ...); }, fields);
}

/// The object whose field list a nested block's keys fill.
template <typename B>
B& body(B& b) {
  return b;
}
pop::PopulationSpec& body(CitySpec& c) { return c.population; }
const pop::PopulationSpec& body(const CitySpec& c) { return c.population; }

template <typename M>
concept Block = std::tuple_size_v<std::remove_cvref_t<
                    decltype(kFields<std::remove_cvref_t<decltype(body(
                                 std::declval<M&>()))>>)>> > 0;

/// Whether a fault knob marked `kinds` belongs to the event's kind.
bool applies(std::uint8_t kinds, const FaultSpec& f) {
  if (kinds == 0) return true;
  const auto kind = sim::value_of(fault::kFaultKinds, f.kind, "fault kind");
  return ((kinds >> static_cast<unsigned>(kind)) & 1u) != 0;
}
template <typename S>
bool applies(std::uint8_t /*kinds*/, const S& /*block*/) {
  return true;
}

/// "only valid for kind \"a\"" / "... kinds \"a\" and \"b\"".
std::string only_for(std::uint8_t kinds) {
  std::string names;
  int n = 0;
  for (const auto& k : fault::kFaultKinds) {
    if (((kinds >> static_cast<unsigned>(k.value)) & 1u) == 0) continue;
    if (n++ > 0) names += " and ";
    names.append("\"").append(k.name).append("\"");
  }
  return (n == 1 ? "only valid for kind " : "only valid for kinds ") + names;
}

// ---- The read pass --------------------------------------------------------

template <typename S>
void read_block(const Value& v, const Path& p, S& s);

/// A number, whole for an integral member, in range `r` and within the
/// member's type, both checked before it is narrowed: a negative seed or
/// an `int` past 2^31 must not wrap into a valid value.
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
void read_value(const Value& v, const Path& p, T& out, Range r) {
  if (!v.is_number()) fail_type(p, "a number", v);
  if constexpr (std::is_integral_v<T>) {
    // Converting a double outside [-2^63, 2^63) is undefined.
    if (!(v.num >= -0x1p63 && v.num < 0x1p63)) fail(p, "expected an integer");
    const auto i = static_cast<std::int64_t>(v.num);
    if (static_cast<double>(i) != v.num) fail(p, "expected an integer");
    if (const char* problem = range_problem(v.num, r)) fail(p, problem);
    using Limits = std::numeric_limits<T>;
    if (std::cmp_greater(i, Limits::max())) {
      fail(p, "must be <= " + std::to_string(Limits::max()));
    }
    if (std::cmp_less(i, Limits::min())) {
      fail(p, "must be >= " + std::to_string(Limits::min()));
    }
    out = static_cast<T>(i);
  } else {
    if (const char* problem = range_problem(v.num, r)) fail(p, problem);
    out = v.num;
  }
}

void read_value(const Value& v, const Path& p, bool& out, Range /*r*/) {
  if (v.kind != Value::Kind::kBool) fail_type(p, "true/false", v);
  out = v.boolean;
}

void read_value(const Value& v, const Path& p, std::string& out,
                Range /*r*/) {
  if (!v.is_string()) fail_type(p, "a string", v);
  out = v.str;
}

/// A non-empty list of numbers, each in range `r`.
void read_value(const Value& v, const Path& p, std::vector<double>& out,
                Range r) {
  if (!v.is_array() || v.array.empty()) {
    fail(p, "expected a non-empty array of numbers");
  }
  out.clear();
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    const Value& e = v.array[i];
    if (!e.is_number() || range_problem(e.num, r) != nullptr) {
      fail(p[i], "expected a positive number");
    }
    out.push_back(e.num);
  }
}

/// "channels" (which may not be empty) and "faults".
template <typename B>
  requires std::is_same_v<B, ChannelSpec> || std::is_same_v<B, FaultSpec>
void read_value(const Value& v, const Path& p, std::vector<B>& out,
                Range /*r*/) {
  constexpr bool kChannels = std::is_same_v<B, ChannelSpec>;
  if (!v.is_array() || (kChannels && v.array.empty())) {
    fail(p, kChannels ? "expected a non-empty array"
                      : "expected an array of fault objects");
  }
  out.resize(v.array.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    read_block(v.array[i], p[i], out[i]);
  }
}

template <typename S, typename Table>
void check_name(const Choice<S, std::string, Table>& f,
                const std::string& name, const Path& p) {
  if (f.emit == kIfSet && name.empty()) return;
  if (sim::find_name(*f.table, name) == nullptr) {
    fail_name(p, f.problem, name, *f.table);
  }
}

/// A policy name or object; either way it replaces the whole policy.
void read_value(const Value& v, const Path& p, PolicySpec& out, Range /*r*/) {
  out = PolicySpec{};
  if (v.is_string()) {
    out.name = v.str;
    check_name(std::get<0>(kFields<PolicySpec>), out.name, p);
  } else if (v.is_object()) {
    read_block(v, p, out);
  } else {
    fail_type(p, "a policy name or object", v);
  }
}

template <typename M>
  requires Block<M>
void read_value(const Value& v, const Path& p, M& out, Range /*r*/) {
  read_block(v, p, body(out));
}

template <typename S, typename M>
void read_field(const Field<S, M>& f, const Value* v, const Path& p, S& s) {
  if (v == nullptr) return;
  if (!applies(f.kinds, s)) fail(p / f.key, only_for(f.kinds));
  read_value(*v, p / f.key, s.*f.member, f.range);
}

template <typename S, typename Table>
void read_field(const Choice<S, std::string, Table>& f, const Value* v,
                const Path& p, S& s) {
  if (v == nullptr) return;
  read_value(*v, p / f.key, s.*f.member, kAny);
  check_name(f, s.*f.member, p / f.key);
}

template <typename S, typename Table>
void read_field(const Choice<S, std::vector<std::string>, Table>& f,
                const Value* v, const Path& p, S& s) {
  if (v == nullptr) return;
  const Path at = p / f.key;
  if (!v->is_array()) fail(at, "expected an array of probe-group names");
  auto& out = s.*f.member;
  out.clear();
  for (std::size_t i = 0; i < v->array.size(); ++i) {
    const Value& e = v->array[i];
    if (!e.is_string() || sim::find_name(*f.table, e.str) == nullptr) {
      fail_name(at[i], f.problem, e.str, *f.table);
    }
    out.push_back(e.str);
  }
}

template <typename S>
void read_field(const Toggle<S>& f, const Value* v, const Path& p, S& s) {
  if (v == nullptr) return;
  if (v->kind != Value::Kind::kBool) fail(p / f.key, "expected true/false");
  s.*f.member = v->boolean ? 1 : 0;
}

template <typename S, typename M>
void read_field(const Both<S, M>& f, const Value* v, const Path& p, S& s) {
  if (v == nullptr) return;
  read_value(*v, p / f.key, s.*f.member, kAny);
  s.*f.also = s.*f.member;
}

/// Presence switches the block on, so "telemetry": {} is the minimal
/// opt-in; every other block starts from its defaults.
template <typename S>
void start(S& /*block*/) {}
void start(TelemetrySpec& t) { t.enabled = true; }
void start(SpansSpec& s) { s.enabled = true; }

// Rules beyond each field's own range, run once a block's fields are read.

template <typename S>
void finish(S& /*block*/, const Path& /*p*/) {}

void finish(ChannelSpec& c, const Path& p) {
  if (c.type == "5g") {
    if (sim::find_name(trace::kFiveGProfiles, c.profile) == nullptr) {
      fail_name(p / "profile", "5g channels need profile: %l (got '%v')",
                c.profile, trace::kFiveGProfiles);
    }
  } else if (!c.profile.empty()) {
    fail(p / "profile", "only valid for type \"5g\"");
  }
}

void finish(PolicySpec& policy, const Path& p) {
  if (policy.tuned() && policy.name != "dchannel" &&
      policy.name != "dchannel+prio") {
    fail(p, "policy parameters are only valid for the dchannel family");
  }
}

void finish(FaultSpec& f, const Path& p) {
  if (applies(kKinds<fault::FaultKind::kGeBurst>, f) &&
      (f.p_good_to_bad <= 0 || f.loss_in_bad <= 0)) {
    fail(p, "ge_burst needs p_good_to_bad > 0 and loss_in_bad > 0");
  }
}

void finish(pop::ArchetypeMix& m, const Path& p) {
  if (m.web < 0 || m.video < 0 || m.background < 0) {
    fail(p, "weights must be >= 0");
  }
  if (!(m.web + m.video + m.background > 0)) fail(p, "weights must sum > 0");
}

void finish(pop::WebArchetype& w, const Path& p) {
  if (w.min_levels < 1 || w.max_levels < w.min_levels) {
    fail(p, "levels must satisfy 1 <= min_levels <= max_levels");
  }
  if (w.min_objects < 1 || w.max_objects < w.min_objects) {
    fail(p, "objects must satisfy 1 <= min_objects <= max_objects");
  }
  if (!(w.html_min_bytes > 0) || w.html_max_bytes < w.html_min_bytes) {
    fail(p, "html byte range invalid");
  }
  if (w.object_cap_bytes < w.object_xm_bytes) {
    fail(p / "object_cap_bytes", "must be >= object_xm_bytes");
  }
}

void finish(pop::BackgroundArchetype& b, const Path& p) {
  if (b.cap_bytes < b.xm_bytes) fail(p / "cap_bytes", "must be >= xm_bytes");
}

void finish(pop::PopulationSpec& population, const Path& p) {
  // Backstop: anything the path-qualified rules missed surfaces with the
  // block's path rather than a bare invalid_argument.
  try {
    population.validate();
  } catch (const std::invalid_argument& e) {
    fail(p, e.what());
  }
}

void finish(ScenarioSpec& s, const Path& p) {
  if (s.channels.empty()) {  // the paper's standard pair
    s.channels.resize(2);
    s.channels[0].type = "embb";
    s.channels[1].type = "urllc";
  }
  const Path faults = p / "faults";
  const auto n = static_cast<std::int64_t>(s.channels.size());
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    if (s.faults[i].channel < 0 || s.faults[i].channel >= n) {
      fail(faults[i] / "channel", "out of range (scenario has " +
                                      std::to_string(n) + " channels)");
    }
  }
  // FaultPlan::validate's overlap rule, reported with JSON paths.
  const auto family = [](const FaultSpec& f) {
    return fault::family(
        sim::value_of(fault::kFaultKinds, f.kind, "fault kind"));
  };
  const auto dir = [](const FaultSpec& f) {
    return sim::value_of(fault::kFaultDirs, f.direction, "fault direction");
  };
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const FaultSpec& a = s.faults[j];
      const FaultSpec& b = s.faults[i];
      if (a.channel != b.channel || !fault::dirs_overlap(dir(a), dir(b)) ||
          family(a) != family(b)) {
        continue;
      }
      if (b.start_s < a.start_s + a.duration_s &&
          a.start_s < b.start_s + b.duration_s) {
        fail(faults[i], "overlaps " + faults[j].str() + " (" + a.kind +
                            " on channel " + std::to_string(a.channel) + ")");
      }
    }
  }
}

/// Reads an object through its block's field list: one lookup per field,
/// then unknown keys are rejected before any value is read, so a typo'd
/// key is reported as itself.
template <typename S>
void read_block(const Value& v, const Path& p, S& s) {
  constexpr const auto& fields = kFields<S>;
  if (!v.is_object()) fail_type(p, "an object", v);
  std::array<const Value*,
             std::tuple_size_v<std::remove_cvref_t<decltype(fields)>>>
      found{};
  std::size_t n = 0;
  std::size_t present = 0;
  for_each_field(fields, [&](const auto& f) {
    found[n] = v.find(f.key);
    present += found[n++] != nullptr ? 1 : 0;
  });
  if (present != v.object.size()) {
    for (const auto& [key, unused] : v.object) {
      bool known = false;
      for_each_field(fields,
                     [&](const auto& f) { known = known || f.key == key; });
      if (!known) fail(p / key, "unknown key");
    }
  }
  start(s);
  n = 0;
  for_each_field(fields,
                 [&](const auto& f) { read_field(f, found[n++], p, s); });
  finish(s, p);
}

// ---- The write pass -------------------------------------------------------

template <typename T>
bool is_set(const T& v) {
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    return v >= 0;
  } else if constexpr (requires { v.empty(); }) {
    return !v.empty();
  } else {
    return true;
  }
}

template <typename S>
bool any_emits(const S& s);

/// Whether to_json writes field `f` of `s`. A nested block that would
/// write no key is left out whole.
template <typename F, typename S>
bool emits(const F& f, const S& s) {
  if constexpr (requires { f.kinds; }) {
    if (!applies(f.kinds, s)) return false;
  }
  const auto& v = s.*f.member;
  if constexpr (Block<std::remove_cvref_t<decltype(v)>>) {
    if (!any_emits(body(v))) return false;
  }
  switch (f.emit) {
    case kAlways: return true;
    case kNever: return false;
    case kIfSet: return is_set(v);
    case kIfChanged: {
      static const S kDefaults{};
      return !(v == kDefaults.*f.member);
    }
    case kIfWorkload:
      if constexpr (std::is_same_v<S, ScenarioSpec>) {
        return s.workload == f.key;
      }
  }
  return false;
}

template <typename S>
bool any_emits(const S& s) {
  bool any = false;
  for_each_field(kFields<S>,
                 [&](const auto& f) { any = any || emits(f, s); });
  return any;
}

template <typename S>
void write_block(obs::json::Writer& w, const S& s);

template <typename T>
void write_value(obs::json::Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.raw(v ? "true" : "false");
  } else if constexpr (std::is_arithmetic_v<T>) {
    w.num(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (Block<T>) {
    write_block(w, body(v));
  } else {  // a list
    w.put('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) w.put(',');
      write_value(w, v[i]);
    }
    w.put(']');
  }
}

template <typename S>
void write_block(obs::json::Writer& w, const S& s) {
  bool first = true;
  w.put('{');
  for_each_field(kFields<S>, [&](const auto& f) {
    if (!emits(f, s)) return;
    w.raw(first ? "\"" : ",\"").raw(f.key).raw("\":");
    first = false;
    using F = std::remove_cvref_t<decltype(f)>;
    if constexpr (std::is_same_v<F, Toggle<S>>) {
      w.raw(s.*f.member != 0 ? "true" : "false");
    } else {
      write_value(w, s.*f.member);
    }
  });
  w.put('}');
}

}  // namespace

std::string PolicySpec::label() const {
  if (name == "dchannel+prio") return name;
  if (name == "dchannel" && use_flow_priority > 0) return "dchannel+prio";
  return name;
}

bool PolicySpec::tuned() const {
  bool any = false;
  for_each_field(kFields<PolicySpec>, [&](const auto& f) {
    any = any || (f.emit == kIfSet && emits(f, *this));
  });
  return any;
}

PolicySpec PolicySpec::from_json(const obs::json::Value& v) {
  const Path root{nullptr, "scenario"};
  PolicySpec p;
  read_value(v, root / "policy", p, kAny);
  return p;
}

ScenarioSpec ScenarioSpec::from_json(const obs::json::Value& v) {
  ScenarioSpec s;
  read_block(v, Path{nullptr, "scenario"}, s);
  return s;
}

ScenarioSpec ScenarioSpec::from_json_text(std::string_view text) {
  obs::json::Value v;
  if (!obs::json::parse(text, &v)) {
    throw SpecError("scenario: malformed JSON (syntax error)");
  }
  return from_json(v);
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  const std::string text = read_file(path);  // error already carries path
  try {
    return from_json_text(text);
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

std::string ScenarioSpec::to_json() const {
  obs::json::Writer w;
  write_block(w, *this);
  return w.take();
}

std::string read_file(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) throw SpecError(path + ": cannot open file");
  std::string text(static_cast<std::size_t>(size), '\0');
  if (!in.read(text.data(), static_cast<std::streamsize>(size))) {
    throw SpecError(path + ": cannot read file");
  }
  return text;
}

}  // namespace hvc::exp
