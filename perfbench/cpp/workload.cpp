#include "workload.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "sim/seed.hpp"
#include "sim/units.hpp"
#include "spans.hpp"

namespace perfbench {

namespace exp = hvc::exp;
namespace json = hvc::obs::json;

namespace {

struct WorkloadDef {
  std::string name;
  std::vector<std::string> parts;  ///< scenario file stems, in run order
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"bulk_cca", {"fig1a_cca_sweep", "outage_recovery"}},
      {"web_video_5g",
       {"table1_web_plt", "fig2_video", "fig2_video_telemetry"}},
      {"city_capacity", {"city_cell"}},
  };
  return defs;
}

json::Value number_value(std::uint64_t v) {
  json::Value out;
  out.kind = json::Value::Kind::kNumber;
  out.num = static_cast<double>(v);
  return out;
}

/// A sub-seed of `seed` that stays exact as a JSON number (< 2^52).
std::uint64_t derive_seed(std::uint64_t seed, std::string_view salt) {
  return hvc::sim::seed_mix(seed, hvc::sim::fnv1a64(salt)) >> 12;
}

Part seeded_part(const std::string& name, const std::string& raw,
                 std::uint64_t seed) {
  json::Value doc;
  if (!json::parse(raw, &doc) || !doc.is_object()) {
    throw std::runtime_error(name + ": not a JSON object");
  }
  Part part;
  part.name = name;
  part.sweep = doc.find("base") != nullptr;
  json::Value& scenario = part.sweep ? doc.object["base"] : doc;
  scenario.object["seed"] = number_value(seed);
  if (const auto it = scenario.object.find("web");
      it != scenario.object.end()) {
    it->second.object["corpus_seed"] =
        number_value(derive_seed(seed, "corpus"));
  }
  part.text = json::serialize(doc);
  return part;
}

/// m[key], or NaN (which fails every comparison) when it is missing.
double value(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? NAN : it->second;
}

void check_equal(const std::map<std::string, double>& m, const std::string& a,
                 const std::string& b, std::vector<std::string>* out) {
  const double va = value(m, a);
  const double vb = value(m, b);
  if (!(va == vb)) {
    out->push_back(a + " (" + std::to_string(va) + ") != " + b + " (" +
                   std::to_string(vb) + ")");
  }
}

}  // namespace

std::vector<Part> load_workload(const std::string& dir,
                                const std::string& workload,
                                std::uint64_t seed) {
  for (const auto& w : workloads()) {
    if (w.name != workload) continue;
    std::vector<Part> parts;
    for (const auto& p : w.parts) {
      const std::string raw =
          exp::read_file(dir + "/" + workload + "/" + p + ".json");
      parts.push_back(seeded_part(p, raw, seed));
    }
    return parts;
  }
  throw std::runtime_error("unknown workload '" + workload + "'");
}

std::vector<Run> expand_part(const Part& part) {
  std::vector<Run> runs;
  if (!part.sweep) {
    Run run;
    run.part = part.name;
    run.spec = exp::ScenarioSpec::from_json_text(part.text);
    runs.push_back(std::move(run));
    return runs;
  }
  std::vector<exp::ExpandedRun> grid =
      exp::expand(exp::SweepSpec::from_json_text(part.text));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    Run run;
    run.part = part.name;
    run.spec = std::move(grid[i].spec);
    run.params = std::move(grid[i].params);
    run.run_index = static_cast<int>(i);
    runs.push_back(std::move(run));
  }
  return runs;
}

exp::RunOptions run_options(const Run& run, const std::string& out_dir) {
  exp::RunOptions opts;
  opts.out_prefix = out_dir + "/" + run.part;
  opts.run_index = run.run_index;
  return opts;
}

RunScope::RunScope(const exp::ScenarioSpec& spec) {
  if (spec.spans.enabled) {
    hvc::obs::SpanConfig sc;
    sc.tail_quantile = spec.spans.tail_quantile;
    sc.tail_budget = spec.spans.tail_budget;
    sc.reservoir_budget = spec.spans.reservoir_budget;
    sc.reservoir_period = spec.spans.reservoir_period;
    sc.warmup = spec.spans.warmup;
    sc.seed = spec.seed;
    spans.enable(sc);
  }
  if (spec.telemetry.enabled) {
    hvc::obs::TelemetryConfig tc;
    tc.period = hvc::sim::milliseconds_f(spec.telemetry.period_ms);
    tc.max_samples_per_series =
        static_cast<std::size_t>(spec.telemetry.max_samples);
    tc.max_series = static_cast<std::size_t>(spec.telemetry.max_series);
    tc.groups = spec.telemetry.series;
    sampler.enable(tc);
    if (spec.telemetry.audit) {
      audit.enable(static_cast<std::size_t>(spec.telemetry.audit_capacity));
    }
  }
}

SetupPass setup_pass(const std::vector<Part>& parts) {
  SetupPass pass;
  for (const Part& part : parts) {
    std::int64_t t0 = now_ns();
    const std::vector<Run> runs = expand_part(part);
    pass.ns += now_ns() - t0;
    for (const Run& run : runs) {
      std::vector<std::string> names;
      // City runs never build a packet-level scenario (pop::run_city).
      if (run.spec.workload != "city") {
        const RunScope scope(run.spec);
        t0 = now_ns();
        const hvc::core::ScenarioConfig cfg =
            exp::build_scenario_config(run.spec);
        const auto scenario = std::make_unique<hvc::core::Scenario>(cfg);
        pass.ns += now_ns() - t0;
        for (const auto& ch : cfg.channels) names.push_back(ch.name);
      }
      pass.channel_names.push_back(std::move(names));
    }
  }
  return pass;
}

Pass untraced_pass(const std::vector<Part>& parts, const std::string& out_dir) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  for (const Part& part : parts) {
    std::vector<Run> runs = expand_part(part);
    std::vector<exp::RunResult> results;
    results.reserve(runs.size());
    for (const Run& run : runs) {
      exp::RunResult r = exp::run_scenario(run.spec, run_options(run, out_dir));
      r.index = run.run_index >= 0 ? static_cast<std::size_t>(run.run_index)
                                   : 0;
      r.params = run.params;
      results.push_back(std::move(r));
    }
    const std::string rows = exp::to_jsonl(results);
    exp::write_file(out_dir + "/" + part.name + ".results.jsonl", rows);
    pass.rows += rows;
    for (auto& run : runs) pass.runs.push_back(std::move(run));
    for (auto& r : results) pass.results.push_back(std::move(r));
  }
  pass.ns = now_ns() - t0;
  return pass;
}

std::vector<std::string> check_run(
    const Run& run, const exp::RunResult& r,
    const std::vector<std::string>& channel_names) {
  std::vector<std::string> broken;
  if (!r.error.empty()) {
    broken.push_back("run threw: " + r.error);
    return broken;
  }
  for (const auto* m : {&r.metrics, &r.obs}) {
    for (const auto& [key, value] : *m) {
      if (!std::isfinite(value)) broken.push_back(key + " is not finite");
    }
  }
  const auto& m = r.metrics;
  const std::string& w = run.spec.workload;
  if (w == "video") {
    check_equal(m, "video.frames_decoded", "video.latency_ms.count", &broken);
  } else if (w == "web") {
    const double want = static_cast<double>(run.spec.web.pages) *
                        run.spec.web.loads_per_page;
    if (!(value(m, "web.plt_ms.count") == want)) {
      broken.push_back("web.plt_ms.count != pages x loads_per_page (" +
                       std::to_string(want) + ")");
    }
  } else if (w == "city") {
    check_equal(m, "city.web.plt_ms.count", "city.pages", &broken);
    check_equal(m, "city.video.latency_ms.count", "city.chunks", &broken);
  }
  // A link can only deliver or drop what its shim handed it.
  for (std::size_t i = 0; i < channel_names.size(); ++i) {
    for (const std::string dir : {"down", "up"}) {
      const std::string link = "link." + channel_names[i] + "-" + dir + ".";
      const double sent =
          value(r.obs, "shim." + dir + ".ch" + std::to_string(i) + ".packets");
      const double out = value(r.obs, link + "delivered_packets") +
                         value(r.obs, link + "dropped_queue") +
                         value(r.obs, link + "dropped_wire");
      if (!(out <= sent)) {
        broken.push_back(link + "{delivered,dropped} (" + std::to_string(out) +
                         ") > shim." + dir + ".ch" + std::to_string(i) +
                         ".packets (" + std::to_string(sent) + ")");
      }
    }
  }
  return broken;
}

}  // namespace perfbench
