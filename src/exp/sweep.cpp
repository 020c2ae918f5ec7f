#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

namespace hvc::exp {

namespace {

using obs::json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw SpecError(path + ": " + msg);
}

bool is_integer(const Value& v, std::int64_t* out) {
  if (!v.is_number()) return false;
  const auto i = static_cast<std::int64_t>(v.num);
  if (static_cast<double>(i) != v.num) return false;
  *out = i;
  return true;
}

/// {"range": [lo, hi]} or {"range": [lo, hi, step]} → lo, lo+step, … < hi.
std::vector<Value> expand_range(const Value& v, const std::string& path) {
  const Value* range = v.find("range");
  if (range == nullptr || v.object.size() != 1) {
    fail(path, "axis objects must be exactly {\"range\": [lo, hi]} or "
               "{\"range\": [lo, hi, step]}");
  }
  if (!range->is_array() ||
      (range->array.size() != 2 && range->array.size() != 3)) {
    fail(path + ".range", "expected [lo, hi] or [lo, hi, step]");
  }
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t step = 1;
  if (!is_integer(range->array[0], &lo) || !is_integer(range->array[1], &hi) ||
      (range->array.size() == 3 && !is_integer(range->array[2], &step))) {
    fail(path + ".range", "bounds and step must be integers");
  }
  if (step <= 0) fail(path + ".range", "step must be > 0");
  if (hi < lo) fail(path + ".range", "hi must be >= lo");
  std::vector<Value> out;
  for (std::int64_t x = lo; x < hi; x += step) {
    Value e;
    e.kind = Value::Kind::kNumber;
    e.num = static_cast<double>(x);
    out.push_back(std::move(e));
  }
  if (out.empty()) fail(path + ".range", "range is empty");
  return out;
}

/// Set `doc[path] = value` where path is dotted; numeric segments index
/// arrays (which must already exist), other segments are object keys
/// (created if missing — the base template may omit swept fields).
void set_path(Value& doc, const std::string& path, const Value& value) {
  Value* cur = &doc;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string seg =
        path.substr(start, dot == std::string::npos ? dot : dot - start);
    if (seg.empty()) fail(path, "empty path segment");
    const bool is_index =
        std::all_of(seg.begin(), seg.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    Value* next = nullptr;
    if (is_index) {
      if (!cur->is_array()) fail(path, "'" + seg + "' indexes a non-array");
      const std::size_t idx = std::stoul(seg);
      if (idx >= cur->array.size()) {
        fail(path, "index " + seg + " out of range (array has " +
                       std::to_string(cur->array.size()) + " elements)");
      }
      next = &cur->array[idx];
    } else {
      if (cur->kind == Value::Kind::kNull) cur->kind = Value::Kind::kObject;
      if (!cur->is_object()) fail(path, "'" + seg + "' keys into a non-object");
      next = &cur->object[seg];  // creates a null placeholder if missing
    }
    if (dot == std::string::npos) {
      *next = value;
      return;
    }
    cur = next;
    start = dot + 1;
  }
}

bool is_policy_path(const std::string& path) {
  return path == "policy" || path == "up_policy" || path == "down_policy";
}

/// Display string for an axis value (a results row's "params"). Policy
/// objects render as their scheme label so grids over tuned policies
/// stay readable.
std::string param_string(const std::string& path, const Value& v) {
  if (v.is_string()) return v.str;
  if (v.is_number()) return obs::json::number(v.num);
  if (v.kind == Value::Kind::kBool) return v.boolean ? "true" : "false";
  if (v.is_object() && is_policy_path(path)) {
    try {
      return PolicySpec::from_json(v).label();
    } catch (const SpecError&) {
      // Raw JSON instead: expand() reports the error with full context.
    }
  }
  return obs::json::serialize(v);
}

}  // namespace

SweepSpec SweepSpec::from_json(const Value& v) {
  if (!v.is_object()) throw SpecError("sweep: expected a JSON object");
  for (const auto& [key, unused] : v.object) {
    if (key != "name" && key != "base" && key != "axes") {
      fail(key, "unknown key (sweep files take name/base/axes)");
    }
  }
  SweepSpec s;
  s.name = v.string_or("name", s.name);
  const Value* base = v.find("base");
  if (base == nullptr || !base->is_object()) {
    fail("base", "required: a scenario object");
  }
  s.base = *base;
  // Validate the template before any axis substitution so template
  // errors are reported once, with clean paths.
  (void)ScenarioSpec::from_json(s.base);
  if (const Value* axes = v.find("axes")) {
    if (!axes->is_object()) fail("axes", "expected an object of path: values");
    for (const auto& [path, values] : axes->object) {  // std::map: sorted
      SweepAxis axis;
      axis.path = path;
      const std::string apath = "axes." + path;
      if (values.is_array()) {
        if (values.array.empty()) fail(apath, "axis value list is empty");
        axis.values = values.array;
      } else if (values.is_object()) {
        axis.values = expand_range(values, apath);
      } else {
        fail(apath, "expected an array of values or {\"range\": [lo, hi]}");
      }
      s.axes.push_back(std::move(axis));
    }
  }
  return s;
}

SweepSpec SweepSpec::from_json_text(std::string_view text) {
  Value v;
  if (!obs::json::parse(text, &v)) {
    throw SpecError("sweep: malformed JSON (syntax error)");
  }
  return from_json(v);
}

SweepSpec SweepSpec::from_file(const std::string& path) {
  const std::string text = read_file(path);  // error already carries path
  try {
    return from_json_text(text);
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

std::size_t SweepSpec::run_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<ExpandedRun> expand(const SweepSpec& sweep) {
  const std::size_t total = sweep.run_count();
  // Each axis value's display string, rendered once, not once per run.
  std::vector<std::vector<std::string>> shown;
  for (const SweepAxis& axis : sweep.axes) {
    std::vector<std::string>& strs = shown.emplace_back();
    for (const Value& value : axis.values) {
      strs.push_back(param_string(axis.path, value));
    }
  }
  std::vector<ExpandedRun> runs;
  runs.reserve(total);
  std::vector<std::size_t> odo(sweep.axes.size(), 0);
  // One working document for all runs. Every run overwrites every axis
  // path in sorted order, and a path sorts after the paths that are its
  // prefixes, so each subtree an axis replaces is rewritten before the
  // axes inside it: each run parses base + its own values, as if it had
  // copied the base.
  Value doc = sweep.base;
  for (std::size_t i = 0; i < total; ++i) {
    ExpandedRun run;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      set_path(doc, sweep.axes[a].path, sweep.axes[a].values[odo[a]]);
      run.params.emplace_hint(run.params.end(), sweep.axes[a].path,
                              shown[a][odo[a]]);
    }
    try {
      run.spec = ScenarioSpec::from_json(doc);
    } catch (const SpecError& e) {
      std::string where = "run " + std::to_string(i);
      for (const auto& [path, val] : run.params) {
        where += " " + path + "=" + val;
      }
      throw SpecError(where + ": " + e.what());
    }
    runs.push_back(std::move(run));
    // Odometer: last (sorted-order) axis spins fastest.
    for (std::size_t a = sweep.axes.size(); a-- > 0;) {
      if (++odo[a] < sweep.axes[a].values.size()) break;
      odo[a] = 0;
    }
  }
  return runs;
}

std::vector<RunResult> run_sweep(const SweepSpec& sweep, int jobs,
                                 const SweepProgress& progress,
                                 const std::string& out_prefix) {
  return run_sweep_shard(sweep, jobs, 0, 1, progress, out_prefix);
}

std::vector<RunResult> run_sweep_shard(const SweepSpec& sweep, int jobs,
                                       std::size_t shard_index,
                                       std::size_t shard_count,
                                       const SweepProgress& progress,
                                       const std::string& out_prefix) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw SpecError("shard: index must be < count (got " +
                    std::to_string(shard_index) + "/" +
                    std::to_string(shard_count) + ")");
  }
  const std::vector<ExpandedRun> runs = expand(sweep);
  // This shard's global grid indices, in grid order. Round-robin (not
  // contiguous blocks) so every shard samples the whole grid — shards
  // finish in comparable time even when one axis end is much slower.
  std::vector<std::size_t> mine;
  for (std::size_t i = shard_index; i < runs.size(); i += shard_count) {
    mine.push_back(i);
  }
  std::vector<RunResult> results(mine.size());
  if (mine.empty()) return results;

  const std::size_t workers = std::min<std::size_t>(
      mine.size(), static_cast<std::size_t>(std::max(1, jobs)));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;

  auto worker = [&] {
    while (true) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= mine.size()) return;
      const std::size_t i = mine[slot];
      RunOptions opts;
      opts.out_prefix = out_prefix;
      // Per-run artifact names carry the global index, so shard outputs
      // never collide and match what an unsharded sweep would write.
      opts.run_index = static_cast<int>(i);
      RunResult r = run_scenario(runs[i].spec, opts);
      r.index = i;
      r.params = runs[i].params;
      results[slot] = std::move(r);
      const std::size_t finished = done.fetch_add(1) + 1;
      if (progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        progress(results[slot], finished, mine.size());
      }
    }
  };

  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return results;
}

}  // namespace hvc::exp
