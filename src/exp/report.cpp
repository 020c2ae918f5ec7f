#include "exp/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <system_error>

#include "exp/results.hpp"
#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace hvc::exp {

namespace {

using obs::json::Value;

/// Optional-artifact read: "" when the file does not exist (a missing
/// telemetry/audit file just means that recorder was off).
std::string read_if_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) ? read_file(path) : "";
}

/// Parses each non-blank JSONL line and hands its object to `row`, so
/// only one line's tree is alive at a time.
template <typename Row>
void for_each_line(std::string_view text, const std::string& what, Row row) {
  std::size_t start = 0;
  std::size_t lineno = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++lineno;
    if (line.empty()) continue;
    Value v;
    if (!obs::json::parse(line, &v) || !v.is_object()) {
      throw SpecError(what + " line " + std::to_string(lineno) +
                      ": malformed JSON object");
    }
    row(v);
  }
}

std::map<std::string, double> number_map(const Value& obj) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : obj.object) {
    if (v.is_number()) out[k] = v.num;
  }
  return out;
}

void append_row(std::string* out, const std::string& label, double count,
                double mean, double p50, double p99, double mn, double mx) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-46s %8.0f %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                label.c_str(), count, mean, p50, p99, mn, mx);
  *out += buf;
}

/// City cohort stats of one run, reassembled from the flattened metric
/// keys "city.<cohort>.<metric>.<stat>" plus "city.jain.<cohort>".
struct CohortRows {
  // (cohort, metric) -> stat name -> value
  std::map<std::pair<std::string, std::string>,
           std::map<std::string, double>>
      stats;
  std::map<std::string, double> jain;  ///< cohort -> index
};

CohortRows cohort_rows(const RunResult& r) {
  CohortRows rows;
  static const std::string kPrefix = "city.";
  for (const auto& [k, v] : r.metrics) {
    if (k.rfind(kPrefix, 0) != 0) continue;
    const std::string rest = k.substr(kPrefix.size());
    const std::size_t d1 = rest.find('.');
    if (d1 == std::string::npos) continue;  // scalar (city.pages, …)
    const std::string cohort = rest.substr(0, d1);
    if (cohort == "jain") {
      // "jain.<cohort>" is the index; "jain.<cohort>.users" is support.
      const std::string tail = rest.substr(d1 + 1);
      if (tail.find('.') == std::string::npos) rows.jain[tail] = v;
      continue;
    }
    const std::size_t d2 = rest.find('.', d1 + 1);
    if (d2 == std::string::npos) continue;
    rows.stats[{cohort, rest.substr(d1 + 1, d2 - d1 - 1)}]
        [rest.substr(d2 + 1)] = v;
  }
  return rows;
}

double metric_or(const RunResult& r, const std::string& key, double dflt) {
  const auto it = r.metrics.find(key);
  return it != r.metrics.end() ? it->second : dflt;
}

/// One capacity-curve family: every axis param except the population
/// axis. Returns the family key ("policy=embb-only …" or "(all runs)")
/// and the population via `users`.
std::string family_key(const RunResult& r, double* users) {
  *users = metric_or(r, "city.users", -1);
  std::string key;
  for (const auto& [k, v] : r.params) {
    if (k == "city.users" || k == "users") {
      // Prefer the axis value (covers churn-grown populations where the
      // metric reports the initial count — identical here, but the axis
      // is the sweep's declared x).
      *users = std::atof(v.c_str());
      continue;
    }
    if (!key.empty()) key += " ";
    key += k + "=" + v;
  }
  return key.empty() ? "(all runs)" : key;
}

/// The headline columns of one capacity point.
struct CapacityPoint {
  double users = 0;
  const RunResult* run = nullptr;
};

std::map<std::string, std::vector<CapacityPoint>> capacity_curves(
    const std::vector<RunResult>& runs) {
  std::map<std::string, std::vector<CapacityPoint>> curves;
  for (const auto& r : runs) {
    if (!r.error.empty()) continue;
    double users = -1;
    const std::string key = family_key(r, &users);
    if (users < 0) continue;  // not a city run
    curves[key].push_back({users, &r});
  }
  for (auto& [key, points] : curves) {
    std::sort(points.begin(), points.end(),
              [](const CapacityPoint& a, const CapacityPoint& b) {
                return a.users != b.users
                           ? a.users < b.users
                           : a.run->index < b.run->index;
              });
  }
  return curves;
}

}  // namespace

std::vector<RunResult> Report::parse_results(std::string_view jsonl) {
  std::vector<RunResult> out;
  for_each_line(jsonl, "results.jsonl", [&out](const Value& v) {
    RunResult r;
    r.index = static_cast<std::size_t>(v.number_or("run", 0));
    r.name = v.string_or("name", "");
    if (const Value* params = v.find("params"); params != nullptr) {
      for (const auto& [k, pv] : params->object) {
        if (pv.is_string()) r.params[k] = pv.str;
      }
    }
    if (const Value* m = v.find("metrics")) r.metrics = number_map(*m);
    if (const Value* o = v.find("obs")) r.obs = number_map(*o);
    r.error = v.string_or("error", "");
    out.push_back(std::move(r));
  });
  return out;
}

std::vector<ReportSample> Report::parse_telemetry(
    std::string_view jsonl, std::map<std::string, double>* meta) {
  std::vector<ReportSample> out;
  for_each_line(jsonl, "telemetry.jsonl", [&out, meta](const Value& v) {
    if (const Value* m = v.find("meta")) {
      if (meta != nullptr) *meta = number_map(*m);
      return;
    }
    ReportSample s;
    s.t_us = v.number_or("t_us", 0);
    s.series = v.string_or("series", "");
    s.value = v.number_or("v", 0);
    out.push_back(std::move(s));
  });
  return out;
}

std::vector<ReportAuditRow> Report::parse_audit(
    std::string_view jsonl, std::map<std::string, double>* meta) {
  std::vector<ReportAuditRow> out;
  for_each_line(jsonl, "audit.jsonl", [&out, meta](const Value& v) {
    if (const Value* m = v.find("meta")) {
      if (meta != nullptr) *meta = number_map(*m);
      return;
    }
    ReportAuditRow r;
    r.t_us = v.number_or("t_us", 0);
    r.pkt = static_cast<std::uint64_t>(v.number_or("pkt", 0));
    r.flow = static_cast<std::uint64_t>(v.number_or("flow", 0));
    r.dir = v.string_or("dir", "-");
    r.type = v.string_or("type", "data");
    r.policy = v.string_or("policy", "");
    r.reason = v.string_or("reason", "unspecified");
    r.prio = static_cast<int>(v.number_or("prio", 0));
    r.app_prio = static_cast<int>(v.number_or("app_prio", -1));
    r.bytes = static_cast<std::int64_t>(v.number_or("bytes", 0));
    r.chosen = static_cast<int>(v.number_or("ch", 0));
    r.duplicates = static_cast<int>(v.number_or("dups", 0));
    out.push_back(std::move(r));
  });
  return out;
}

std::vector<ReportSpanUnit> Report::parse_spans(
    std::string_view jsonl, std::map<std::string, double>* meta) {
  std::vector<ReportSpanUnit> out;
  for_each_line(jsonl, "spans.jsonl", [&out, meta](const Value& v) {
    if (const Value* m = v.find("meta")) {
      if (meta != nullptr) {
        // Sum across shards: every field is a count.
        for (const auto& [k, mv] : number_map(*m)) (*meta)[k] += mv;
      }
      return;
    }
    ReportSpanUnit u;
    u.key = v.string_or("k", "");
    u.n = static_cast<std::uint64_t>(v.number_or("n", 0));
    u.keep = v.string_or("keep", "");
    u.user = static_cast<std::uint64_t>(v.number_or("user", 0));
    u.seq = static_cast<std::uint64_t>(v.number_or("seq", 0));
    u.value = v.number_or("v", 0);
    u.t0_ns = static_cast<std::int64_t>(v.number_or("t0_ns", 0));
    u.t1_ns = static_cast<std::int64_t>(v.number_or("t1_ns", 0));
    u.total_ns = static_cast<std::int64_t>(v.number_or("total_ns", 0));
    if (const Value* stages = v.find("stages")) {
      for (const Value& sv : stages->array) {
        ReportSpanStage st;
        st.t0_ns = static_cast<std::int64_t>(sv.number_or("t0_ns", 0));
        st.t1_ns = static_cast<std::int64_t>(sv.number_or("t1_ns", 0));
        st.prop_ns = static_cast<std::int64_t>(sv.number_or("prop_ns", 0));
        st.prop_channel = sv.string_or("prop_ch", "");
        st.legs = static_cast<int>(sv.number_or("legs", 0));
        if (const Value* c = sv.find("crit")) {
          st.crit.slot = static_cast<int>(c->number_or("slot", 0));
          st.crit.channel = c->string_or("ch", "");
          st.crit.reason = c->string_or("reason", "");
          st.crit.bytes = static_cast<std::int64_t>(c->number_or("bytes", 0));
          st.crit.t0_ns = static_cast<std::int64_t>(c->number_or("t0_ns", 0));
          st.crit.t1_ns = static_cast<std::int64_t>(c->number_or("t1_ns", 0));
          if (const Value* parts = c->find("parts")) {
            for (const auto& [pk, pv] : parts->object) {
              if (pv.is_number()) {
                st.crit.parts_ns[pk] = static_cast<std::int64_t>(pv.num);
              }
            }
          }
        }
        u.stages.push_back(std::move(st));
      }
    }
    out.push_back(std::move(u));
  });
  return out;
}

Report Report::load(const std::string& prefix,
                    const std::string& trace_path) {
  Report rep;
  rep.prefix = prefix;
  rep.runs = parse_results(read_file(prefix + ".results.jsonl"));
  const std::string telemetry = read_if_exists(prefix + ".telemetry.jsonl");
  if (!telemetry.empty()) {
    rep.telemetry = parse_telemetry(telemetry, &rep.telemetry_meta);
  }
  const std::string audit = read_if_exists(prefix + ".audit.jsonl");
  if (!audit.empty()) rep.audit = parse_audit(audit, &rep.audit_meta);
  // Spans: a single run writes <prefix>.spans.jsonl; a sweep writes one
  // artifact per run as <prefix>.run<i>.spans.jsonl. Load whichever
  // exists, tagging sweep exemplars with their run index.
  const std::string spans = read_if_exists(prefix + ".spans.jsonl");
  if (!spans.empty()) rep.spans = parse_spans(spans, &rep.spans_meta);
  for (const auto& r : rep.runs) {
    const std::string per_run = read_if_exists(
        prefix + ".run" + std::to_string(r.index) + ".spans.jsonl");
    if (per_run.empty()) continue;
    std::vector<ReportSpanUnit> units =
        parse_spans(per_run, &rep.spans_meta);
    for (auto& u : units) {
      u.run = static_cast<int>(r.index);
      rep.spans.push_back(std::move(u));
    }
  }
  if (!trace_path.empty()) {
    rep.lifecycle_trace = read_file(trace_path);  // explicit: must exist
  }
  return rep;
}

std::string display_number(double v) {
  // Below 2^53 every integral double prints exactly; `+ 0.0` turns -0
  // into 0.
  if (v == std::trunc(v) && std::fabs(v) < 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v + 0.0);
    return buf;
  }
  return obs::json::number(v);
}

std::string display_param(const std::string& value) {
  Value num;
  const bool numeric = obs::json::parse(value, &num) && num.is_number();
  return numeric ? display_number(num.num) : value;
}

std::string Report::render_summary() const {
  std::string out = "== runs (" + std::to_string(runs.size()) + ") ==\n";
  for (const auto& r : runs) {
    out += "run " + std::to_string(r.index) + " " + r.name;
    for (const auto& [k, v] : r.params) {
      out += " " + k + "=" + display_param(v);
    }
    out += "\n";
    if (!r.error.empty()) {
      out += "  ERROR: " + r.error + "\n";
      continue;
    }
    for (const auto& [k, v] : r.metrics) {
      char buf[192];
      std::snprintf(buf, sizeof(buf), "  %-40s %s\n", k.c_str(),
                    display_number(v).c_str());
      out += buf;
    }
    const auto timeouts = r.metrics.find("web.timeouts");
    const auto loads = r.metrics.find("web.plt_ms.count");
    if (timeouts != r.metrics.end() && timeouts->second > 0 &&
        loads != r.metrics.end()) {
      out += "  censored: " + display_number(timeouts->second) + " of " +
             display_number(loads->second) +
             " loads hit the timeout and enter web.plt_ms.* at the "
             "timeout value\n";
    }
  }
  return out;
}

std::string Report::render_decisions() const {
  std::string out = "== steering decisions ==\n";
  // Per-channel shares from the runs' registry counters:
  //   steer.<policy>.<dir>.decisions.ch<i>
  for (const auto& r : runs) {
    // group key "policy.dir" -> channel -> count
    std::map<std::string, std::map<int, double>> groups;
    for (const auto& [k, v] : r.obs) {
      static const std::string kPrefix = "steer.";
      static const std::string kInfix = ".decisions.ch";
      if (k.rfind(kPrefix, 0) != 0) continue;
      const std::size_t at = k.find(kInfix);
      if (at == std::string::npos) continue;
      const std::string who = k.substr(kPrefix.size(), at - kPrefix.size());
      const int ch = std::atoi(k.c_str() + at + kInfix.size());
      groups[who][ch] += v;
    }
    if (groups.empty()) continue;
    out += "run " + std::to_string(r.index) + " " + r.name + "\n";
    for (const auto& [who, per_ch] : groups) {
      double total = 0;
      for (const auto& [ch, n] : per_ch) total += n;
      out += "  " + who + ":";
      for (const auto& [ch, n] : per_ch) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), " ch%d %.1f%% (%.0f)", ch,
                      total > 0 ? 100.0 * n / total : 0.0, n);
        out += buf;
      }
      out += "\n";
    }
  }
  if (!audit.empty()) {
    out += "== decision reasons (audit, " + std::to_string(audit.size()) +
           " records";
    const auto overwritten = audit_meta.find("overwritten");
    if (overwritten != audit_meta.end()) {
      out += ", " + display_number(overwritten->second) +
             " older records overwritten";
    }
    out += ") ==\n";
    // policy/dir -> reason -> count
    std::map<std::string, std::map<std::string, std::size_t>> reasons;
    std::map<std::string, std::size_t> totals;
    for (const auto& a : audit) {
      const std::string who = a.policy + "/" + a.dir;
      ++reasons[who][a.reason];
      ++totals[who];
    }
    for (const auto& [who, by_reason] : reasons) {
      out += "  " + who + " (" + std::to_string(totals[who]) + "):\n";
      // Highest-share reasons first; ties alphabetical for determinism.
      std::vector<std::pair<std::string, std::size_t>> ordered(
          by_reason.begin(), by_reason.end());
      std::sort(ordered.begin(), ordered.end(),
                [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
                });
      for (const auto& [reason, n] : ordered) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "    %-36s %6.1f%% (%zu)\n",
                      reason.c_str(),
                      100.0 * static_cast<double>(n) /
                          static_cast<double>(totals[who]),
                      n);
        out += buf;
      }
    }
  }
  return out;
}

std::string Report::render_telemetry() const {
  std::string out = "== telemetry ==\n";
  if (telemetry.empty()) {
    out += "  (no telemetry samples)\n";
    return out;
  }
  if (!telemetry_meta.empty()) {
    out += "  meta:";
    for (const auto& [k, v] : telemetry_meta) {
      out += " " + k + "=" + obs::json::number(v);
    }
    out += "\n";
  }
  std::map<std::string, sim::Summary> by_series;
  for (const auto& s : telemetry) by_series[s.series].add(s.value);
  char head[256];
  std::snprintf(head, sizeof(head), "  %-46s %8s %12s %12s %12s %12s %12s\n",
                "series", "samples", "mean", "p50", "p99", "min", "max");
  out += head;
  for (const auto& [name, sum] : by_series) {
    append_row(&out, name, static_cast<double>(sum.count()), sum.mean(),
               sum.percentile(50), sum.percentile(99), sum.min(), sum.max());
  }
  return out;
}

std::string Report::render_cohorts() const {
  std::string out;
  for (const auto& r : runs) {
    const CohortRows rows = cohort_rows(r);
    if (rows.stats.empty()) continue;
    if (out.empty()) out = "== cohorts ==\n";
    out += "run " + std::to_string(r.index) + " " + r.name;
    for (const auto& [k, v] : r.params) out += " " + k + "=" + v;
    out += "\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-12s %-12s %8s %10s %10s %10s %10s %8s\n", "cohort",
                  "metric", "count", "mean", "p50", "p95", "p99", "jain");
    out += buf;
    for (const auto& [key, stats] : rows.stats) {
      const auto& [cohort, metric] = key;
      const auto stat = [&stats](const char* name) {
        const auto it = stats.find(name);
        return it != stats.end() ? it->second : 0.0;
      };
      const auto jain = rows.jain.find(cohort);
      std::snprintf(buf, sizeof(buf),
                    "  %-12s %-12s %8.0f %10.2f %10.2f %10.2f %10.2f",
                    cohort.c_str(), metric.c_str(), stat("count"),
                    stat("mean"), stat("p50"), stat("p95"), stat("p99"));
      out += buf;
      if (jain != rows.jain.end()) {
        std::snprintf(buf, sizeof(buf), " %8.4f", jain->second);
        out += buf;
      } else {
        out += "        -";
      }
      out += "\n";
    }
  }
  return out;
}

std::string Report::render_capacity() const {
  const auto curves = capacity_curves(runs);
  if (curves.empty()) return "";
  std::string out = "== capacity curve ==\n";
  for (const auto& [key, points] : curves) {
    out += key + "\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %10s %14s %14s %14s %12s %10s\n", "users",
                  "web_plt_p50ms", "web_plt_p95ms", "video_p95ms",
                  "spill_rate", "jain_web");
    out += buf;
    for (const auto& p : points) {
      const RunResult& r = *p.run;
      std::snprintf(buf, sizeof(buf),
                    "  %10.0f %14.2f %14.2f %14.2f %12.4f %10.4f\n",
                    p.users, metric_or(r, "city.web.plt_ms.p50", 0),
                    metric_or(r, "city.web.plt_ms.p95", 0),
                    metric_or(r, "city.video.latency_ms.p95", 0),
                    metric_or(r, "city.urllc_spill_rate", 0),
                    metric_or(r, "city.jain.web", 0));
      out += buf;
    }
  }
  return out;
}

std::string Report::capacity_json() const {
  const auto curves = capacity_curves(runs);
  obs::json::Writer w;
  w.raw("{\"curves\":[");
  bool first_curve = true;
  for (const auto& [key, points] : curves) {
    if (!first_curve) w.put(',');
    first_curve = false;
    w.raw("{\"params\":{");
    bool first_param = true;
    if (!points.empty()) {
      for (const auto& [k, v] : points.front().run->params) {
        if (k == "city.users" || k == "users") continue;
        if (!first_param) w.put(',');
        first_param = false;
        w.str(k).put(':').str(v);
      }
    }
    w.raw("},\"points\":[");
    bool first_point = true;
    for (const auto& p : points) {
      const RunResult& r = *p.run;
      if (!first_point) w.put(',');
      first_point = false;
      w.raw("{\"users\":").num(p.users);
      // Every city metric rides along so plots are not limited to the
      // table's headline columns.
      for (const auto& [k, v] : r.metrics) {
        if (k.rfind("city.", 0) != 0 || k == "city.users") continue;
        w.put(',').str(std::string_view(k).substr(5)).put(':').num(v);
      }
      w.put('}');
    }
    w.raw("]}");
  }
  w.raw("]}");
  return w.take();
}

std::string Report::render_explain() const {
  if (spans.empty()) return "";
  // Fixed component order: the waterfall reads causally (propagation
  // before queueing before serialization), channels alphabetical.
  static const char* kComps[] = {"propagation",   "steering-wait",
                                 "queueing",      "retransmission",
                                 "reorder-wait",  "serialization",
                                 "decode-wait"};
  std::string out = "== span exemplars (" + std::to_string(spans.size()) +
                    " retained) ==\n";
  if (!spans_meta.empty()) {
    out += "  meta:";
    for (const auto& [k, v] : spans_meta) {
      out += " " + k + "=" + obs::json::number(v);
    }
    out += "\n";
  }
  char buf[256];
  for (const auto& u : spans) {
    out += "\n-- " + u.key;
    if (u.run >= 0) out += " run=" + std::to_string(u.run);
    std::snprintf(buf, sizeof(buf),
                  " n=%llu keep=%s user=%llu seq=%llu value=%s --\n",
                  static_cast<unsigned long long>(u.n), u.keep.c_str(),
                  static_cast<unsigned long long>(u.user),
                  static_cast<unsigned long long>(u.seq),
                  obs::json::number(u.value).c_str());
    out += buf;
    // Waterfall: stage windows relative to the unit's start.
    std::snprintf(buf, sizeof(buf), "  waterfall (t0 = %.3f ms):\n",
                  static_cast<double>(u.t0_ns) * 1e-6);
    out += buf;
    for (std::size_t i = 0; i < u.stages.size(); ++i) {
      const ReportSpanStage& st = u.stages[i];
      std::snprintf(buf, sizeof(buf), "    stage %zu [%10.3f ..%10.3f ms]",
                    i + 1, static_cast<double>(st.t0_ns - u.t0_ns) * 1e-6,
                    static_cast<double>(st.t1_ns - u.t0_ns) * 1e-6);
      out += buf;
      if (st.prop_ns > 0) {
        std::snprintf(buf, sizeof(buf), "  prop %.3f ms %s",
                      static_cast<double>(st.prop_ns) * 1e-6,
                      st.prop_channel.c_str());
        out += buf;
      }
      if (st.legs > 0) {
        std::snprintf(buf, sizeof(buf),
                      "  | crit leg slot%d %s %lldB %s (of %d)",
                      st.crit.slot, st.crit.channel.c_str(),
                      static_cast<long long>(st.crit.bytes),
                      st.crit.reason.c_str(), st.legs);
        out += buf;
      }
      out += "\n";
    }
    // Attribution: component x channel, exact integer ns, shown in ms.
    // Propagation rides the stage's prop_channel; leg parts ride the
    // critical leg's channel.
    std::map<std::string, std::map<std::string, std::int64_t>> attr;
    std::int64_t sum_ns = 0;
    for (const ReportSpanStage& st : u.stages) {
      if (st.prop_ns > 0) {
        const std::string ch =
            st.prop_channel.empty() ? "-" : st.prop_channel;
        attr["propagation"][ch] += st.prop_ns;
        sum_ns += st.prop_ns;
      }
      if (st.legs > 0) {
        const std::string ch =
            st.crit.channel.empty() ? "-" : st.crit.channel;
        for (const auto& [comp, ns] : st.crit.parts_ns) {
          attr[comp][ch] += ns;
          sum_ns += ns;
        }
      }
    }
    std::vector<std::string> channels;
    for (const auto& [comp, by_ch] : attr) {
      for (const auto& [ch, ns] : by_ch) {
        if (std::find(channels.begin(), channels.end(), ch) ==
            channels.end()) {
          channels.push_back(ch);
        }
      }
    }
    std::sort(channels.begin(), channels.end());
    out += "  attribution (ms):\n";
    out += "    component        ";
    for (const auto& ch : channels) {
      std::snprintf(buf, sizeof(buf), " %12s", ch.c_str());
      out += buf;
    }
    out += "        total\n";
    std::map<std::string, std::int64_t> ch_total;
    for (const char* comp : kComps) {
      const auto it = attr.find(comp);
      if (it == attr.end()) continue;
      std::int64_t row = 0;
      std::snprintf(buf, sizeof(buf), "    %-16s ", comp);
      out += buf;
      for (const auto& ch : channels) {
        const auto cit = it->second.find(ch);
        const std::int64_t ns = cit != it->second.end() ? cit->second : 0;
        row += ns;
        ch_total[ch] += ns;
        std::snprintf(buf, sizeof(buf), " %12.3f",
                      static_cast<double>(ns) * 1e-6);
        out += buf;
      }
      std::snprintf(buf, sizeof(buf), " %12.3f\n",
                    static_cast<double>(row) * 1e-6);
      out += buf;
    }
    out += "    total            ";
    for (const auto& ch : channels) {
      std::snprintf(buf, sizeof(buf), " %12.3f",
                    static_cast<double>(ch_total[ch]) * 1e-6);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " %12.3f\n",
                  static_cast<double>(sum_ns) * 1e-6);
    out += buf;
    if (sum_ns == u.total_ns) {
      std::snprintf(buf, sizeof(buf),
                    "  check: components sum to %lld ns == measured total"
                    " (exact)\n",
                    static_cast<long long>(sum_ns));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  check: MISMATCH components %lld ns != measured"
                    " %lld ns\n",
                    static_cast<long long>(sum_ns),
                    static_cast<long long>(u.total_ns));
    }
    out += buf;
  }
  return out;
}

std::string Report::to_chrome_trace() const {
  obs::json::Writer w;
  write_chrome_trace(w);
  return w.take();
}

void Report::write_chrome_trace(obs::json::Writer& w) const {
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  // Starts the next event: the separator, then the event's text.
  const auto next = [&w, &first]() -> obs::json::Writer& {
    if (!first) w.put(',');
    first = false;
    return w;
  };

  // Lifecycle events come first, on the same pid 0 / sim-time base. Each
  // is parsed and re-serialized on its own (object keys sorted), so the
  // trace is never one tree in memory.
  std::map<std::string, double> lifecycle_meta;  // its otherData, if any
  if (!lifecycle_trace.empty() &&
      !obs::json::Parser(lifecycle_trace)
           .parse_object_streaming(
               "traceEvents", [&next](const Value& e) { next().value(e); },
               [&lifecycle_meta](const std::string& key, const Value& v) {
                 if (key == "otherData") lifecycle_meta = number_map(v);
               })) {
    throw SpecError("lifecycle trace: malformed Chrome trace JSON");
  }

  // A wrapped audit ring kept only its newest decisions: the track says
  // how many older ones it lost.
  const auto overwritten = audit_meta.find("overwritten");
  const bool audit_wrapped = overwritten != audit_meta.end();
  if (!audit.empty()) {
    next().raw(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":3000,"
        "\"args\":{\"name\":");
    w.str(audit_wrapped ? "steering decisions (" +
                              display_number(overwritten->second) +
                              " older overwritten)"
                        : std::string("steering decisions"));
    w.raw("}}");
  }

  for (const auto& s : telemetry) {
    next().raw("{\"name\":").str(s.series);
    w.raw(",\"ph\":\"C\",\"pid\":0,\"ts\":").fixed3(s.t_us);
    w.raw(",\"args\":{\"value\":").num(s.value).raw("}}");
  }
  for (const auto& a : audit) {
    next().raw("{\"name\":").str(a.reason);
    w.raw(",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":3000,\"ts\":")
        .fixed3(a.t_us);
    w.raw(",\"args\":{\"pkt\":").num(a.pkt);
    w.raw(",\"flow\":").num(a.flow);
    w.raw(",\"ch\":").num(a.chosen);
    w.raw(",\"policy\":").str(a.policy);
    w.raw(",\"dir\":").str(a.dir).raw("}}");
  }

  // Retained span trees nest under the shared sim-time base: one tid per
  // exemplar (overlapping units on a shared tid would break nesting).
  const auto complete = [&](int tid, std::int64_t t0_ns,
                            std::int64_t t1_ns) {
    w.raw(",\"ph\":\"X\",\"pid\":0,\"tid\":").num(tid);
    w.raw(",\"ts\":").fixed3(static_cast<double>(t0_ns) * 1e-3);
    w.raw(",\"dur\":").fixed3(static_cast<double>(t1_ns - t0_ns) * 1e-3);
    w.raw(",\"args\":");
  };
  int span_tid = 4000;
  for (const auto& u : spans) {
    const int tid = span_tid++;
    std::string label = "span " + u.key + " n=" + std::to_string(u.n) +
                        " (" + u.keep + ")";
    if (u.run >= 0) label += " run" + std::to_string(u.run);
    next().raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":")
        .num(tid);
    w.raw(",\"args\":{\"name\":").str(label).raw("}}");
    next().raw("{\"name\":").str(u.key);
    complete(tid, u.t0_ns, u.t1_ns);
    w.raw("{\"user\":").num(u.user);
    w.raw(",\"value\":").num(u.value).raw("}}");
    for (std::size_t i = 0; i < u.stages.size(); ++i) {
      const ReportSpanStage& st = u.stages[i];
      next().raw("{\"name\":\"stage ").num(i + 1).put('"');
      complete(tid, st.t0_ns, st.t1_ns);
      w.raw("{\"legs\":").num(st.legs).raw("}}");
      if (st.legs == 0) continue;
      next().raw("{\"name\":").str(st.crit.reason);
      complete(tid, st.crit.t0_ns, st.crit.t1_ns);
      w.raw("{\"channel\":").str(st.crit.channel);
      w.raw(",\"bytes\":").num(st.crit.bytes);
      for (const auto& [comp, ns] : st.crit.parts_ns) {
        w.put(',').str(comp + "_ms").put(':').num(static_cast<double>(ns) *
                                                  1e-6);
      }
      w.raw("}}");
    }
  }
  w.put(']');

  // Both truncation flags, each in the shape its ring exports it in:
  // present only when that ring wrapped.
  const auto ring = [&w](const char* name,
                         const std::map<std::string, double>& meta) {
    const auto count = [&meta](const char* key) {
      const auto it = meta.find(key);
      return static_cast<std::uint64_t>(it != meta.end() ? it->second : 0);
    };
    w.put('"').raw(name).raw("\":{");
    w.ring_counts(count("capacity"), count("recorded")).put('}');
  };
  if (!lifecycle_meta.empty() || audit_wrapped) {
    w.raw(",\"otherData\":{");
    if (!lifecycle_meta.empty()) ring("lifecycle", lifecycle_meta);
    if (!lifecycle_meta.empty() && audit_wrapped) w.put(',');
    if (audit_wrapped) ring("audit", audit_meta);
    w.put('}');
  }
  w.put('}');
}

}  // namespace hvc::exp
