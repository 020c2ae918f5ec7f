#include "exp/results.hpp"

#include <filesystem>
#include <set>
#include <stdexcept>
#include <system_error>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace hvc::exp {

std::string to_csv(const std::vector<RunResult>& runs) {
  std::set<std::string> param_cols;
  std::set<std::string> metric_cols;
  for (const auto& r : runs) {
    for (const auto& [k, unused] : r.params) param_cols.insert(k);
    for (const auto& [k, unused] : r.metrics) metric_cols.insert(k);
  }

  obs::json::Writer w;
  w.raw("run,name");
  for (const auto& c : param_cols) w.put(',').raw(obs::csv_escape(c));
  for (const auto& c : metric_cols) w.put(',').raw(obs::csv_escape(c));
  w.raw(",error\n");

  for (const auto& r : runs) {
    w.num(r.index).put(',').raw(obs::csv_escape(r.name));
    for (const auto& c : param_cols) {
      w.put(',');
      const auto it = r.params.find(c);
      if (it != r.params.end()) w.raw(obs::csv_escape(it->second));
    }
    for (const auto& c : metric_cols) {
      w.put(',');
      const auto it = r.metrics.find(c);
      if (it != r.metrics.end()) w.num(it->second);
    }
    w.put(',').raw(obs::csv_escape(r.error)).put('\n');
  }
  return w.take();
}

std::string to_jsonl(const std::vector<RunResult>& runs) {
  obs::json::Writer w;
  for (const auto& r : runs) {
    w.raw("{\"run\":").num(r.index);
    w.raw(",\"name\":").str(r.name);
    w.raw(",\"params\":{");
    bool first = true;
    for (const auto& [k, v] : r.params) {
      if (!first) w.put(',');
      first = false;
      w.str(k).put(':').str(v);
    }
    w.raw("},\"metrics\":{");
    first = true;
    for (const auto& [k, v] : r.metrics) {
      if (!first) w.put(',');
      first = false;
      w.str(k).put(':').num(v);
    }
    w.raw("},\"obs\":{");
    first = true;
    for (const auto& [k, v] : r.obs) {
      if (!first) w.put(',');
      first = false;
      w.str(k).put(':').num(v);
    }
    w.put('}');
    if (!r.error.empty()) w.raw(",\"error\":").str(r.error);
    w.raw("}\n");
  }
  return w.take();
}

void write_file(const std::string& path, const std::string& content) {
  try {
    obs::json::Writer w(path);
    w.raw(content);
    w.close();
  } catch (const std::runtime_error& e) {
    throw SpecError(e.what());
  }
}

std::string default_out_prefix(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench/out", ec);
  if (ec) return name;
  return "bench/out/" + name;
}

}  // namespace hvc::exp
