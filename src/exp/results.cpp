#include "exp/results.hpp"

#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "obs/json.hpp"

namespace hvc::exp {

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
