// Shared table-printing helpers for the bench programs that print series
// or run workloads the scenario engine does not express.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace hvc::bench {

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace hvc::bench
