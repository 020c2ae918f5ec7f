// Part of the sanctioned clock island (see prof.hpp): calibration,
// thread pinning and host metadata for perf manifests.
#include "obs/prof.hpp"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hvc::obs::prof {

namespace {

int g_pinned_cpu = -1;

/// One calibration spin: (cycles delta) / (ns delta) over ~`spin_ns`.
double measure_cycles_per_ns(std::uint64_t spin_ns) {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = cycles();
  while (now_ns() - t0 < spin_ns) {
    // busy-wait; the loop body is the clock read itself
  }
  const std::uint64_t c1 = cycles();
  const std::uint64_t t1 = now_ns();
  if (t1 <= t0 || c1 <= c0) return 1.0;
  return static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
}

}  // namespace

const char* hook_name(Hook h) {
  switch (h) {
    case Hook::kEventPush: return "event_push";
    case Hook::kEventPop: return "event_pop";
    case Hook::kPacketAlloc: return "packet_alloc";
    case Hook::kPacketFree: return "packet_free";
    case Hook::kLinkServe: return "link_serve";
    case Hook::kSteer: return "steer";
    case Hook::kTelemetrySample: return "telemetry_sample";
  }
  return "?";
}

double cycles_per_ns() {
  static std::once_flag once;
  static double rate = 1.0;
  std::call_once(once, [] {
    // Two spins; keep the second (first absorbs frequency ramp-up).
    measure_cycles_per_ns(2'000'000);
    rate = measure_cycles_per_ns(10'000'000);
    if (rate <= 0.0) rate = 1.0;
  });
  return rate;
}

bool pin_to_cpu(int cpu) {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) return false;
  g_pinned_cpu = cpu;
  return true;
#else
  (void)cpu;
  return false;
#endif
}

int pinned_cpu() { return g_pinned_cpu; }

std::string cpu_model() {
#if defined(__linux__)
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.rfind("model name", 0) == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
#endif
  return "unknown";
}

std::string git_sha(const std::string& repo_dir) {
  const std::string cmd =
      "git -C \"" + repo_dir + "\" rev-parse HEAD 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");  // NOLINT
  if (pipe == nullptr) return "unknown";
  char buf[128] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "g++ " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace hvc::obs::prof
