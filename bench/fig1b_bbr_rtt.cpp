// Figure 1b: packet RTTs observed by BBR when running over DChannel
// steering. The paper's plot shows per-packet RTT oscillating between the
// URLLC floor (~5 ms) and the queue-inflated eMBB path (tens to ~170 ms)
// over the first ~15 s, with a drain around the 10 s PROBE_RTT.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/scenario.hpp"

int main() {
  using namespace hvc;
  bench::print_header("Figure 1b: BBR packet RTTs under DChannel steering");

  const auto r =
      core::run_bulk(core::ScenarioConfig::fig1(), "bbr", sim::seconds(15));

  // 250 ms buckets of the per-ACK RTT series (mean per bucket), plus the
  // bucket min/max envelope, which is what the paper's scatter conveys.
  std::printf("%8s %10s %10s %10s\n", "t(s)", "meanRTT", "minRTT", "maxRTT");
  const auto& pts = r.rtt_ms.points();
  const sim::Duration bucket = sim::milliseconds(250);
  std::size_t i = 0;
  for (sim::Time t0 = 0; t0 < sim::seconds(15); t0 += bucket) {
    double sum = 0, mn = 1e18, mx = -1;
    int n = 0;
    while (i < pts.size() && pts[i].t < t0 + bucket) {
      sum += pts[i].value;
      mn = std::min(mn, pts[i].value);
      mx = std::max(mx, pts[i].value);
      ++n;
      ++i;
    }
    if (n > 0) {
      std::printf("%8.2f %10.1f %10.1f %10.1f\n", sim::to_seconds(t0), sum / n,
                  mn, mx);
    }
  }

  sim::Summary all;
  for (const auto& p : pts) all.add(p.value);
  std::printf("\noverall: n=%zu min=%.1f ms p50=%.1f ms max=%.1f ms\n",
              all.count(), all.min(), all.percentile(50), all.max());
  std::printf("goodput over 15 s: %.2f Mbps\n", r.goodput_bps / 1e6);
  std::printf(
      "\nShape check (paper): RTT swings between the URLLC floor and the\n"
      "queue-inflated eMBB value because packets keep switching channels;\n"
      "the polluted min-RTT makes BBR underestimate the BDP.\n");
  return 0;
}
