// Ablation C (§3.2): an HVC-aware congestion controller vs vanilla BBR
// under DChannel steering. Identical setup to Fig. 1a; the HVC-aware CCA
// attributes RTT samples to channels (receiver echoes the channel index)
// and computes the BDP against the bandwidth-weighted cross-channel RTT.
// The steered-vs-eMBB-only goodput and retransmission table is the
// bbr/hvc/cubic rows of scenarios/fig1a_cca_sweep.json; this program
// prints the per-second goodput series the engine does not export.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/scenario.hpp"

int main() {
  using namespace hvc;
  bench::print_header("Ablation C: HVC-aware CC vs BBR under steering");

  // Per-second goodput series for bbr vs hvc: shows the collapse/recover
  // sawtooth vs steady utilization.
  for (const char* cca : {"bbr", "hvc"}) {
    const auto r =
        core::run_bulk(core::ScenarioConfig::fig1(), cca, sim::seconds(30));
    std::printf("\n%s goodput (Mbps/s):", cca);
    for (const auto& p : r.goodput_mbps.points()) {
      std::printf(" %.0f", p.value);
    }
    std::printf("\n");
  }
  return 0;
}
