// Ablation A (§3.1): the latency-vs-cost trade-off. A cISP-style priced
// microwave channel next to ordinary fiber; a stream of interactive
// messages under cost-aware steering with a swept budget. Measures the
// latency improvement purchased per dollar.
#include <cstdio>
#include <map>

#include "bench/bench_util.hpp"
#include "core/scenario.hpp"
#include "steer/cost_aware.hpp"
#include "transport/datagram.hpp"

int main() {
  using namespace hvc;
  bench::print_header(
      "Ablation A: cost-aware steering (fiber 40 ms + cISP 8 ms @ $0.05/MB)");
  bench::print_row({"budget $/s", "mean ms", "msg p50 ms", "msg p95 ms",
                    "$ spent", "cisp pkts"});

  for (const double budget : {0.0, 0.0005, 0.002, 0.01, 0.05}) {
    sim::Simulator s;
    steer::CostAwareConfig cc;
    cc.budget_per_second = budget;
    cc.max_budget = budget * 5;
    cc.min_ms_saved_per_dollar = 50.0;
    auto policy_up = std::make_unique<steer::CostAwarePolicy>(cc);
    auto policy_down = std::make_unique<steer::CostAwarePolicy>(cc);
    auto* down_ptr = policy_down.get();
    net::TwoHostNetwork net(s, std::move(policy_up), std::move(policy_down));
    net.add_channel(channel::fiber_profile());
    net.add_channel(channel::cisp_profile());
    net.finalize();

    const auto flow = net::next_flow_id();
    transport::DatagramSocket tx(net.server(), flow);
    transport::DatagramSocket rx(net.client(), flow);
    sim::Summary latency;
    std::map<std::uint64_t, sim::Time> sent;
    rx.set_on_message([&](const transport::DatagramSocket::MessageEvent& ev) {
      latency.add(sim::to_millis(ev.completed - ev.sent_at));
    });
    // 50 single-packet interactive messages/s for 30 s.
    for (int i = 0; i < 1500; ++i) {
      s.at(sim::milliseconds(20 * i), [&] { tx.send_message(1200, 0); });
    }
    s.run_until(sim::seconds(32));

    bench::print_row({bench::fmt(budget, 4), bench::fmt(latency.mean()),
                      bench::fmt(latency.percentile(50)),
                      bench::fmt(latency.percentile(95)),
                      bench::fmt(down_ptr->total_spent(), 4),
                      std::to_string(net.downlink_shim()
                                         .stats()
                                         .packets_per_channel[1])});
  }
  std::printf(
      "\nExpected shape: latency falls from the fiber RTT toward the cISP\n"
      "RTT as the budget allows more packets onto the priced channel.\n");
  return 0;
}
