// Ablation (§2.2): the Wi-Fi TSN trade-off the paper calls "a key
// consideration" — unlike cellular, resources are not dedicated per user,
// so the deterministic window is paid for by everyone else. Sweeps the
// protected-window share of an 802.1Qbv schedule and reports TSN-slice
// latency determinism vs best-effort throughput loss.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "channel/profile.hpp"
#include "net/node.hpp"
#include "steer/basic_policies.hpp"
#include "trace/tsn.hpp"
#include "transport/datagram.hpp"

int main() {
  using namespace hvc;
  bench::print_header(
      "Ablation: 802.1Qbv window share vs TSN determinism / BE throughput");
  bench::print_row({"window %", "tsn p50 ms", "tsn max ms", "be Mbps",
                    "be loss %"});

  for (const int window_pct : {0, 5, 10, 20, 40}) {
    trace::TsnSchedule sched;
    sched.tsn_window = sched.cycle * window_pct / 100;

    sim::Simulator s;
    net::TwoHostNetwork net(s,
                            std::make_unique<steer::PinnedChannelPolicy>(),
                            std::make_unique<steer::PinnedChannelPolicy>());
    auto [tsn_profile, be_profile] = channel::wifi_tsn_gated_pair(sched);
    be_profile.loss = channel::LossConfig{};  // isolate gating effects
    net.add_channel(be_profile);  // channel 0: best effort
    const bool has_tsn = window_pct > 0;
    if (has_tsn) net.add_channel(tsn_profile);  // channel 1: TSN slice
    net.finalize();

    // TSN slice: 200 B sensor messages every 7 ms (co-prime with cycle).
    const auto tsn_flow = net::next_flow_id();
    transport::DatagramSocket tsn_tx(net.server(), tsn_flow);
    transport::DatagramSocket tsn_rx(net.client(), tsn_flow);
    sim::Summary tsn_ms;
    tsn_rx.set_on_message(
        [&](const transport::DatagramSocket::MessageEvent& ev) {
          tsn_ms.add(sim::to_millis(ev.completed - ev.sent_at));
        });

    // Best effort: saturating bulk datagrams.
    const auto be_flow = net::next_flow_id();
    transport::DatagramSocket be_tx(net.server(), be_flow);
    transport::DatagramSocket be_rx(net.client(), be_flow);
    std::int64_t be_bytes = 0;
    be_rx.set_on_packet(
        [&](const net::PacketPtr& p) { be_bytes += p->size_bytes; });

    for (int i = 0; i < 1400; ++i) {
      s.at(sim::milliseconds(7 * i), [&, has_tsn] {
        if (has_tsn) {
          auto p = net::make_packet();
          p->flow = tsn_flow;
          p->type = net::PacketType::kData;
          p->size_bytes = 200 + net::kHeaderBytes;
          p->requested_channel = 1;
          p->app.present = true;
          p->app.message_id = static_cast<std::uint64_t>(i) + 1;
          p->app.message_bytes = 200;
          p->app.message_end = true;
          p->tp.ts = s.now();
          net.server().send(std::move(p));
        }
      });
    }
    for (int i = 0; i < 110'000; ++i) {
      s.at(sim::microseconds(95 * i), [&] {
        auto p = net::make_packet();
        p->flow = be_flow;
        p->type = net::PacketType::kData;
        p->size_bytes = 1400 + net::kHeaderBytes;
        p->requested_channel = 0;
        net.server().send(std::move(p));
      });
    }
    s.run_until(sim::seconds(10));

    const double be_mbps = static_cast<double>(be_bytes) * 8.0 / 10.0 / 1e6;
    const auto& be_link = net.channels().at(0).downlink().stats();
    const double loss_pct =
        100.0 * static_cast<double>(be_link.dropped_queue_packets) /
        std::max<std::int64_t>(be_link.enqueued_packets +
                                   be_link.dropped_queue_packets,
                               1);
    bench::print_row({std::to_string(window_pct),
                      has_tsn ? bench::fmt(tsn_ms.percentile(50)) : "-",
                      has_tsn ? bench::fmt(tsn_ms.max()) : "-",
                      bench::fmt(be_mbps), bench::fmt(loss_pct)});
  }
  std::printf(
      "\nExpected shape: TSN latency stays deterministically bounded at\n"
      "every window size while best-effort throughput falls ~linearly\n"
      "with the window share plus guard overhead (who pays: everyone\n"
      "else, exactly the paper's §2.2 concern).\n");
  return 0;
}
