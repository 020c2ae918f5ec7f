// Ablation D (§3.2/§4): transport-layer segment steering with the
// MPQUIC-style multipath transport. Compares the classic minRTT scheduler
// against the HVC-aware scheduler (intents + tail acceleration), and ACKs
// on the data path vs ACKs on the low-latency path, on a mixed workload:
// one bulk stream + a stream of small interactive messages.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "channel/profile.hpp"
#include "net/node.hpp"
#include "quic/mp_connection.hpp"
#include "steer/basic_policies.hpp"

int main() {
  using namespace hvc;
  bench::print_header(
      "Ablation D: MPQUIC-style schedulers (bulk + interactive mix, 8 s)");
  bench::print_row({"scheduler", "acks", "small p50", "small p95", "done",
                    "bulk Mbps", "retx"});

  for (const auto sched :
       {quic::SchedulerKind::kMinRtt, quic::SchedulerKind::kEcf,
        quic::SchedulerKind::kHvcAware}) {
    for (const bool ack_fast : {false, true}) {
      sim::Simulator s;
      net::TwoHostNetwork net(
          s, std::make_unique<steer::PinnedChannelPolicy>(),
          std::make_unique<steer::PinnedChannelPolicy>());
      net.add_channel(channel::embb_constant_profile());
      net.add_channel(channel::urllc_profile());
      net.finalize();

      quic::MpConfig cfg;
      cfg.scheduler = sched;
      cfg.ack_on_fast_path = ack_fast;
      auto conn =
          quic::MpConnection::make_pair(net.client(), net.server(), 2, cfg);
      const auto interactive =
          conn.server->open_stream(quic::StreamIntents::interactive(0));
      const auto bulk = conn.server->open_stream(quic::StreamIntents::bulk());

      sim::Summary small_lat;
      std::int64_t bulk_bytes = 0;
      conn.client->set_on_message(
          [&](const quic::MpEndpoint::MessageEvent& ev) {
            if (ev.priority == 0) {
              small_lat.add(sim::to_millis(ev.completed - ev.sent_at));
            } else {
              bulk_bytes += 400'000;
            }
          });
      for (int i = 0; i < 120; ++i) {
        s.at(sim::milliseconds(50 * i),
             [&] { conn.server->send_message(bulk, 400'000); });
      }
      for (int i = 0; i < 240; ++i) {
        s.at(sim::milliseconds(25 * i),
             [&] { conn.server->send_message(interactive, 3'000); });
      }
      s.run_until(sim::seconds(8));

      bench::print_row(
          {sched == quic::SchedulerKind::kMinRtt
               ? "minRTT"
               : sched == quic::SchedulerKind::kEcf ? "ECF" : "hvc-aware",
           ack_fast ? "fast-path" : "data-path",
           bench::fmt(small_lat.percentile(50)),
           bench::fmt(small_lat.percentile(95)),
           std::to_string(small_lat.count()) + "/240",
           bench::fmt(static_cast<double>(bulk_bytes) * 8.0 / 8.0 / 1e6, 1),
           std::to_string(conn.server->stats().retransmitted_chunks)});
    }
  }
  std::printf(
      "\nExpected shape: the HVC-aware scheduler pins interactive messages\n"
      "to URLLC and keeps bulk on eMBB — small-message latency drops ~3x\n"
      "vs minRTT, which floods the low-latency path with bulk data.\n");
  return 0;
}
