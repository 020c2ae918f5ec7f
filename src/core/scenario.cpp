#include "core/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "steer/basic_policies.hpp"
#include "steer/cost_aware.hpp"
#include "steer/dchannel.hpp"
#include "steer/flow_binding.hpp"
#include "steer/priority.hpp"
#include "steer/redundant.hpp"

namespace hvc::core {

namespace {

using Policy = std::unique_ptr<steer::SteeringPolicy>;

template <typename P>
Policy make() {
  return std::make_unique<P>();
}

constexpr sim::Named<PolicyMaker> kPolicyTable[] = {
    {"embb-only",
     []() -> Policy {
       return std::make_unique<steer::SingleChannelPolicy>(0);
     }},
    {"urllc-only",
     []() -> Policy {
       return std::make_unique<steer::SingleChannelPolicy>(1);
     }},
    {"round-robin", &make<steer::RoundRobinPolicy>},
    {"weighted", &make<steer::WeightedPolicy>},
    {"min-delay", &make<steer::MinDelayPolicy>},
    {"dchannel", &make<steer::DChannelPolicy>},
    {"dchannel+prio",
     []() -> Policy {
       return std::make_unique<steer::DChannelPolicy>(
           steer::DChannelConfig{.use_flow_priority = true});
     }},
    {"msg-priority", &make<steer::MessagePriorityPolicy>},
    {"redundant",
     []() -> Policy {
       return std::make_unique<steer::RedundantPolicy>(
           std::make_unique<steer::MinDelayPolicy>(), steer::RedundantConfig{});
     }},
    {"cost-aware", &make<steer::CostAwarePolicy>},
    {"flow-binding", &make<steer::FlowBindingPolicy>},
};

}  // namespace

constinit const std::span<const sim::Named<PolicyMaker>> kPolicies =
    kPolicyTable;

std::unique_ptr<steer::SteeringPolicy> make_policy(const std::string& name) {
  if (const auto* p = sim::find_name(kPolicies, name)) return p->value();
  throw std::invalid_argument("unknown steering policy: " + name);
}

ScenarioConfig ScenarioConfig::fig1(const std::string& policy) {
  ScenarioConfig cfg;
  cfg.channels = {channel::embb_constant_profile(),
                  channel::urllc_profile()};
  cfg.up_policy = policy;
  cfg.down_policy = policy;
  return cfg;
}

ScenarioConfig ScenarioConfig::traced(trace::FiveGProfile profile,
                                      const std::string& policy,
                                      sim::Duration duration,
                                      std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.channels = {channel::embb_trace_profile(profile, duration, seed),
                  channel::urllc_profile()};
  cfg.up_policy = policy;
  cfg.down_policy = policy;
  return cfg;
}

Scenario::Scenario(const ScenarioConfig& cfg) {
  auto up = cfg.up_factory ? cfg.up_factory() : make_policy(cfg.up_policy);
  auto down =
      cfg.down_factory ? cfg.down_factory() : make_policy(cfg.down_policy);
  net_ = std::make_unique<net::TwoHostNetwork>(sim_, std::move(up),
                                               std::move(down));
  for (const auto& profile : cfg.channels) net_->add_channel(profile);
  if (cfg.resequence_hold > 0) {
    net_->enable_resequencing(cfg.resequence_hold);
  }
  net_->finalize();
  // Fault injection arms against the finalized channel set — every
  // transition is on the simulator's calendar before the workload starts.
  if (!cfg.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        sim_, net_->channels(), cfg.faults);
  }
  // Topology exists (links and shims registered their probes above):
  // start the periodic telemetry tick if sampling is on for this thread.
  if (auto* ts = obs::TelemetrySampler::active()) ts->attach(sim_);
}

BulkResult run_bulk(const ScenarioConfig& cfg, const std::string& cca,
                    sim::Duration duration) {
  Scenario sc(cfg);
  const auto flows = transport::make_flow_pair();
  transport::TcpSender sender(sc.server(), flows, transport::make_cca(cca));
  transport::TcpReceiver receiver(sc.client(), flows);
  sender.write(sim::bytes_in(duration, sim::gbps(2)));  // never app-limited
  sc.sim().run_until(duration);

  BulkResult r;
  r.goodput_bps = sender.goodput_bps(0, duration);
  r.retransmissions = sender.stats().retransmissions;
  r.rto_count = sender.stats().rto_count;
  r.data_packets_per_channel =
      sc.network().downlink_shim().stats().packets_per_channel;
  if (auto* inj = sc.fault_injector()) {
    r.fault_blackout_committed_bytes = inj->blackout_committed_bytes();
    r.fault_blackout_dropped_packets = inj->blackout_dropped_packets();
  }

  // Per-second goodput from the cumulative acked series, in one walk: at
  // each second boundary, the value of the last point at or before it.
  auto& stats = sender.mutable_stats();
  const auto& acked = stats.acked_bytes_series.points();
  auto next = acked.begin();
  double prev = 0.0;
  double at = 0.0;
  for (sim::Time t = sim::seconds(1); t <= duration; t += sim::seconds(1)) {
    for (; next != acked.end() && next->t <= t; ++next) at = next->value;
    r.goodput_mbps.add(t, (at - prev) * 8.0 / 1e6);
    prev = at;
  }
  // The sender dies with this frame: hand its per-ACK series over.
  r.rtt_ms = std::move(stats.rtt_samples_ms);
  r.acked_bytes = std::move(stats.acked_bytes_series);
  return r;
}

VideoResult run_video(const ScenarioConfig& cfg,
                      const app::video::SvcConfig& svc,
                      const app::video::VideoReceiverConfig& rx,
                      sim::Duration duration) {
  // Late frames drain for this long after the sender stops (eMBB-only
  // tails run to seconds).
  constexpr sim::Duration kDrain = sim::seconds(12);
  Scenario sc(cfg);
  const auto flow = net::next_flow_id();
  app::video::VideoSender sender(sc.server(), flow, svc);
  app::video::VideoReceiver receiver(sc.client(), flow, sender, rx);
  sender.start(duration);
  sc.sim().run_until(duration + kDrain);

  VideoResult r;
  r.stats = receiver.stats();
  r.latency_cdf_ms = r.stats.latency_ms.samples();
  std::sort(r.latency_cdf_ms.begin(), r.latency_cdf_ms.end());
  r.ssim_cdf = r.stats.ssim.samples();
  std::sort(r.ssim_cdf.begin(), r.ssim_cdf.end());
  return r;
}

WebResult run_web(const ScenarioConfig& cfg,
                  const std::vector<app::web::WebPage>& corpus,
                  const WebRunConfig& web) {
  Scenario sc(cfg);
  WebResult result;

  transport::TcpConfig bg_cfg = web.browser.transport;
  bg_cfg.flow_priority = web.bg_flow_priority;
  std::unique_ptr<app::web::BackgroundJsonFlow> uploader;
  std::unique_ptr<app::web::BackgroundJsonFlow> downloader;
  if (web.background_flows) {
    uploader = std::make_unique<app::web::BackgroundJsonFlow>(
        sc.client(), sc.server(), app::web::BackgroundJsonFlow::Kind::kUpload,
        web.bg_upload_bytes, bg_cfg);
    downloader = std::make_unique<app::web::BackgroundJsonFlow>(
        sc.client(), sc.server(),
        app::web::BackgroundJsonFlow::Kind::kDownload,
        web.bg_download_bytes, bg_cfg);
    uploader->start();
    downloader->start();
  }

  for (const auto& page : corpus) {
    sim::Summary page_plts;
    for (int load = 0; load < web.loads_per_page; ++load) {
      auto session = std::make_unique<app::web::PageLoadSession>(
          sc.client(), sc.server(), page, web.browser, nullptr);
      session->start();
      const sim::Time deadline = sc.sim().now() + web.per_load_timeout;
      while (!session->finished() && sc.sim().now() < deadline) {
        sc.sim().run_until(
            std::min(deadline, sc.sim().now() + sim::milliseconds(20)));
      }
      double plt_ms;
      if (session->finished()) {
        plt_ms = sim::to_millis(session->plt());
      } else {
        plt_ms = sim::to_millis(web.per_load_timeout);
        ++result.timeouts;
      }
      result.plt_ms.add(plt_ms);
      page_plts.add(plt_ms);
      // Small think-time gap between loads lets queues drain, matching
      // sequential page loads in the paper's harness.
      sc.sim().run_for(sim::milliseconds(250));
    }
    result.per_page_mean_ms.add(page_plts.mean());
  }
  return result;
}

}  // namespace hvc::core
