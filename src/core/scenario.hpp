// Public façade: declarative scenario construction and one-call
// experiment runners for the paper's workloads.
//
// A Scenario is a fresh simulator + two-host topology over a set of
// channel profiles with named steering policies per direction. The
// run_* helpers execute one experiment and return metric bundles; every
// figure/table benchmark and example is built from these.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/video/session.hpp"
#include "app/web/browser.hpp"
#include "app/web/page.hpp"
#include "channel/profile.hpp"
#include "fault/injector.hpp"
#include "net/node.hpp"
#include "sim/names.hpp"
#include "sim/stats.hpp"
#include "steer/steering_policy.hpp"
#include "transport/tcp.hpp"

namespace hvc::core {

using PolicyMaker = std::unique_ptr<steer::SteeringPolicy> (*)();

/// Every steering policy a name selects, with its constructor; a
/// scenario's policy names are exactly these.
extern const std::span<const sim::Named<PolicyMaker>> kPolicies;

/// Instantiate the steering policy kPolicies calls `name`. Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<steer::SteeringPolicy> make_policy(const std::string& name);

using PolicyFactory = std::function<std::unique_ptr<steer::SteeringPolicy>()>;

struct ScenarioConfig {
  std::vector<channel::ChannelProfile> channels;
  std::string up_policy = "dchannel";
  std::string down_policy = "dchannel";
  /// When set, override the named policies above.
  PolicyFactory up_factory;
  PolicyFactory down_factory;
  /// DChannel-style receiver resequencing hold; 0 disables.
  sim::Duration resequence_hold = 0;

  /// Disruption episodes injected into the channel set (src/fault);
  /// empty = well-behaved channels.
  fault::FaultPlan faults;

  /// The paper's standard two-channel setup (Fig. 1): constant eMBB
  /// (50 ms / 60 Mbps) + URLLC (5 ms / 2 Mbps).
  static ScenarioConfig fig1(const std::string& policy = "dchannel");

  /// Trace-driven eMBB (named 5G profile) + URLLC (Fig. 2 / Table 1).
  static ScenarioConfig traced(trace::FiveGProfile profile,
                               const std::string& policy,
                               sim::Duration duration, std::uint64_t seed);
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] net::TwoHostNetwork& network() { return *net_; }
  [[nodiscard]] net::Node& client() { return net_->client(); }
  [[nodiscard]] net::Node& server() { return net_->server(); }
  /// Non-null when the config carried a fault plan.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }

 private:
  sim::Simulator sim_;
  std::unique_ptr<net::TwoHostNetwork> net_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

// ---- One-call experiments ----

struct BulkResult {
  double goodput_bps = 0.0;
  sim::TimeSeries rtt_ms;            ///< per-ACK RTT (Fig. 1b)
  sim::TimeSeries goodput_mbps;      ///< 1 s buckets
  sim::TimeSeries acked_bytes;       ///< (t, cumulative acked bytes)
  std::int64_t retransmissions = 0;
  std::int64_t rto_count = 0;
  std::vector<std::int64_t> data_packets_per_channel;
  /// Fault-plan cost, when the scenario injected one (see src/fault):
  /// bytes committed into blacked-out links and droptail drops there.
  std::int64_t fault_blackout_committed_bytes = 0;
  std::int64_t fault_blackout_dropped_packets = 0;
};

/// Fig. 1: one bulk download under the scenario's steering, measured over
/// `duration` (excluding nothing — the paper averages the full run).
BulkResult run_bulk(const ScenarioConfig& cfg, const std::string& cca,
                    sim::Duration duration);

struct VideoResult {
  app::video::VideoStats stats;
  std::vector<double> latency_cdf_ms;  ///< sorted per-frame latencies
  std::vector<double> ssim_cdf;
};

/// Fig. 2: real-time SVC video for `duration` under the scenario's
/// downlink steering (sender at the server).
VideoResult run_video(const ScenarioConfig& cfg,
                      const app::video::SvcConfig& svc,
                      const app::video::VideoReceiverConfig& rx,
                      sim::Duration duration);

struct WebRunConfig {
  int loads_per_page = 5;
  bool background_flows = true;
  std::int64_t bg_upload_bytes = 5 * 1000;
  std::int64_t bg_download_bytes = 10 * 1000;
  /// flow_priority stamped on background traffic (only honoured by
  /// priority-aware policies).
  std::uint8_t bg_flow_priority = 1;
  app::web::BrowserConfig browser;
  sim::Duration per_load_timeout = sim::seconds(60);
};

struct WebResult {
  sim::Summary plt_ms;          ///< one sample per (page, load)
  sim::Summary per_page_mean_ms;  ///< mean over loads, one per page
  int timeouts = 0;
};

/// Table 1: load each corpus page `loads_per_page` times with background
/// JSON flows running, and collect PLTs. Each load uses fresh
/// connections (cold caches, as in the paper).
WebResult run_web(const ScenarioConfig& cfg,
                  const std::vector<app::web::WebPage>& corpus,
                  const WebRunConfig& web);

}  // namespace hvc::core
