// TCP BBR v1 [14]: model-based congestion control around two estimators —
// windowed-max delivery rate (BtlBw) and windowed-min RTT (RTprop) — with
// a pacing-gain state machine (STARTUP/DRAIN/PROBE_BW/PROBE_RTT).
//
// This implementation keeps the full estimator/state-machine structure
// because Figure 1's pathology lives there: packet steering feeds the
// RTprop filter 5 ms URLLC samples while the bulk of traffic rides a 50 ms
// channel, so BDP = BtlBw × RTprop collapses and the inflight cap strangles
// throughput (§3.1, Fig. 1a/1b).
#pragma once

#include "sim/stats.hpp"
#include "transport/cca.hpp"

namespace hvc::transport {

class Bbr final : public CcAlgorithm {
 public:
  // BBR v1's gains and windows; HvcAwareCc (hvc_cc.hpp) runs the same
  // values.
  static constexpr double kStartupGain = 2.885;  ///< 2/ln(2)
  static constexpr double kDrainGain = 1.0 / 2.885;
  static constexpr double kCwndGain = 2.0;
  /// PROBE_BW pacing-gain cycle.
  static constexpr double kCycleGains[8] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
  static constexpr int kBwWindowRounds = 10;  ///< BtlBw max-filter window
  static constexpr sim::Duration kMinRttWindow = sim::seconds(10);
  static constexpr std::int64_t kMinCwnd = 4 * kMss;
  static constexpr std::int64_t kInitialCwnd = 10 * kMss;

  Bbr();

  [[nodiscard]] std::string name() const override { return "bbr"; }
  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  [[nodiscard]] std::int64_t cwnd_bytes() const override;
  [[nodiscard]] double pacing_rate_bps() const override;

  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] double btl_bw_bps() const;
  [[nodiscard]] sim::Duration rt_prop() const;
  [[nodiscard]] std::int64_t bdp_bytes() const;

 private:
  void update_btl_bw(const AckEvent& ev);
  void update_rt_prop(const AckEvent& ev);
  void check_full_pipe(const AckEvent& ev);
  void advance_cycle(const AckEvent& ev);
  void maybe_enter_or_exit_probe_rtt(const AckEvent& ev);

  Mode mode_ = Mode::kStartup;

  // BtlBw: max filter keyed by the sender's round count.
  sim::WindowedMax btl_bw_filter_;

  // RTprop: windowed min over wall (sim) time.
  sim::WindowedMin rt_prop_filter_;
  sim::Time rt_prop_stamp_ = 0;  ///< when the current min was last matched

  // Full-pipe detection (STARTUP exit).
  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  // PROBE_BW gain cycling.
  int cycle_index_ = 0;
  sim::Time cycle_stamp_ = 0;

  // PROBE_RTT.
  sim::Time probe_rtt_done_ = -1;

  double pacing_gain_ = kStartupGain;
};

}  // namespace hvc::transport
