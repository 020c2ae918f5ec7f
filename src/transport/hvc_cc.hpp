// HVC-aware congestion control — the §3.2 proposal made concrete.
//
// Structurally a BBR-style model-based controller, but *aware that
// multiple heterogeneous channels exist*: every RTT sample is attributed
// to the channel the acked packet actually traversed (the receiver echoes
// the channel index), and the controller keeps a windowed-min RTT filter
// per channel. The BDP is computed against the *bandwidth-weighted* RTT
// across channels, so a 5 ms URLLC sample carrying 3% of the bytes cannot
// collapse the model the way it collapses vanilla BBR's RTprop
// (ablation C / bench/ablation_hvc_cc).
#pragma once

#include <array>

#include "sim/stats.hpp"
#include "transport/bbr.hpp"
#include "transport/cca.hpp"

namespace hvc::transport {

/// Runs Bbr's gains, bandwidth window, cwnd bounds and RTT window.
class HvcAwareCc final : public CcAlgorithm {
 public:
  static constexpr std::size_t kMaxChannels = 8;

  HvcAwareCc();

  [[nodiscard]] std::string name() const override { return "hvc"; }
  void on_ack(const AckEvent& ev) override;
  void on_loss(const LossEvent& ev) override;
  [[nodiscard]] std::int64_t cwnd_bytes() const override;
  [[nodiscard]] double pacing_rate_bps() const override;

  /// Bandwidth-weighted cross-channel propagation delay estimate.
  [[nodiscard]] sim::Duration weighted_rtt() const;
  [[nodiscard]] double btl_bw_bps() const;

  enum class Mode { kStartup, kDrain, kProbeBw };
  [[nodiscard]] Mode mode() const { return mode_; }

 private:
  struct PerChannel {
    sim::WindowedMin rtt_min{Bbr::kMinRttWindow};
    std::int64_t epoch_bytes = 0;
    double rate_bps = 0.0;  ///< EWMA of per-epoch throughput share
    bool seen = false;
  };

  void roll_epoch(sim::Time now);

  Mode mode_ = Mode::kStartup;
  std::array<PerChannel, kMaxChannels> ch_{};

  sim::WindowedMax btl_bw_filter_;  ///< keyed by the sender's round count

  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  int cycle_index_ = 0;
  sim::Time cycle_stamp_ = 0;
  double pacing_gain_ = Bbr::kStartupGain;

  sim::Time epoch_start_ = 0;
  sim::Duration srtt_ = sim::milliseconds(100);
};

}  // namespace hvc::transport
