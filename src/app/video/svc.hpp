// SVC bitstream model (substitution for VP9-SVC encoding of MOT17 —
// DESIGN.md §2).
//
// The paper's video experiment (§3.3) encodes each frame into three
// spatial layers at target bitrates 400 / 4100 / 7500 kbps. We model the
// *bitstream*, not pixels: per-frame layer sizes follow the target
// bitrates with encoder variance and periodic keyframe spikes, and
// decoded quality is an analytic layers→SSIM map calibrated to the
// paper's reported numbers. The steering comparison only depends on which
// layers arrive by the decode deadline, which this preserves.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/units.hpp"

namespace hvc::app::video {

struct SvcConfig {
  /// Per-layer target bitrates; defaults are the paper's (cumulative
  /// 12 Mbps).
  std::vector<sim::RateBps> layer_bitrates = {
      sim::kbps(400), sim::kbps(4100), sim::kbps(7500)};
  int fps = 30;
  /// Every n-th frame is a keyframe: larger and dependency-resetting.
  int keyframe_interval = 30;
  std::uint64_t seed = 17;
};

struct EncodedFrame {
  int index = 0;
  bool keyframe = false;
  sim::Time capture_time = 0;
  std::vector<std::int64_t> layer_bytes;
};

/// Deterministic stream of encoded frames.
class SvcEncoder {
 public:
  explicit SvcEncoder(SvcConfig cfg);

  /// Encode the next frame, captured at `now`.
  EncodedFrame next_frame(sim::Time now);

  [[nodiscard]] sim::Duration frame_interval() const {
    return sim::seconds(1) / cfg_.fps;
  }
  [[nodiscard]] std::size_t layers() const {
    return cfg_.layer_bitrates.size();
  }

 private:
  SvcConfig cfg_;
  sim::Rng rng_;
  int next_index_ = 0;
};

/// Analytic layers-decoded → SSIM map. `layers_decoded` of 0 means the
/// frame could not be decoded at all (previous-frame dependency broken).
/// Values calibrated so eMBB-only vs priority-steering deltas match the
/// paper (≈0.068 mean SSIM cost for layer-0-only operation).
double ssim_for_layers(int layers_decoded);

/// Per-frame SSIM with mild content-dependent noise.
double ssim_for_layers(int layers_decoded, sim::Rng& rng);

/// Message-id encoding for (frame, layer) over a datagram flow.
constexpr std::uint64_t frame_layer_id(int frame, int layer) {
  return (static_cast<std::uint64_t>(frame) << 4) |
         static_cast<std::uint64_t>(layer + 1);
}
constexpr int id_frame(std::uint64_t id) { return static_cast<int>(id >> 4); }
constexpr int id_layer(std::uint64_t id) {
  return static_cast<int>(id & 0xF) - 1;
}

}  // namespace hvc::app::video
