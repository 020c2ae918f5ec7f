#include "app/video/svc.hpp"

#include <algorithm>

namespace hvc::app::video {

namespace {

/// Multiplicative size jitter per layer per frame (encoder variance).
constexpr double kSizeJitter = 0.2;
constexpr double kKeyframeScale = 2.5;

}  // namespace

SvcEncoder::SvcEncoder(SvcConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

EncodedFrame SvcEncoder::next_frame(sim::Time now) {
  EncodedFrame f;
  f.index = next_index_++;
  f.keyframe = cfg_.keyframe_interval > 0 &&
               f.index % cfg_.keyframe_interval == 0;
  f.capture_time = now;
  f.layer_bytes.reserve(cfg_.layer_bitrates.size());
  for (const auto rate : cfg_.layer_bitrates) {
    const double mean_bytes =
        static_cast<double>(rate) / 8.0 / cfg_.fps;
    double scale = 1.0 + rng_.normal(0.0, kSizeJitter);
    if (f.keyframe) scale *= kKeyframeScale;
    scale = std::max(scale, 0.25);
    f.layer_bytes.push_back(
        std::max<std::int64_t>(static_cast<std::int64_t>(mean_bytes * scale),
                               200));
  }
  return f;
}

double ssim_for_layers(int layers_decoded) {
  switch (layers_decoded) {
    case 0: return 0.40;   // undecodable: frozen/concealed frame
    case 1: return 0.880;  // 400 kbps base layer
    case 2: return 0.944;  // + 4.1 Mbps enhancement
    default: return 0.972; // full 12 Mbps
  }
}

double ssim_for_layers(int layers_decoded, sim::Rng& rng) {
  const double base = ssim_for_layers(layers_decoded);
  return std::clamp(base + rng.normal(0.0, 0.006), 0.0, 1.0);
}

}  // namespace hvc::app::video
