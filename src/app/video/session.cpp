#include "app/video/session.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hvc::app::video {

using transport::DatagramSocket;

VideoSender::VideoSender(net::Node& node, net::FlowId flow, SvcConfig cfg)
    : socket(node, flow),
      sim_(node.simulator()),
      encoder_(std::move(cfg)) {}

sim::Time VideoSender::capture_time(int frame) const {
  const auto it = capture_times_.find(frame);
  return it == capture_times_.end() ? -1 : it->second;
}

void VideoSender::start(sim::Duration duration) {
  deadline_ = sim_.now() + duration;
  running_ = true;
  emit_frame();
}

void VideoSender::emit_frame() {
  if (!running_ || sim_.now() >= deadline_) return;
  const EncodedFrame f = encoder_.next_frame(sim_.now());
  capture_times_[f.index] = f.capture_time;
  for (std::size_t layer = 0; layer < f.layer_bytes.size(); ++layer) {
    socket.send_message_with_id(
        frame_layer_id(f.index, static_cast<int>(layer)),
        f.layer_bytes[layer], static_cast<std::uint8_t>(layer));
  }
  ++frames_sent_;
  sim_.after(encoder_.frame_interval(), [this] { emit_frame(); });
}

VideoReceiver::VideoReceiver(net::Node& node, net::FlowId flow,
                             const VideoSender& sender,
                             VideoReceiverConfig cfg)
    : sim_(node.simulator()),
      sender_(sender),
      cfg_(cfg),
      socket_(node, flow),
      rng_(cfg.seed) {
  socket_.set_on_message([this](const DatagramSocket::MessageEvent& ev) {
    on_message(ev);
  });
  spans_ = obs::SpanRecorder::active();
}

void VideoReceiver::on_message(const DatagramSocket::MessageEvent& ev) {
  const int frame = id_frame(ev.header.message_id);
  const int layer = id_layer(ev.header.message_id);
  if (layer < 0 || layer >= cfg_.layers) return;

  FrameState& fs = frames_[frame];
  if (fs.decoded) return;  // layers arriving after decode are discarded
  fs.layers[layer] = true;
  fs.bytes += ev.header.message_bytes;
  while (fs.layers.contains(fs.highest_contiguous + 1)) {
    ++fs.highest_contiguous;
  }

  if (layer == 0) {
    fs.layer0_seen = true;
    fs.layer0_at = sim_.now();
    // Paper's rule: decode after decode_wait, or as soon as layer 0 of the
    // next `lookahead_frames` frames has been seen.
    fs.decode_timer = std::make_unique<sim::Timer>(sim_, [this, frame] {
      decode(frame);
    });
    fs.decode_timer->arm(cfg_.decode_wait);

    // This layer-0 arrival may satisfy the lookahead of earlier frames.
    for (auto& [f, st] : frames_) {
      if (f >= frame || st.decoded || !st.layer0_seen) continue;
      int ahead = 0;
      for (int g = f + 1; g <= frame; ++g) {
        const auto it = frames_.find(g);
        if (it != frames_.end() && it->second.layer0_seen) ++ahead;
      }
      if (ahead >= cfg_.lookahead_frames) decode(f);
    }
  }
}

void VideoReceiver::decode(int frame) {
  FrameState& fs = frames_[frame];
  if (fs.decoded || !fs.layer0_seen) return;
  fs.decoded = true;
  if (fs.decode_timer) fs.decode_timer->cancel();

  const bool keyframe =
      cfg_.keyframe_interval > 0 && frame % cfg_.keyframe_interval == 0;

  // Layer 0 decodes on its own; layer k>0 additionally needs layer k of
  // the previous frame (unless this is a keyframe).
  int usable = 1;
  const auto prev = decoded_level_.find(frame - 1);
  const int prev_level =
      prev == decoded_level_.end() ? 0 : prev->second;
  for (int l = 1; l <= fs.highest_contiguous; ++l) {
    if (keyframe || prev_level >= l + 1) {
      usable = l + 1;
    } else {
      break;
    }
  }
  decoded_level_[frame] = usable;

  FrameRecord rec;
  rec.frame = frame;
  rec.keyframe = keyframe;
  rec.layers_decoded = usable;
  rec.ssim = ssim_for_layers(usable, rng_);
  const sim::Time captured = sender_.capture_time(frame);
  rec.latency = captured >= 0 ? sim_.now() - captured : 0;

  if (spans_ != nullptr && captured >= 0) {
    // One frame = one unit: queueing is the network transit until this
    // frame's layer 0 landed, decode-wait is the paper's hold-for-layers
    // rule after it. The two sum to the frame latency exactly.
    sbuild_.begin("video", "frame_ms",
                  static_cast<std::uint32_t>(std::max(frame, 0)), captured);
    sbuild_.begin_stage(captured, 0, "");
    sbuild_.leg_open(0, captured, fs.bytes, "mixed",
                     keyframe ? "video:keyframe" : "video:frame", 0);
    sbuild_.leg_charge(0, obs::SpanComp::kDecodeWait,
                       sim_.now() - fs.layer0_at);
    sbuild_.leg_close(0, sim_.now());
    sbuild_.end_stage(sim_.now());
    spans_->offer(sbuild_.finish(sim_.now(), rec.latency,
                                 sim::to_millis(rec.latency)));
  }

  ++stats_.frames_decoded;
  const int arrived = std::min(fs.highest_contiguous + 1, cfg_.layers);
  if (usable < arrived) ++stats_.frames_concealed;  // dependency-limited
  stats_.latency_ms.add(sim::to_millis(rec.latency));
  stats_.ssim.add(rec.ssim);
  stats_.decoded_at_layer[std::min(usable, 3)]++;

  auto& reg = obs::MetricsRegistry::current();
  reg.counter("app.video.frames_decoded").inc();
  if (usable < arrived) reg.counter("app.video.frames_concealed").inc();
  reg.histogram("app.video.frame_latency_ms").add(sim::to_millis(rec.latency));
  reg.histogram("app.video.ssim").add(rec.ssim);
  if (on_frame_) on_frame_(rec);

  // Garbage-collect old frame state.
  while (!frames_.empty() && frames_.begin()->first < frame - 300) {
    frames_.erase(frames_.begin());
  }
  while (!decoded_level_.empty() &&
         decoded_level_.begin()->first < frame - 300) {
    decoded_level_.erase(decoded_level_.begin());
  }
}

}  // namespace hvc::app::video
