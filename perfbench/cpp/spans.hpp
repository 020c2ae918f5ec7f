// Layer spans for the traced benchmark pass.
//
// Spans are recorded from the benchmark's own code, around calls into the
// simulator's src/ modules. A span's self time is its duration minus the
// durations of the spans it directly encloses; the root span's self time is
// the pass's unattributed remainder. Self times telescope, so per-layer self
// time plus the remainder equals the root span's duration exactly, in
// integer nanoseconds (the exact-sum rule the simulator's own causal spans
// follow, DESIGN.md §5.10).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Host monotonic time. The benchmark times the simulator from outside,
/// so it reads the host clock directly rather than through obs::prof.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Who owns a span. One entry per src/ module the benchmark wraps, plus
/// the root (kBench, whose self time is the unattributed remainder).
enum class Layer : std::uint8_t {
  kBench,      ///< root: the whole traced pass
  kExpParse,   ///< exp: spec parse + expand
  kExpExport,  ///< exp: to_jsonl + artifact writes
  kTrace,      ///< exp::build_scenario_config (5G trace generation)
  kChannel,    ///< core::Scenario constructor (channels, links, shims)
  kSim,        ///< packet-level simulate calls (core::run_* bodies)
  kSteer,      ///< SteeringPolicy::steer via the forwarding decorator
  kTransport,  ///< CcAlgorithm calls via the forwarding decorator
  kPop,        ///< pop::run_city, the city's event loop included
};
inline constexpr std::size_t kLayerCount = 9;

class Tracer {
 public:
  Tracer() { stack_.reserve(16); }

  void begin(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }

  void end() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start;
    const auto i = static_cast<std::size_t>(f.layer);
    self_ns_[i] += dur - f.child_ns;
    ++calls_[i];
    if (stack_.empty()) {
      total_ns_ += dur;
    } else {
      stack_.back().child_ns += dur;
    }
  }

  [[nodiscard]] std::int64_t self_ns(Layer l) const {
    return self_ns_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t calls(Layer l) const {
    return calls_[static_cast<std::size_t>(l)];
  }
  /// Summed duration of the root spans.
  [[nodiscard]] std::int64_t total_ns() const { return total_ns_; }
  /// Sum of every layer's self time, the root's included. Equals
  /// total_ns() whenever no span is open.
  [[nodiscard]] std::int64_t self_sum_ns() const {
    std::int64_t s = 0;
    for (const std::int64_t v : self_ns_) s += v;
    return s;
  }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::int64_t total_ns_ = 0;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
