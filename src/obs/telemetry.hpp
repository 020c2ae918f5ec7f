// Time-series telemetry: periodic sampling of component state (queue
// depths, rate estimates, cwnd/srtt, steering decision counts) into
// bounded per-series ring buffers — the dynamics evidence behind the
// paper's figures that end-of-run aggregates (metrics.hpp) cannot show.
//
// The sampler follows the PacketTracer installation pattern exactly:
//   1. Zero cost when off. Components register probes only when
//      TelemetrySampler::active() is non-null on their thread; with no
//      sampler installed, construction does nothing and the simulation
//      hot path is untouched (sampling happens on a sim-time tick, never
//      per packet).
//   2. Bounded memory. Each series is a fixed-capacity ring of
//      (time, value) samples; the series count itself is capped, and
//      both kinds of truncation are counted and reported in exports —
//      never silent.
//   3. Deterministic output. Samples carry simulated time only; series
//      export in sorted-name order. Two runs of the same spec produce
//      byte-identical JSONL regardless of sweep parallelism.
//
// Probes are pull-based: a component registers a name and a callback
// returning the current value; the sampler calls every live probe each
// period. Components hold a TelemetryProbes bundle so registrations die
// with their owner (the series data stays exportable after the probe is
// gone).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/binding.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace hvc::obs {

namespace json {
class Writer;
}  // namespace json

/// The probe groups components register under; a scenario's
/// "telemetry.series" names a subset of them.
inline constexpr std::string_view kProbeGroups[] = {
    "channel", "link", "steer", "transport", "fault", "pop"};

struct TelemetryConfig {
  /// Sim-time sampling period.
  sim::Duration period = sim::milliseconds(10);
  /// Ring capacity per series; the oldest samples are overwritten.
  std::size_t max_samples_per_series = 1u << 14;
  /// Cap on distinct series (the web workload creates a transport per
  /// page load — without a cap a long run would register unboundedly).
  std::size_t max_series = 512;
  /// Probe groups to sample (entries of kProbeGroups); empty = all.
  std::vector<std::string> groups;
};

class TelemetrySampler : public ThreadBinding<TelemetrySampler> {
 public:
  using Probe = std::function<double()>;
  /// Probe registration handle; 0 = not registered (group filtered out,
  /// series cap hit, or no sampler active).
  using ProbeId = std::uint64_t;

  struct Sample {
    sim::Time at = 0;
    double value = 0.0;
  };

  TelemetrySampler() = default;

  /// Hot-path accessor: nullptr unless sampling is enabled *on this
  /// thread* (same thread-local discipline as PacketTracer::active(), so
  /// concurrent sweep runs stay isolated).
  [[nodiscard]] static TelemetrySampler* active() { return bound(); }

  /// Start sampling with `cfg`; drops any previously recorded data and
  /// installs this sampler as the calling thread's active().
  void enable(TelemetryConfig cfg = {});
  /// Stop sampling; recorded series stay exportable.
  void disable();

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] sim::Duration period() const { return cfg_.period; }

  /// Register a probe. Returns 0 (and records nothing) when the group is
  /// filtered out or the series cap is reached; re-registering an
  /// existing series name reattaches the probe and keeps appending to
  /// the same ring (reconnecting transports).
  ProbeId add_probe(std::string_view group, std::string name, Probe probe);
  /// Detach a probe; its series stops receiving samples but is retained.
  void remove_probe(ProbeId id);

  /// Schedule the periodic sampling tick on `sim` (self-rescheduling, so
  /// it samples until the run's deadline; the run_* helpers all drive
  /// the simulator with run_until). Called by core::Scenario once the
  /// topology exists. No-op when disabled.
  void attach(sim::Simulator& sim);

  /// Sample every live probe now (the tick body; tests call it directly).
  void sample(sim::Time now);

  // ---- Introspection / export ----

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  /// Samples currently retained for `name` (oldest first).
  [[nodiscard]] std::vector<Sample> samples(std::string_view name) const;
  /// All series names, sorted (the export order).
  [[nodiscard]] std::vector<std::string> series_names() const;
  /// Samples ever recorded across all series, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// Samples lost to ring wraparound.
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  /// Probe registrations refused by the series cap.
  [[nodiscard]] std::uint64_t dropped_series() const {
    return dropped_series_;
  }

  /// One meta object line, then one object per sample, series in sorted
  /// order, each read from its ring in place:
  ///   {"meta":{"period_ms":10,"series":8,"dropped_series":0,...}}
  ///   {"t_us":10000.000,"series":"link.eMBB-down.queued_bytes","v":2960}
  /// exp::Report::to_chrome_trace turns these lines into counter tracks.
  void write_jsonl(json::Writer& w) const;
  /// write_jsonl() into a string.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  struct Series {
    std::string name;
    Probe probe;  ///< null once the owning component died
    std::vector<Sample> ring;
    std::size_t head = 0;     ///< next write slot
    std::uint64_t total = 0;  ///< samples ever recorded into this series
  };

  [[nodiscard]] bool group_selected(std::string_view group) const;

  TelemetryConfig cfg_;
  bool enabled_ = false;
  std::vector<Series> series_;  ///< registration order (sampling order)
  // Lookup indexes into series_, never iterated: sampling walks series_
  // in registration order and the export sorts by series name.
  // hvc-lint: allow(unordered-container): lookup-only index, see above.
  std::unordered_map<std::string, std::size_t> by_name_;
  // hvc-lint: allow(unordered-container): lookup-only index, see above.
  std::unordered_map<ProbeId, std::size_t> by_id_;
  ProbeId next_id_ = 1;
  std::uint64_t total_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t dropped_series_ = 0;
};

/// RAII: installs a sampler as the calling thread's active() for the
/// scope's lifetime — if it is enabled. Installing a disabled sampler
/// masks any outer active sampler, which is what gives every sweep run a
/// clean slate (the same contract as ScopedPacketTracer).
using ScopedTelemetrySampler = ScopedBinding<TelemetrySampler>;

/// A component's bundle of probe registrations: add() is a no-op without
/// an active sampler, and destruction detaches everything that was
/// registered. Members hold one by value next to the state their probes
/// read, so a probe can never outlive its data.
class TelemetryProbes {
 public:
  TelemetryProbes() = default;
  ~TelemetryProbes() { clear(); }
  TelemetryProbes(const TelemetryProbes&) = delete;
  TelemetryProbes& operator=(const TelemetryProbes&) = delete;

  void add(std::string_view group, std::string name,
           TelemetrySampler::Probe probe);

  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  void clear();

  TelemetrySampler* owner_ = nullptr;
  std::vector<TelemetrySampler::ProbeId> ids_;
};

}  // namespace hvc::obs
