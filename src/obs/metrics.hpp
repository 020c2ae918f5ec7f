// MetricsRegistry: the single namespace for every counter, gauge and
// histogram the stack produces. Modules resolve their instruments by name
// once (at construction) and hold stable pointers. Per-packet hot paths
// keep accounting in their own stats structs and fold the totals into the
// counters on destruction, so steady-state cost is zero; low-rate
// producers (per-frame, per-message) update instruments live.
//
// Names are dot-separated, lowest-level component first, e.g.
//   shim.up.ch0.packets        link.eMBB-down.delivered_packets
//   transport.tcp.retransmissions   app.video.frame_latency_ms
//
// A process-global default registry (MetricsRegistry::global()) catches
// instruments made outside any ScopedMetricsRegistry (examples, bench
// mains, tests); they accumulate across every scenario a binary runs
// unless reset_values() is called. Engine runs (exp::run_scenario) each
// install a private registry, whose snapshot is the run's "obs" object.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/binding.hpp"
#include "sim/stats.hpp"

namespace hvc::obs {

class Counter {
 public:
  void inc(std::int64_t n = 1) { value_ += n; }
  [[nodiscard]] std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry : public ThreadBinding<MetricsRegistry, CurrentSlot> {
 public:
  MetricsRegistry() = default;

  /// The process-wide default registry.
  static MetricsRegistry& global();

  /// The registry instruments bind to: the innermost ScopedMetricsRegistry
  /// installed on the calling thread, or global() when none is. Modules
  /// resolve instruments through current() so concurrent simulations (the
  /// sweep engine, src/exp) can give every run a private registry without
  /// threading a pointer through every constructor.
  static MetricsRegistry& current();

  /// Find-or-create. Returned references are stable for the registry's
  /// lifetime; same name always yields the same instrument. A histogram
  /// is a retained-sample sim::Summary.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  sim::Summary& histogram(const std::string& name);

  /// Flattened snapshot: counters and gauges by name; histograms expand
  /// into <name>.count / .mean / .p50 / .p95 / .p99 / .max. Runs export
  /// it as their results row's "obs" object.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// Zero all values but keep every registration (pointers stay valid).
  void reset_values();

 private:
  // Ordered maps: snapshot() is then export-safe by construction.
  // Find-or-create runs once per module at construction time, never on
  // per-packet paths, so the O(log n) lookup is irrelevant.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<sim::Summary>> histograms_;
};

/// RAII: installs a registry as the calling thread's
/// MetricsRegistry::current() for the scope's lifetime. Nests; the
/// previous registry (or global()) is restored on destruction. Each sweep
/// run lives inside one of these, so runs never share instruments even
/// when executing concurrently.
using ScopedMetricsRegistry = ScopedBinding<MetricsRegistry, CurrentSlot>;

}  // namespace hvc::obs
