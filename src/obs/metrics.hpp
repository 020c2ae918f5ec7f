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
// A process-global default registry (MetricsRegistry::global()) is the
// collection point for bench manifests; instruments accumulate across
// every scenario a binary runs unless reset_values() is called. Local
// registries can be constructed for isolated measurement (tests do).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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

/// Fixed-bucket histogram: bucket i counts samples in [edges[i-1],
/// edges[i]), with an implicit overflow bucket for v >= edges.back().
/// A sim::Summary rides along so exact moments/percentiles stay available
/// (samples are retained there, as everywhere else in the repo).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_edges);

  void add(double v);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  /// counts().size() == edges().size() + 1 (last bucket = overflow).
  [[nodiscard]] const std::vector<std::int64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(summary_.count());
  }
  [[nodiscard]] const sim::Summary& summary() const { return summary_; }
  void reset();

  /// A log-spaced default for latency-in-ms style metrics (0.1 .. 10^5).
  static std::vector<double> default_latency_edges();

 private:
  std::vector<double> edges_;
  std::vector<std::int64_t> counts_;
  sim::Summary summary_;
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
  /// lifetime; same name always yields the same instrument.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_edges = {});

  /// Flattened snapshot: counters and gauges by name; histograms expand
  /// into <name>.count / .mean / .p50 / .p95 / .p99 / .max.
  [[nodiscard]] std::map<std::string, double> snapshot() const;

  /// Full JSON export (counters, gauges, histograms with buckets).
  [[nodiscard]] std::string to_json() const;

  /// CSV export of the flattened snapshot: a `metric,value` header then
  /// one sorted row per metric. Same formatter the sweep engine uses for
  /// aggregated results (see snapshot_to_csv), so single-run and sweep
  /// outputs stay diff-able.
  [[nodiscard]] std::string to_csv() const;

  /// Zero all values but keep every registration (pointers stay valid).
  void reset_values();

  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>&
  counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>&
  gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>&
  histograms() const {
    return histograms_;
  }

 private:
  // Ordered maps: every iteration (snapshot, to_json, to_csv) is then
  // export-safe by construction. Find-or-create runs once per module at
  // construction time, never on per-packet paths, so the O(log n) lookup
  // is irrelevant.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII: installs a registry as the calling thread's
/// MetricsRegistry::current() for the scope's lifetime. Nests; the
/// previous registry (or global()) is restored on destruction. Each sweep
/// run lives inside one of these, so runs never share instruments even
/// when executing concurrently.
using ScopedMetricsRegistry = ScopedBinding<MetricsRegistry, CurrentSlot>;

/// CSV cell escaping per RFC 4180: fields containing commas, quotes or
/// newlines are quoted, embedded quotes doubled.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// The shared metric-snapshot CSV formatter ("metric,value" header, rows
/// sorted by name, shortest round-trippable numbers).
[[nodiscard]] std::string snapshot_to_csv(
    const std::map<std::string, double>& snapshot);

}  // namespace hvc::obs
