#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "obs/summary.hpp"

namespace hvc::obs {

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)) {
  if (edges_.empty()) edges_ = default_latency_edges();
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::add(double v) {
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), v);
  ++counts_[static_cast<std::size_t>(it - edges_.begin())];
  summary_.add(v);
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  summary_.clear();
}

std::vector<double> Histogram::default_latency_edges() {
  // 0.1 ms .. 100 s, three buckets per decade.
  std::vector<double> edges;
  for (double decade = 0.1; decade < 2e5; decade *= 10.0) {
    edges.push_back(decade);
    edges.push_back(decade * 2.0);
    edges.push_back(decade * 5.0);
  }
  return edges;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& MetricsRegistry::current() {
  MetricsRegistry* registry = bound();
  return registry != nullptr ? *registry : global();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_edges) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_edges));
  return *slot;
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    flatten_summary(h->summary(), name, &out);
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  // The registries are std::map, so plain iteration is already in the
  // sorted order the export format promises.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":" + json::number(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":" + json::number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    const auto* h = hist.get();
    if (!first) out += ',';
    first = false;
    out += json::quote(name) + ":{\"edges\":[";
    for (std::size_t i = 0; i < h->edges().size(); ++i) {
      if (i > 0) out += ',';
      out += json::number(h->edges()[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h->counts().size(); ++i) {
      if (i > 0) out += ',';
      out += json::number(h->counts()[i]);
    }
    out += "],\"count\":" + json::number(h->count());
    if (!h->summary().empty()) {
      out += ",\"mean\":" + json::number(h->summary().mean());
      out += ",\"p50\":" + json::number(h->summary().percentile(50));
      out += ",\"p95\":" + json::number(h->summary().percentile(95));
      out += ",\"p99\":" + json::number(h->summary().percentile(99));
      out += ",\"max\":" + json::number(h->summary().max());
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string snapshot_to_csv(const std::map<std::string, double>& snapshot) {
  std::string out = "metric,value\n";
  for (const auto& [name, value] : snapshot) {
    out += csv_escape(name);
    out += ',';
    out += json::number(value);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::to_csv() const { return snapshot_to_csv(snapshot()); }

void MetricsRegistry::reset_values() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace hvc::obs
