#include "obs/metrics.hpp"

#include "obs/summary.hpp"

namespace hvc::obs {

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

sim::Summary& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<sim::Summary>();
  return *slot;
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    flatten_summary(*h, name, &out);
  }
  return out;
}

void MetricsRegistry::reset_values() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->clear();
}

}  // namespace hvc::obs
