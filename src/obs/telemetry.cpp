#include "obs/telemetry.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "obs/ring.hpp"

namespace hvc::obs {

void TelemetrySampler::enable(TelemetryConfig cfg) {
  cfg_ = std::move(cfg);
  if (cfg_.period <= 0) cfg_.period = sim::milliseconds(10);
  if (cfg_.max_samples_per_series == 0) cfg_.max_samples_per_series = 1;
  if (cfg_.max_series == 0) cfg_.max_series = 1;
  series_.clear();
  by_name_.clear();
  by_id_.clear();
  total_ = 0;
  overwritten_ = 0;
  dropped_series_ = 0;
  enabled_ = true;
  bind();
}

void TelemetrySampler::disable() {
  enabled_ = false;
  unbind();
}

bool TelemetrySampler::group_selected(std::string_view group) const {
  if (cfg_.groups.empty()) return true;
  for (const auto& g : cfg_.groups) {
    if (g == group) return true;
  }
  return false;
}

TelemetrySampler::ProbeId TelemetrySampler::add_probe(std::string_view group,
                                                      std::string name,
                                                      Probe probe) {
  if (!enabled_ || !group_selected(group)) return 0;
  std::size_t index;
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    // Reattach: the same series keeps accumulating (a transport
    // reconnected under the same flow id).
    index = it->second;
    series_[index].probe = std::move(probe);
  } else {
    if (series_.size() >= cfg_.max_series) {
      ++dropped_series_;
      return 0;
    }
    index = series_.size();
    Series s;
    s.name = name;
    s.probe = std::move(probe);
    series_.push_back(std::move(s));
    by_name_.emplace(std::move(name), index);
  }
  const ProbeId id = next_id_++;
  by_id_.emplace(id, index);
  return id;
}

void TelemetrySampler::remove_probe(ProbeId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  series_[it->second].probe = nullptr;
  by_id_.erase(it);
}

void TelemetrySampler::attach(sim::Simulator& sim) {
  if (!enabled_) return;
  sim.after(cfg_.period, [this, &sim] {
    if (!enabled_) return;
    sample(sim.now());
    attach(sim);  // reschedule; run_until bounds the run, not the queue
  });
}

void TelemetrySampler::sample(sim::Time now) {
  HVC_PROF_SCOPE(prof::Hook::kTelemetrySample);
  if (!enabled_) return;
  for (auto& s : series_) {
    if (!s.probe) continue;
    const double v = s.probe();
    if (s.ring.size() < cfg_.max_samples_per_series) {
      // Ring grows only until max_samples_per_series, then overwrites in place
      s.ring.push_back({now, v});
    } else {
      s.ring[s.head] = {now, v};
      ++overwritten_;
    }
    s.head = s.head + 1 == cfg_.max_samples_per_series ? 0 : s.head + 1;
    ++s.total;
    ++total_;
  }
}

std::vector<TelemetrySampler::Sample> TelemetrySampler::samples(
    std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return {};
  const Series& s = series_[it->second];
  std::vector<Sample> out;
  out.reserve(s.ring.size());
  for_each_retained(s.ring, s.head, s.total,
                    [&out](const Sample& x) { out.push_back(x); });
  return out;
}

std::vector<std::string> TelemetrySampler::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& s : series_) names.push_back(s.name);
  std::sort(names.begin(), names.end());
  return names;
}

void TelemetrySampler::write_jsonl(json::Writer& w) const {
  std::vector<std::size_t> order(series_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return series_[a].name < series_[b].name;
  });

  w.raw("{\"meta\":{\"period_ms\":").num(sim::to_millis(cfg_.period));
  w.raw(",\"series\":").num(series_.size());
  w.raw(",\"dropped_series\":").num(dropped_series_);
  w.raw(",\"overwritten\":").num(overwritten_).raw("}}\n");
  for (const std::size_t i : order) {
    const Series& s = series_[i];
    const std::string quoted = json::quote(s.name);
    for_each_retained(s.ring, s.head, s.total, [&](const Sample& x) {
      w.raw("{\"t_us\":").fixed3(static_cast<double>(x.at) / 1e3);
      w.raw(",\"series\":").raw(quoted).raw(",\"v\":").num(x.value);
      w.raw("}\n");
    });
  }
}

std::string TelemetrySampler::to_jsonl() const {
  json::Writer w;
  write_jsonl(w);
  return w.take();
}

void TelemetryProbes::add(std::string_view group, std::string name,
                          TelemetrySampler::Probe probe) {
  auto* ts = TelemetrySampler::active();
  if (ts == nullptr) return;
  if (owner_ != nullptr && owner_ != ts) clear();  // sampler changed
  const auto id = ts->add_probe(group, std::move(name), std::move(probe));
  if (id == 0) return;
  owner_ = ts;
  ids_.push_back(id);
}

void TelemetryProbes::clear() {
  if (owner_ != nullptr) {
    for (const auto id : ids_) owner_->remove_probe(id);
  }
  ids_.clear();
  owner_ = nullptr;
}

}  // namespace hvc::obs
