#include "obs/span.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/json.hpp"
#include "sim/seed.hpp"

namespace hvc::obs {

const char* span_comp_name(SpanComp c) {
  switch (c) {
    case SpanComp::kQueueing: return "queueing";
    case SpanComp::kSerialization: return "serialization";
    case SpanComp::kPropagation: return "propagation";
    case SpanComp::kRetransmission: return "retransmission";
    case SpanComp::kReorderWait: return "reorder-wait";
    case SpanComp::kSteeringWait: return "steering-wait";
    case SpanComp::kDecodeWait: return "decode-wait";
  }
  return "?";
}

// ---- SpanUnitBuilder --------------------------------------------------

void SpanUnitBuilder::begin(const char* cohort, const char* metric,
                            std::uint32_t user, sim::Time t0) {
  unit_ = SpanUnit{};
  unit_.cohort = cohort;
  unit_.metric = metric;
  unit_.user = user;
  unit_.seq = seq_++;
  unit_.t0 = t0;
  clear_legs();
  active_ = true;
  in_stage_ = false;
}

void SpanUnitBuilder::clear_legs() {
  open_.clear();
  charges_.clear();
  bucket_.fill(kNone);
  crit_ = kNone;
  stage_legs_ = 0;
}

std::int8_t* SpanUnitBuilder::find_open(std::uint32_t slot) {
  std::int8_t* link = &bucket_[slot % kMaxOpenLegs];
  while (*link != kNone) {
    assert(static_cast<std::size_t>(*link) < open_.size());
    OpenLeg& ol = open_[static_cast<std::size_t>(*link)];
    if (ol.slot == slot) return link;
    link = &ol.next;
  }
  return nullptr;
}

void SpanUnitBuilder::flush_stage() {
  if (!in_stage_) return;
  SpanStage& st = unit_.stages.back();
  st.legs = stage_legs_;
  if (crit_ == kNone) return;
  const OpenLeg& ol = open_[static_cast<std::size_t>(crit_)];
  SpanLeg& leg = st.crit;
  leg.t0 = ol.t0;
  leg.t1 = ol.t1;
  leg.bytes = ol.bytes;
  leg.slot = ol.slot;
  leg.channel = ol.channel;
  leg.reason = ol.reason;
  leg.parts = {};
  if (ol.charges != kNone) {
    leg.parts = charges_[static_cast<std::size_t>(ol.charges)];
  }
  // Exact integer decomposition: measured charges first (clamped to
  // the observed duration), serialization next, queueing = remainder.
  std::int64_t cap = std::max<std::int64_t>(0, leg.t1 - leg.t0);
  static constexpr SpanComp kCharged[] = {
      SpanComp::kPropagation,     SpanComp::kRetransmission,
      SpanComp::kReorderWait,     SpanComp::kSteeringWait,
      SpanComp::kDecodeWait,
  };
  for (const SpanComp c : kCharged) {
    auto& p = leg.parts[static_cast<std::size_t>(c)];
    p = std::min(p, cap);
    cap -= p;
  }
  const std::int64_t ser = std::clamp<std::int64_t>(ol.ser_hint_ns, 0, cap);
  leg.parts[static_cast<std::size_t>(SpanComp::kSerialization)] = ser;
  leg.parts[static_cast<std::size_t>(SpanComp::kQueueing)] = cap - ser;
}

void SpanUnitBuilder::begin_stage(sim::Time t0, std::int64_t prop_ns,
                                  const char* prop_channel) {
  if (!active_) return;
  flush_stage();
  if (unit_.stages.size() >= kMaxStages) {
    ++truncated_;
    in_stage_ = false;
    return;
  }
  SpanStage st;
  st.t0 = t0;
  st.t1 = t0;
  st.prop_ns = prop_ns;
  st.prop_channel = prop_channel;
  unit_.stages.push_back(st);
  clear_legs();
  in_stage_ = true;
}

void SpanUnitBuilder::leg_open(std::uint32_t slot, sim::Time t0,
                               std::int64_t bytes, const char* channel,
                               const char* reason,
                               std::int64_t ser_hint_ns) {
  if (!active_ || !in_stage_) return;
  ++stage_legs_;
  if (open_.size() >= kMaxOpenLegs) {
    ++truncated_;
    return;
  }
  // Append to the slot's bucket list, which stays in open order.
  std::int8_t* link = &bucket_[slot % kMaxOpenLegs];
  while (*link != kNone) link = &open_[static_cast<std::size_t>(*link)].next;
  *link = static_cast<std::int8_t>(open_.size());
  open_.push_back({t0, t0, bytes, ser_hint_ns, channel, reason, slot, kNone,
                   kNone});
}

void SpanUnitBuilder::leg_charge(std::uint32_t slot, SpanComp comp,
                                 std::int64_t ns) {
  if (!active_ || !in_stage_ || ns <= 0) return;
  const std::int8_t* link = find_open(slot);
  if (link == nullptr) return;
  OpenLeg& ol = open_[static_cast<std::size_t>(*link)];
  if (ol.charges == kNone) {
    ol.charges = static_cast<std::int8_t>(charges_.size());
    charges_.emplace_back();
  }
  charges_[static_cast<std::size_t>(ol.charges)]
          [static_cast<std::size_t>(comp)] += ns;
}

void SpanUnitBuilder::leg_close(std::uint32_t slot, sim::Time t1) {
  if (!active_ || !in_stage_) return;
  std::int8_t* link = find_open(slot);
  if (link == nullptr) {
    ++truncated_;  // closed a leg the bounded recorder never held
    return;
  }
  // The last leg to close is the stage's critical one.
  crit_ = *link;
  OpenLeg& ol = open_[static_cast<std::size_t>(*link)];
  *link = ol.next;  // unlink: the leg is closed
  ol.t1 = t1;
}

void SpanUnitBuilder::end_stage(sim::Time t1) {
  if (!active_ || !in_stage_) return;
  flush_stage();
  unit_.stages.back().t1 = t1;
  in_stage_ = false;
  clear_legs();
}

SpanUnit SpanUnitBuilder::finish(sim::Time t1, std::int64_t total_ns,
                                 double value) {
  flush_stage();
  unit_.t1 = t1;
  unit_.total_ns = total_ns;
  unit_.value = value;
  // Exactness backstop: any slack between the measured total and the
  // accumulated components lands in the last leg-bearing stage's
  // queueing. The city/web/video instrumentation produces zero slack
  // (tested); this only matters when stages were truncated.
  std::int64_t parts = 0;
  SpanStage* last_crit = nullptr;
  for (SpanStage& st : unit_.stages) {
    parts += st.prop_ns;
    if (st.legs > 0) {
      last_crit = &st;
      for (const std::int64_t p : st.crit.parts) parts += p;
    }
  }
  const std::int64_t slack = total_ns - parts;
  if (slack != 0 && last_crit != nullptr) {
    auto& q = last_crit->crit
                  .parts[static_cast<std::size_t>(SpanComp::kQueueing)];
    auto& s = last_crit->crit
                  .parts[static_cast<std::size_t>(SpanComp::kSerialization)];
    q += slack;
    if (q < 0) {  // negative slack bigger than queueing: absorb into ser
      s = std::max<std::int64_t>(0, s + q);
      q = 0;
    }
  }
  active_ = false;
  in_stage_ = false;
  clear_legs();
  return std::move(unit_);
}

void SpanUnitBuilder::abort() {
  active_ = false;
  in_stage_ = false;
  clear_legs();
  unit_ = SpanUnit{};
}

std::size_t SpanUnitBuilder::memory_bytes() const {
  return sizeof(*this) + open_.capacity() * sizeof(OpenLeg) +
         charges_.capacity() * sizeof(charges_[0]) +
         unit_.stages.capacity() * sizeof(SpanStage);
}

// ---- SpanRecorder -----------------------------------------------------

void SpanRecorder::enable(SpanConfig cfg) {
  cfg_ = cfg;
  aliases_.clear();
  keys_.clear();
  offered_ = 0;
  aborted_ = 0;
  truncated_ = 0;
  enabled_ = true;
  bind();
}

void SpanRecorder::disable() {
  enabled_ = false;
  unbind();
}

SpanRecorder::Key& SpanRecorder::resolve(const SpanUnit& unit) {
  for (const Alias& a : aliases_) {
    if (a.cohort == unit.cohort && a.metric == unit.metric) return *a.key;
  }
  // First offer through this address pair: find or make the key by name
  // (equal names at different addresses share one key).
  std::string name = std::string(unit.cohort) + "." + unit.metric;
  const auto [it, fresh] = keys_.try_emplace(
      std::move(name), Key{{}, stats::QuantileCursor(cfg_.tail_quantile)});
  if (fresh) {
    it->second.ms.key_seed = sim::seed_mix(cfg_.seed, sim::fnv1a64(it->first));
  }
  aliases_.push_back({unit.cohort, unit.metric, &it->second});
  return it->second;
}

void SpanRecorder::offer(SpanUnit&& unit) {
  if (!enabled_) return;
  ++offered_;
  Key& key = resolve(unit);
  MetricState& ms = key.ms;
  const std::uint64_t n = ms.offered++;
  const double v = unit.value;

  // Tail rule: at/above the live quantile once warmed up. The histogram
  // is fed *after* the decision, so the threshold is a pure function of
  // the prior offers — deterministic for any -j / shard split.
  bool kept = false;
  if (cfg_.tail_budget > 0 && !(v < key.tail_at.value()) &&
      ms.hist.count() >= static_cast<std::uint64_t>(cfg_.warmup)) {
    if (ms.tail.size() < static_cast<std::size_t>(cfg_.tail_budget)) {
      ms.tail.push_back({std::move(unit), n, "tail"});
      kept = true;
    } else {
      // Full: keep the top-K by value — evict the smallest (value, n).
      auto worst = std::min_element(
          ms.tail.begin(), ms.tail.end(), [](const Kept& a, const Kept& b) {
            if (a.unit.value < b.unit.value) return true;
            if (b.unit.value < a.unit.value) return false;
            return a.n < b.n;
          });
      if (worst->unit.value < v) {
        ++ms.evicted;
        *worst = {std::move(unit), n, "tail"};
        kept = true;
      }
    }
  }

  // Counter-hash reservoir of "normal" exemplars: a fixed residue of the
  // splitmix64 stream keyed by (config seed, metric key) — no RNG state,
  // so retention cannot be perturbed by other components' draws.
  if (!kept && cfg_.reservoir_budget > 0 && cfg_.reservoir_period > 0 &&
      sim::splitmix64(ms.key_seed + n) %
              static_cast<std::uint64_t>(cfg_.reservoir_period) ==
          0) {
    if (ms.reservoir.size() >=
        static_cast<std::size_t>(cfg_.reservoir_budget)) {
      ms.reservoir.erase(ms.reservoir.begin());  // oldest out
      ++ms.evicted;
    }
    ms.reservoir.push_back({std::move(unit), n, "reservoir"});
  }

  key.tail_at.add(ms.hist, v);
}

std::uint64_t SpanRecorder::retained() const {
  std::uint64_t n = 0;
  for (const auto& [name, key] : keys_) {
    n += key.ms.tail.size() + key.ms.reservoir.size();
  }
  return n;
}

namespace {

std::size_t unit_bytes(const SpanUnit& u) {
  return sizeof(SpanUnit) + u.stages.capacity() * sizeof(SpanStage);
}

}  // namespace

std::size_t SpanRecorder::span_bytes() const {
  // The recorder object without its lookup cache, then per key the name,
  // the state and the bins (not the cursor), then every retained unit.
  std::size_t total = sizeof(*this) - sizeof(aliases_);
  for (const auto& [name, key] : keys_) {
    total += name.size() + sizeof(MetricState) +
             stats::LogHistogram::memory_bytes();
    for (const auto& k : key.ms.tail) {
      total += sizeof(Kept) + unit_bytes(k.unit);
    }
    for (const auto& k : key.ms.reservoir) {
      total += sizeof(Kept) + unit_bytes(k.unit);
    }
  }
  return total;
}

namespace {

void write_leg(json::Writer& w, const SpanLeg& leg) {
  w.raw("{\"slot\":").num(leg.slot);
  w.raw(",\"ch\":").str(leg.channel);
  w.raw(",\"reason\":").str(leg.reason);
  w.raw(",\"bytes\":").num(leg.bytes);
  w.raw(",\"t0_ns\":").num(leg.t0);
  w.raw(",\"t1_ns\":").num(leg.t1);
  w.raw(",\"parts\":{");
  bool first = true;
  for (int c = 0; c < kSpanCompCount; ++c) {
    const std::int64_t ns = leg.parts[static_cast<std::size_t>(c)];
    if (ns == 0) continue;
    if (!first) w.put(',');
    first = false;
    w.str(span_comp_name(static_cast<SpanComp>(c))).put(':').num(ns);
  }
  w.raw("}}");
}

}  // namespace

void SpanRecorder::write_jsonl(json::Writer& w) const {
  std::uint64_t evicted = 0;
  std::uint64_t tail = 0;
  std::uint64_t reservoir = 0;
  for (const auto& [name, key] : keys_) {
    evicted += key.ms.evicted;
    tail += key.ms.tail.size();
    reservoir += key.ms.reservoir.size();
  }
  w.raw("{\"meta\":{\"aborted\":").num(aborted_);
  w.raw(",\"evicted\":").num(evicted);
  w.raw(",\"keys\":").num(keys_.size());
  w.raw(",\"offered\":").num(offered_);
  w.raw(",\"reservoir\":").num(reservoir);
  w.raw(",\"retained\":").num(tail + reservoir);
  w.raw(",\"span_bytes\":").num(span_bytes());
  w.raw(",\"tail\":").num(tail);
  w.raw(",\"truncated\":").num(truncated_);
  w.raw("}}\n");

  std::vector<const Kept*> ordered;
  for (const auto& [key, state] : keys_) {
    const MetricState& ms = state.ms;
    // Export in offer order: merge the two (already n-sorted) sets.
    ordered.clear();
    for (const auto& k : ms.tail) ordered.push_back(&k);
    for (const auto& k : ms.reservoir) ordered.push_back(&k);
    std::sort(ordered.begin(), ordered.end(),
              [](const Kept* a, const Kept* b) { return a->n < b->n; });
    for (const Kept* k : ordered) {
      const SpanUnit& u = k->unit;
      w.raw("{\"k\":").str(key);
      w.raw(",\"n\":").num(k->n);
      w.raw(",\"keep\":").str(k->keep);
      w.raw(",\"user\":").num(u.user);
      w.raw(",\"seq\":").num(u.seq);
      w.raw(",\"v\":").num(u.value);
      w.raw(",\"t0_ns\":").num(u.t0);
      w.raw(",\"t1_ns\":").num(u.t1);
      w.raw(",\"total_ns\":").num(u.total_ns);
      w.raw(",\"stages\":[");
      for (std::size_t i = 0; i < u.stages.size(); ++i) {
        const SpanStage& st = u.stages[i];
        if (i > 0) w.put(',');
        w.raw("{\"t0_ns\":").num(st.t0);
        w.raw(",\"t1_ns\":").num(st.t1);
        w.raw(",\"prop_ns\":").num(st.prop_ns);
        if (st.prop_channel[0] != '\0') {
          w.raw(",\"prop_ch\":").str(st.prop_channel);
        }
        w.raw(",\"legs\":").num(st.legs);
        if (st.legs > 0) {
          w.raw(",\"crit\":");
          write_leg(w, st.crit);
        }
        w.put('}');
      }
      w.raw("]}\n");
    }
  }
}

std::string SpanRecorder::to_jsonl() const {
  json::Writer w;
  write_jsonl(w);
  return w.take();
}

}  // namespace hvc::obs
