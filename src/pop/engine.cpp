#include "pop/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace hvc::pop {

namespace {

// Seed-derivation lanes (sim::seed_mix sub-keys): one for the engine's
// own stream (arrival process), one parent for all per-user streams.
constexpr std::uint64_t kEngineLane = 0xA221;
constexpr std::uint64_t kUserLane = 0xC17F;

// Tag layout (engine.hpp): kind | slot | epoch.
constexpr std::uint32_t kEpochMask = 0x0000ffffu;
constexpr std::uint32_t kKindMask = 0xff000000u;
constexpr std::uint32_t kSlotShift = 16;
constexpr std::uint32_t kSlotMax = 0xff;

// Admission reason tags — shared verbatim between span legs and the
// steering-audit join so --explain and the audit log tell one story.
constexpr const char* kReasonEmbbOnly = "city:embb-only";
constexpr const char* kReasonEmbbLarge = "city:embb-large";
constexpr const char* kReasonUrllcAdmitted = "city:urllc-admitted";
constexpr const char* kReasonUrllcSpill = "city:urllc-spill";
constexpr const char* kReasonChunk = "city:chunk";

/// Alone-transfer time of `bytes` at `rate` bytes/s, in whole ns — the
/// serialization component of the exact critical-path decomposition.
std::int64_t alone_ns(double bytes, double rate_bytes_per_s) {
  return static_cast<std::int64_t>(
      std::llround(bytes * 1e9 / std::max(rate_bytes_per_s, 1.0)));
}

}  // namespace

// ---- PsLink -----------------------------------------------------------

PsLink::PsLink(sim::Simulator& sim, double rate_bytes_per_s)
    : sim_(sim),
      rate_(std::max(rate_bytes_per_s, 1.0)),
      timer_(sim, [this] { pop_and_dispatch(); }) {}

void PsLink::advance_to_now() {
  const sim::Time now = sim_.now();
  if (now > last_) {
    if (!heap_.empty()) {
      const double dt_s = static_cast<double>(now - last_) * 1e-9;
      vwork_ += dt_s * rate_ / static_cast<double>(heap_.size());
    }
    last_ = now;
  }
}

void PsLink::enqueue(std::uint32_t user, std::uint32_t tag, double bytes) {
  advance_to_now();
  const Xfer x{vwork_ + std::max(bytes, 1.0), seq_++, user, tag};
  // Sift up from the new leaf.
  std::size_t i = heap_.size();
  heap_.push_back(x);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Later{}(heap_[parent], x)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = x;
}

PsLink::Xfer PsLink::pop_min() {
  const Xfer min = heap_.front();
  const Xfer last = heap_.back();
  heap_.pop_back();
  // Sift the old last leaf down from the root.
  const std::size_t n = heap_.size();
  if (n == 0) return min;
  std::size_t i = 0;
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t child = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Later{}(heap_[child], heap_[c])) child = c;
    }
    if (!Later{}(last, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = last;
  return min;
}

void PsLink::pop_and_dispatch() {
  advance_to_now();
  // Completion tolerance: the fire time is rounded up to whole
  // nanoseconds, so at the timer the head's v_end is reached up to
  // accumulated double rounding; eps absorbs it (fractions of a byte).
  const double eps = 1e-9 * vwork_ + 1e-3;
  done_scratch_.clear();
  while (!heap_.empty() && heap_.front().v_end <= vwork_ + eps) {
    done_scratch_.push_back(pop_min());
  }
  rearm();
  // Dispatch after the heap is consistent: callbacks may start() new
  // transfers on this link (a page's next object), which re-arms again.
  for (const Xfer& x : done_scratch_) {
    if (on_done_) on_done_(x.user, x.tag);
  }
}

void PsLink::rearm() {
  if (heap_.empty()) {
    timer_.cancel();
    return;
  }
  const double n = static_cast<double>(heap_.size());
  const double remaining = std::max(0.0, heap_.front().v_end - vwork_);
  const double dt_s = remaining * n / rate_;
  sim::Duration dt = static_cast<sim::Duration>(std::ceil(dt_s * 1e9));
  if (dt < 1) dt = 1;
  timer_.arm(dt);
}

double PsLink::predicted_completion_s(double bytes) const {
  return bytes * (static_cast<double>(heap_.size()) + 1.0) / rate_;
}

// ---- PsStartBatch -----------------------------------------------------

void PsStartBatch::start(PsLink& link, std::uint32_t user, std::uint32_t tag,
                         double bytes) {
  link.enqueue(user, tag, bytes);
  std::erase(order_, &link);
  order_.push_back(&link);
}

void PsStartBatch::rearm() {
  for (PsLink* link : order_) link->rearm();
  order_.clear();
}

// ---- CityEngine -------------------------------------------------------

CityEngine::CityEngine(sim::Simulator& sim, const CityConfig& cfg)
    : sim_(sim),
      cfg_(cfg),
      embb_(sim, cfg.cell.embb_rate_bps / 8.0),
      urllc_(sim, cfg.cell.urllc_rate_bps / 8.0),
      engine_rng_(sim::seed_mix(cfg.seed, kEngineLane)) {
  cfg_.population.validate();
  const auto done = [this](std::uint32_t u, std::uint32_t tag) {
    on_transfer_done(u, tag);
  };
  embb_.set_on_done(done);
  urllc_.set_on_done(done);
  probes_.add("pop", "pop.active_users",
              [this] { return static_cast<double>(active_); });
  probes_.add("pop", "pop.embb_active_flows",
              [this] { return static_cast<double>(embb_.active()); });
  probes_.add("pop", "pop.urllc_active_flows",
              [this] { return static_cast<double>(urllc_.active()); });
  probes_.add("pop", "pop.urllc_spilled", [this] {
    return static_cast<double>(result_.urllc_spilled);
  });
  // Span layer: active() is non-null only when the run enabled spans
  // (the exp isolation contract), so the default-off path costs one
  // pointer test per hook.
  spans_ = obs::SpanRecorder::active();
}

void CityEngine::start() {
  users_.reserve(static_cast<std::size_t>(cfg_.population.users));
  for (std::int64_t i = 0; i < cfg_.population.users; ++i) add_user();
  if (cfg_.population.churn.arrival_rate_per_s > 0) schedule_arrival();
}

void CityEngine::add_user() {
  const auto slot = static_cast<std::uint32_t>(users_.size());
  User u;
  u.rng = sim::CounterStream(
      sim::seed_mix(sim::seed_mix(cfg_.seed, kUserLane), slot));
  const ArchetypeMix& mix = cfg_.population.mix;
  const double total = mix.web + mix.video + mix.background;
  const double r = u.rng.uniform() * total;
  u.kind = r < mix.web ? kWeb : r < mix.web + mix.video ? kVideo
                                                        : kBackground;
  users_.acquire(std::move(u));
  if (spans_ != nullptr) sbuild_.resize(users_.size());
  activate(slot);
}

void CityEngine::activate(std::uint32_t u) {
  User& user = users_.at(u);  // acquire() already marked the slot live
  ++active_;
  result_.peak_active = std::max(result_.peak_active, active_);
  const double session_s = cfg_.population.churn.mean_session_s;
  if (session_s > 0) {
    const double hold = exponential(user.rng, session_s);
    sim_.after(sim::seconds_f(hold), [this, u, e = users_.gen(u)] {
      if (users_.alive({u, e})) depart(u);
    });
  }
  switch (user.kind) {
    case kWeb:
      // Desynchronized start: the population did not all click at t=0.
      schedule_think(u);
      break;
    case kVideo:
      user.chunk_due =
          sim_.now() +
          sim::seconds_f(user.rng.uniform() * cfg_.population.video.chunk_s);
      schedule_chunk(u);
      break;
    case kBackground:
      schedule_bg(u);
      break;
  }
}

void CityEngine::depart(std::uint32_t u) {
  if (!users_.live(u)) return;
  users_.retire_slot(u);  // bumps the epoch; in-flight checks go stale
  --active_;
  if (spans_ != nullptr && sbuild_[u].active()) {
    sbuild_[u].abort();  // the unit died incomplete; never offered
    spans_->note_aborted();
  }
  fold_user(u);
  ++result_.departures;
  // Transfers this user still has in flight keep consuming capacity
  // (the radio does not know the app gave up); their completions are
  // dropped by the epoch check in on_transfer_done.
}

void CityEngine::fold_user(std::uint32_t u) {
  User& user = users_.at(u);  // retired slots stay readable
  if (user.metric_n == 0) return;
  result_.cohorts.cohort(cohort_name(user.kind))
      .fairness.add(user.metric_sum / static_cast<double>(user.metric_n));
}

const char* CityEngine::cohort_name(Kind k) const {
  switch (k) {
    case kWeb: return "web";
    case kVideo: return "video";
    case kBackground: return "background";
  }
  return "web";
}

// ---- web archetype ----------------------------------------------------

void CityEngine::schedule_think(std::uint32_t u) {
  User& user = users_.at(u);
  const double think =
      exponential(user.rng, cfg_.population.web.think_time_s);
  sim_.after(sim::seconds_f(think), [this, u, e = users_.gen(u)] {
    if (users_.alive({u, e})) start_page(u);
  });
}

void CityEngine::start_page(std::uint32_t u) {
  User& user = users_.at(u);
  const WebArchetype& web = cfg_.population.web;
  user.op_start = sim_.now();
  user.levels_left = static_cast<std::uint8_t>(
      user.rng.uniform_int(web.min_levels, web.max_levels));
  if (spans_ != nullptr) {
    obs::SpanUnitBuilder& b = sbuild_[u];
    b.begin("web", "plt_ms", u, sim_.now());
    // Stage 1 opens now; its leading propagation is the request RTT, so
    // stage durations stay contiguous and the PLT sum is exact.
    b.begin_stage(sim_.now(), cfg_.cell.embb_rtt, "embb");
  }
  // Request RTT, then the document itself (level 1, one object).
  sim_.after(cfg_.cell.embb_rtt, [this, u, e = users_.gen(u)] {
    if (!users_.alive({u, e})) return;
    User& usr = users_.at(u);
    const WebArchetype& w = cfg_.population.web;
    usr.objs_in_flight = 1;
    start_object(u, 0, usr.rng.uniform(w.html_min_bytes, w.html_max_bytes));
    batch_.rearm();
  });
}

void CityEngine::begin_level(std::uint32_t u) {
  User& user = users_.at(u);
  const WebArchetype& web = cfg_.population.web;
  const int k = static_cast<int>(
      user.rng.uniform_int(web.min_objects, web.max_objects));
  user.objs_in_flight = static_cast<std::uint16_t>(k);
  for (int i = 0; i < k; ++i) {
    start_object(u, static_cast<std::uint32_t>(i),
                 pareto(user.rng, web.object_xm_bytes, web.object_alpha,
                        web.object_cap_bytes));
  }
  // One re-arm per link the level touched, not one per object: nothing
  // else is scheduled between the starts.
  batch_.rearm();
}

void CityEngine::start_object(std::uint32_t u, std::uint32_t slot,
                              double bytes) {
  const std::uint32_t tag = kTagWebObject |
                            (std::min(slot, kSlotMax) << kSlotShift) |
                            (users_.gen(u) & kEpochMask);
  const SteerSpec& st = cfg_.population.steer;
  PsLink* link = &embb_;
  const char* channel = "embb";
  const char* reason = kReasonEmbbOnly;
  if (st.enabled && cfg_.cell.has_urllc) {
    if (bytes <= st.max_bytes) {
      // Delay-bound admission: take the scarce pool only when it can
      // still honor the bound given its current occupancy.
      const double predicted_ms =
          (urllc_.predicted_completion_s(bytes) +
           sim::to_seconds(cfg_.cell.urllc_rtt)) *
          1e3;
      if (predicted_ms <= st.delay_bound_ms) {
        ++result_.urllc_admitted;
        link = &urllc_;
        channel = "urllc";
        reason = kReasonUrllcAdmitted;
      } else {
        ++result_.urllc_spilled;
        reason = kReasonUrllcSpill;
      }
    } else {
      reason = kReasonEmbbLarge;
    }
  }
  if (spans_ != nullptr && sbuild_[u].active()) {
    sbuild_[u].leg_open(slot, sim_.now(), static_cast<std::int64_t>(bytes),
                        channel, reason,
                        alone_ns(bytes, link->rate_bytes_per_s()));
  }
  // Audit join: the same reason tag the span leg carries, recorded as a
  // "city-admission" decision so --explain and the audit log correlate.
  if (auto* al = obs::SteeringAuditLog::active()) {
    obs::AuditRecord rec;
    rec.at = sim_.now();
    rec.packet_id = ++admissions_;
    rec.flow_id = u;
    rec.size_bytes = static_cast<std::uint32_t>(
        std::min(bytes, 4294967295.0));
    rec.direction = obs::kDirDown;
    rec.chosen = link == &urllc_ ? 1 : 0;
    rec.reason = reason;
    rec.policy = "city-admission";
    rec.channels.push_back(
        {0, embb_.predicted_completion_s(bytes) * 1e3 +
                sim::to_millis(cfg_.cell.embb_rtt)});
    if (cfg_.cell.has_urllc) {
      rec.channels.push_back(
          {0, urllc_.predicted_completion_s(bytes) * 1e3 +
                  sim::to_millis(cfg_.cell.urllc_rtt)});
    }
    al->record(std::move(rec));
  }
  batch_.start(*link, u, tag, bytes);
}

// ---- video archetype --------------------------------------------------

void CityEngine::schedule_chunk(std::uint32_t u) {
  User& user = users_.at(u);
  const sim::Time when = std::max(sim_.now(), user.chunk_due);
  sim_.at(when, [this, u, e = users_.gen(u)] {
    if (users_.alive({u, e})) start_chunk(u);
  });
}

void CityEngine::start_chunk(std::uint32_t u) {
  User& user = users_.at(u);
  const VideoArchetype& video = cfg_.population.video;
  user.op_start = sim_.now();
  const double jitter = user.rng.uniform(0.7, 1.3);
  const double bytes = video.kbps * 1000.0 / 8.0 * video.chunk_s * jitter;
  if (spans_ != nullptr) {
    // Unit t0 is the pacing deadline, not now: time spent waiting behind
    // the previous chunk is real user-visible latency (queueing).
    obs::SpanUnitBuilder& b = sbuild_[u];
    b.begin("video", "latency_ms", u, user.chunk_due);
    b.begin_stage(user.chunk_due, 0, "");
    b.leg_open(0, user.chunk_due, static_cast<std::int64_t>(bytes), "embb",
               kReasonChunk, alone_ns(bytes, embb_.rate_bytes_per_s()));
  }
  embb_.start(u, kTagVideoChunk | (users_.gen(u) & kEpochMask), bytes);
}

// ---- background archetype ---------------------------------------------

void CityEngine::schedule_bg(std::uint32_t u) {
  User& user = users_.at(u);
  const double gap =
      exponential(user.rng, cfg_.population.background.period_s);
  sim_.after(sim::seconds_f(gap), [this, u, e = users_.gen(u)] {
    if (users_.alive({u, e})) start_bg(u);
  });
}

void CityEngine::start_bg(std::uint32_t u) {
  User& user = users_.at(u);
  const BackgroundArchetype& bg = cfg_.population.background;
  user.op_start = sim_.now();
  user.metric_aux = pareto(user.rng, bg.xm_bytes, bg.alpha, bg.cap_bytes);
  embb_.start(u, kTagBgTransfer | (users_.gen(u) & kEpochMask),
              user.metric_aux);
}

// ---- completion dispatch ----------------------------------------------

void CityEngine::on_transfer_done(std::uint32_t u, std::uint32_t tag) {
  if (!users_.live(u) ||
      (users_.gen(u) & kEpochMask) != (tag & kEpochMask)) {
    return;  // owner departed while the transfer was in flight
  }
  User& user = users_.at(u);
  const std::uint32_t kind = tag & kKindMask;
  stats::CohortSet& cohorts = result_.cohorts;
  if (kind == kTagWebObject) {
    if (spans_ != nullptr && sbuild_[u].active()) {
      sbuild_[u].leg_close((tag >> kSlotShift) & kSlotMax, sim_.now());
    }
    if (--user.objs_in_flight > 0) return;
    if (--user.levels_left > 0) {
      if (spans_ != nullptr && sbuild_[u].active()) {
        // The next stage opens NOW (contiguity): its leading propagation
        // is the parse+request RTT before its objects go out.
        sbuild_[u].end_stage(sim_.now());
        sbuild_[u].begin_stage(sim_.now(), cfg_.cell.embb_rtt, "embb");
      }
      // Next dependency level is discovered by parsing what arrived:
      // one more request RTT before its objects go out.
      sim_.after(cfg_.cell.embb_rtt, [this, u, e = users_.gen(u)] {
        if (users_.alive({u, e})) begin_level(u);
      });
      return;
    }
    const double plt_ms = sim::to_millis(sim_.now() - user.op_start);
    if (spans_ != nullptr && sbuild_[u].active()) {
      sbuild_[u].end_stage(sim_.now());
      spans_->offer(sbuild_[u].finish(
          sim_.now(), sim_.now() - user.op_start, plt_ms));
    }
    cohorts.cohort("web").add("plt_ms", plt_ms);
    user.metric_sum += plt_ms;
    ++user.metric_n;
    ++result_.pages;
    schedule_think(u);
  } else if (kind == kTagVideoChunk) {
    const double latency_ms =
        std::max(0.0, sim::to_millis(sim_.now() - user.chunk_due));
    if (spans_ != nullptr && sbuild_[u].active()) {
      obs::SpanUnitBuilder& b = sbuild_[u];
      b.leg_close(0, sim_.now());
      b.end_stage(sim_.now());
      spans_->offer(
          b.finish(sim_.now(), sim_.now() - user.chunk_due, latency_ms));
    }
    cohorts.cohort("video").add("latency_ms", latency_ms);
    user.metric_sum += latency_ms;
    ++user.metric_n;
    ++result_.chunks;
    user.chunk_due += sim::seconds_f(cfg_.population.video.chunk_s);
    schedule_chunk(u);
  } else {  // kTagBgTransfer
    const double dur_s = sim::to_seconds(sim_.now() - user.op_start);
    const double xput_mbps =
        dur_s > 0 ? user.metric_aux * 8.0 / dur_s / 1e6 : 0.0;
    cohorts.cohort("background").add("xput_mbps", xput_mbps);
    user.metric_sum += xput_mbps;
    ++user.metric_n;
    ++result_.bg_transfers;
    schedule_bg(u);
  }
}

// ---- churn ------------------------------------------------------------

void CityEngine::schedule_arrival() {
  const double gap = exponential(
      engine_rng_, 1.0 / cfg_.population.churn.arrival_rate_per_s);
  sim_.after(sim::seconds_f(gap), [this] {
    ++result_.arrivals;
    add_user();
    schedule_arrival();
  });
}

// ---- distributions ----------------------------------------------------

double CityEngine::exponential(sim::CounterStream& s, double mean) {
  double u = s.uniform();
  while (u <= 1e-300) u = s.uniform();
  return -mean * std::log(u);
}

double CityEngine::pareto(sim::CounterStream& s, double xm, double alpha,
                          double cap) {
  double u = s.uniform();
  while (u <= 1e-300) u = s.uniform();
  return std::min(cap, xm / std::pow(u, 1.0 / alpha));
}

// ---- wrap-up ----------------------------------------------------------

void CityEngine::finish() {
  for (std::uint32_t u = 0; u < users_.size(); ++u) {
    if (users_.live(u)) fold_user(u);
  }
  if (spans_ != nullptr) {
    std::uint64_t trunc = 0;
    for (const obs::SpanUnitBuilder& b : sbuild_) trunc += b.truncated();
    spans_->note_truncated(trunc);
  }
  auto& reg = obs::MetricsRegistry::current();
  reg.counter("pop.pages").inc(static_cast<std::int64_t>(result_.pages));
  reg.counter("pop.chunks").inc(static_cast<std::int64_t>(result_.chunks));
  reg.counter("pop.bg_transfers")
      .inc(static_cast<std::int64_t>(result_.bg_transfers));
  reg.counter("pop.urllc_admitted")
      .inc(static_cast<std::int64_t>(result_.urllc_admitted));
  reg.counter("pop.urllc_spilled")
      .inc(static_cast<std::int64_t>(result_.urllc_spilled));
  reg.counter("pop.arrivals")
      .inc(static_cast<std::int64_t>(result_.arrivals));
  reg.counter("pop.departures")
      .inc(static_cast<std::int64_t>(result_.departures));
  reg.gauge("pop.peak_active")
      .set(static_cast<double>(result_.peak_active));
}

CityResult run_city(const CityConfig& cfg) {
  sim::Simulator sim;
  CityEngine engine(sim, cfg);
  // Same hookup core::Scenario does: the run's telemetry sampler (if the
  // exp isolation scope installed one) ticks on this simulator.
  if (auto* ts = obs::TelemetrySampler::active()) ts->attach(sim);
  engine.start();
  const std::size_t executed = sim.run_until(cfg.duration);
  engine.finish();
  CityResult r = std::move(engine.result());
  r.events = executed;
  return r;
}

}  // namespace hvc::pop
