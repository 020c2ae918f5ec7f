#include "exp/runner.hpp"

#include <exception>
#include <stdexcept>

#include "app/web/page.hpp"
#include "channel/profile.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"
#include "pop/engine.hpp"
#include "sim/units.hpp"
#include "steer/dchannel.hpp"
#include "trace/gen5g.hpp"

namespace hvc::exp {

namespace {

sim::RateBps mbps_f(double m) {
  return static_cast<sim::RateBps>(m * 1e6 + 0.5);
}

/// A fixed-characteristic channel's defaults with the spec's rtt/rate
/// overrides applied (negative = keep the default).
channel::FixedDefaults with_overrides(const ChannelSpec& c,
                                      channel::FixedDefaults d) {
  if (c.rtt_ms >= 0) d.rtt = sim::milliseconds_f(c.rtt_ms);
  if (c.rate_mbps >= 0) d.rate = mbps_f(c.rate_mbps);
  return d;
}

constexpr sim::Named<ChannelBuilder> kChannelTable[] = {
    {"embb", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kEmbbDefaults);
       return channel::embb_constant_profile(d.rtt, d.rate);
     }},
    {"urllc", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kUrllcDefaults);
       return channel::urllc_profile(d.rtt, d.rate);
     }},
    {"5g", [](const ChannelSpec& c, sim::Duration length, std::uint64_t seed) {
       return channel::embb_trace_profile(
           sim::value_of(trace::kFiveGProfiles, c.profile, "5G profile"),
           length, seed);
     }},
    {"tsn", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kTsnDefaults);
       return channel::wifi_tsn_profile(d.rate, d.rtt);
     }},
    {"wifi", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kWifiDefaults);
       return channel::wifi_contended_profile(d.rate, d.rtt);
     }},
    {"cisp", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kCispDefaults);
       return channel::cisp_profile(d.rtt, d.rate);
     }},
    {"fiber", [](const ChannelSpec& c, sim::Duration, std::uint64_t) {
       const auto d = with_overrides(c, channel::kFiberDefaults);
       return channel::fiber_profile(d.rtt, d.rate);
     }},
    {"leo", [](const ChannelSpec&, sim::Duration length, std::uint64_t seed) {
       return channel::leo_profile(seed, length);
     }},
};

constexpr sim::Named<DChannelPreset> kPresetTable[] = {
    {"aggressive", &steer::DChannelConfig::aggressive},
    {"web-tuned", &steer::DChannelConfig::web_tuned},
};

channel::ChannelProfile build_channel(const ChannelSpec& c,
                                      double scenario_duration_s,
                                      std::uint64_t scenario_seed) {
  const sim::Duration trace_duration =
      sim::seconds_f(c.duration_s >= 0 ? c.duration_s : scenario_duration_s);
  const std::uint64_t trace_seed =
      c.seed >= 0 ? static_cast<std::uint64_t>(c.seed) : scenario_seed;
  return sim::value_of(kChannelTypes, c.type, "channel type")(
      c, trace_duration, trace_seed);
}

/// DChannelConfig from preset (none = aggressive) + per-knob overrides.
steer::DChannelConfig build_dchannel_config(const PolicySpec& p) {
  steer::DChannelConfig cfg =
      p.preset.empty()
          ? steer::DChannelConfig::aggressive()
          : sim::value_of(kDChannelPresets, p.preset, "DChannel preset")();
  if (p.cost_factor >= 0) cfg.cost_factor = p.cost_factor;
  if (p.min_margin_ms >= 0) cfg.min_margin = sim::milliseconds_f(p.min_margin_ms);
  if (p.max_queue_fill >= 0) cfg.max_queue_fill = p.max_queue_fill;
  if (p.max_data_queue_fill >= 0) {
    cfg.max_data_queue_fill = p.max_data_queue_fill;
  }
  if (p.queue_risk >= 0) cfg.queue_risk = p.queue_risk;
  if (p.accelerate_control >= 0) {
    cfg.accelerate_control = p.accelerate_control != 0;
  }
  if (p.name == "dchannel+prio" || p.use_flow_priority > 0) {
    cfg.use_flow_priority = true;
  }
  if (p.use_flow_priority == 0) cfg.use_flow_priority = false;
  return cfg;
}

core::PolicyFactory make_factory(const PolicySpec& p) {
  if (!p.tuned()) return nullptr;  // core::make_policy(name)
  const steer::DChannelConfig cfg = build_dchannel_config(p);
  return [cfg] { return std::make_unique<steer::DChannelPolicy>(cfg); };
}

fault::FaultEvent build_fault(const FaultSpec& f, std::uint64_t scenario_seed,
                              std::size_t index) {
  fault::FaultEvent e;
  e.kind = sim::value_of(fault::kFaultKinds, f.kind, "fault kind");
  e.channel = static_cast<std::size_t>(f.channel);
  e.dir = sim::value_of(fault::kFaultDirs, f.direction, "fault direction");
  e.start = sim::seconds_f(f.start_s);
  e.duration = sim::seconds_f(f.duration_s);
  e.rate_scale = f.rate_scale;
  e.extra_delay = sim::milliseconds_f(f.extra_delay_ms);
  e.loss.ge_p_good_to_bad = f.p_good_to_bad;
  e.loss.ge_p_bad_to_good = f.p_bad_to_good;
  e.loss.ge_loss_in_bad = f.loss_in_bad;
  e.loss.ge_loss_in_good = f.loss_in_good;
  // seed = -1: ge_burst derives a per-event stream from the scenario
  // seed; flap stays strictly periodic (flap_seed 0 = no jitter).
  e.loss_seed = f.seed >= 0
                    ? static_cast<std::uint64_t>(f.seed)
                    : scenario_seed ^ (0x66b1u + static_cast<std::uint64_t>(index) * 0x9e3779b97f4a7c15ULL);
  e.flap_period = sim::seconds_f(f.period_s);
  e.flap_up_fraction = f.up_fraction;
  e.flap_seed = f.seed >= 0 ? static_cast<std::uint64_t>(f.seed) : 0;
  return e;
}

void put_summary(std::map<std::string, double>& m, const std::string& prefix,
                 const sim::Summary& s) {
  m[prefix + ".mean"] = s.mean();
  m[prefix + ".p5"] = s.percentile(5);
  m[prefix + ".p25"] = s.percentile(25);
  m[prefix + ".p50"] = s.percentile(50);
  m[prefix + ".p75"] = s.percentile(75);
  m[prefix + ".p90"] = s.percentile(90);
  m[prefix + ".p95"] = s.percentile(95);
  m[prefix + ".p99"] = s.percentile(99);
  m[prefix + ".min"] = s.min();
  m[prefix + ".max"] = s.max();
  m[prefix + ".count"] = static_cast<double>(s.count());
}

void run_bulk(const ScenarioSpec& spec, std::map<std::string, double>& m) {
  const double dur_s =
      spec.bulk.duration_s >= 0 ? spec.bulk.duration_s : spec.duration_s;
  const auto r = core::run_bulk(build_scenario_config(spec), spec.cca,
                                sim::seconds_f(dur_s));
  m["bulk.goodput_mbps"] = r.goodput_bps / 1e6;
  m["bulk.retransmissions"] = static_cast<double>(r.retransmissions);
  m["bulk.rto_count"] = static_cast<double>(r.rto_count);
  sim::Summary rtt;
  for (const auto& p : r.rtt_ms.points()) rtt.add(p.value);
  put_summary(m, "bulk.rtt_ms", rtt);
  for (std::size_t i = 0; i < r.data_packets_per_channel.size(); ++i) {
    m["bulk.channel" + std::to_string(i) + ".data_packets"] =
        static_cast<double>(r.data_packets_per_channel[i]);
  }
  if (!spec.faults.empty()) {
    m["fault.blackout_committed_bytes"] =
        static_cast<double>(r.fault_blackout_committed_bytes);
    m["fault.blackout_dropped_packets"] =
        static_cast<double>(r.fault_blackout_dropped_packets);
    // Time-to-recover per outage: gap between the outage clearing and
    // the first cumulative-ack progress after it.
    for (std::size_t i = 0; i < spec.faults.size(); ++i) {
      const auto& f = spec.faults[i];
      if (f.kind != "outage") continue;
      const sim::Time end =
          sim::seconds_f(f.start_s) + sim::seconds_f(f.duration_s);
      double at_end = 0.0;
      sim::Time recovered = sim::kTimeNever;
      for (const auto& p : r.acked_bytes.points()) {
        if (p.t <= end) {
          at_end = p.value;
        } else if (p.value > at_end) {
          recovered = p.t;
          break;
        }
      }
      m["fault.outage" + std::to_string(i) + ".time_to_recover_ms"] =
          recovered == sim::kTimeNever ? -1.0
                                       : sim::to_millis(recovered - end);
    }
  }
}

void run_video(const ScenarioSpec& spec, std::map<std::string, double>& m) {
  app::video::SvcConfig svc;
  svc.layer_bitrates.clear();
  for (const double kbps : spec.video.layer_kbps) {
    svc.layer_bitrates.push_back(
        static_cast<sim::RateBps>(kbps * 1000.0 + 0.5));
  }
  svc.fps = spec.video.fps;
  svc.keyframe_interval = spec.video.keyframe_interval;
  svc.seed = static_cast<std::uint64_t>(spec.video.encoder_seed);
  app::video::VideoReceiverConfig rx;
  rx.decode_wait = sim::milliseconds_f(spec.video.decode_wait_ms);
  rx.lookahead_frames = spec.video.lookahead_frames;
  rx.keyframe_interval = spec.video.keyframe_interval;
  rx.layers = static_cast<int>(spec.video.layer_kbps.size());
  rx.seed = static_cast<std::uint64_t>(spec.video.receiver_seed);
  const double dur_s =
      spec.video.duration_s >= 0 ? spec.video.duration_s : spec.duration_s;
  const auto r = core::run_video(build_scenario_config(spec), svc, rx,
                                 sim::seconds_f(dur_s));
  put_summary(m, "video.latency_ms", r.stats.latency_ms);
  put_summary(m, "video.ssim", r.stats.ssim);
  m["video.frames_decoded"] = static_cast<double>(r.stats.frames_decoded);
  m["video.frames_concealed"] =
      static_cast<double>(r.stats.frames_concealed);
  for (std::size_t i = 0; i < r.stats.decoded_at_layer.size(); ++i) {
    m["video.decoded_at_layer" + std::to_string(i)] =
        static_cast<double>(r.stats.decoded_at_layer[i]);
  }
}

void run_web(const ScenarioSpec& spec, std::map<std::string, double>& m) {
  const core::ScenarioConfig cfg = build_scenario_config(spec);
  const auto corpus = app::web::generate_corpus(
      {.pages = spec.web.pages,
       .landing_fraction = spec.web.landing_fraction,
       .seed = static_cast<std::uint64_t>(spec.web.corpus_seed)});
  core::WebRunConfig web;
  web.loads_per_page = spec.web.loads_per_page;
  web.background_flows = spec.web.background_flows;
  web.bg_upload_bytes = spec.web.bg_upload_bytes;
  web.bg_download_bytes = spec.web.bg_download_bytes;
  web.bg_flow_priority = static_cast<std::uint8_t>(spec.web.bg_flow_priority);
  web.browser.transport.cca = spec.cca;
  web.per_load_timeout = sim::milliseconds_f(spec.web.per_load_timeout_s * 1000.0);
  const auto r = core::run_web(cfg, corpus, web);
  put_summary(m, "web.plt_ms", r.plt_ms);
  m["web.per_page_mean_ms"] = r.per_page_mean_ms.mean();
  m["web.timeouts"] = static_cast<double>(r.timeouts);
}

/// The city workload bypasses the packet-level core topology entirely:
/// the channel list configures pop::CellConfig (first "embb" = shared
/// cell, first "urllc" = scarce steering pool) and pop::run_city does
/// the rest on a flow-level model. Trace-driven channel types have no
/// fluid equivalent and are rejected.
void run_city(const ScenarioSpec& spec, std::map<std::string, double>& m) {
  pop::CityConfig cc;
  cc.population = spec.city.population;
  cc.seed = spec.seed;
  cc.duration = sim::seconds_f(spec.duration_s);
  cc.cell.has_urllc = false;
  bool saw_embb = false;
  for (const auto& c : spec.channels) {
    if (c.type == "embb" && !saw_embb) {
      saw_embb = true;
      if (c.rate_mbps >= 0) cc.cell.embb_rate_bps = c.rate_mbps * 1e6;
      if (c.rtt_ms >= 0) cc.cell.embb_rtt = sim::milliseconds_f(c.rtt_ms);
    } else if (c.type == "urllc" && !cc.cell.has_urllc) {
      cc.cell.has_urllc = true;
      if (c.rate_mbps >= 0) cc.cell.urllc_rate_bps = c.rate_mbps * 1e6;
      if (c.rtt_ms >= 0) cc.cell.urllc_rtt = sim::milliseconds_f(c.rtt_ms);
    } else if (c.type != "embb" && c.type != "urllc") {
      throw std::runtime_error(
          "city workload supports embb/urllc channels only (got '" + c.type +
          "')");
    }
  }
  if (!saw_embb) {
    throw std::runtime_error("city workload needs an embb channel");
  }
  // The policy axis maps onto the steering rule: "embb-only" = no URLLC
  // steering at all, anything else keeps the spec's admission rule.
  if (spec.down_policy.name == "embb-only") {
    cc.population.steer.enabled = false;
  }

  const pop::CityResult r = pop::run_city(cc);
  r.cohorts.export_metrics("city", &m);
  m["city.users"] = static_cast<double>(cc.population.users);
  m["city.arrivals"] = static_cast<double>(r.arrivals);
  m["city.departures"] = static_cast<double>(r.departures);
  m["city.peak_active"] = static_cast<double>(r.peak_active);
  m["city.pages"] = static_cast<double>(r.pages);
  m["city.chunks"] = static_cast<double>(r.chunks);
  m["city.bg_transfers"] = static_cast<double>(r.bg_transfers);
  m["city.urllc_admitted"] = static_cast<double>(r.urllc_admitted);
  m["city.urllc_spilled"] = static_cast<double>(r.urllc_spilled);
  const double steer_total =
      static_cast<double>(r.urllc_admitted + r.urllc_spilled);
  m["city.urllc_spill_rate"] =
      steer_total > 0 ? static_cast<double>(r.urllc_spilled) / steer_total
                      : 0.0;
  m["city.stats_bytes"] = static_cast<double>(r.cohorts.memory_bytes());
  m["city.events"] = static_cast<double>(r.events);
  // Exemplar accounting: proves retention cost is O(exemplars), not
  // O(pages) — span_bytes must stay flat as the population scales.
  if (const obs::SpanRecorder* sp = obs::SpanRecorder::active();
      sp != nullptr && sp->enabled()) {
    m["city.span_bytes"] = static_cast<double>(sp->span_bytes());
    m["city.spans_offered"] = static_cast<double>(sp->offered());
    m["city.spans_retained"] = static_cast<double>(sp->retained());
  }
}

/// Streams the run's artifacts to their files: the lifecycle trace, then
/// telemetry, audit and spans for each recorder the run enabled. Throws
/// std::runtime_error naming the path when a file cannot be written.
void write_artifacts(const ScenarioSpec& spec, const RunOptions& opts,
                     const RunIsolation& iso) {
  std::string prefix = !opts.out_prefix.empty() ? opts.out_prefix : spec.name;
  if (opts.run_index >= 0) prefix += ".run" + std::to_string(opts.run_index);
  const auto stream = [](const std::string& path, const auto& recorder,
                         auto write) {
    obs::json::Writer w(path);
    (recorder.*write)(w);
    w.close();
  };
  if (!opts.trace_path.empty()) {
    stream(opts.trace_path, iso.tracer, &obs::PacketTracer::write_chrome_trace);
  }
  if (iso.sampler.enabled()) {
    stream(prefix + ".telemetry.jsonl", iso.sampler,
           &obs::TelemetrySampler::write_jsonl);
  }
  if (iso.audit.enabled()) {
    stream(prefix + ".audit.jsonl", iso.audit,
           &obs::SteeringAuditLog::write_jsonl);
  }
  if (iso.spans.enabled()) {
    stream(prefix + ".spans.jsonl", iso.spans, &obs::SpanRecorder::write_jsonl);
  }
}

constexpr sim::Named<WorkloadRunner> kWorkloadTable[] = {
    {"bulk", &run_bulk},
    {"video", &run_video},
    {"web", &run_web},
    {"city", &run_city},
};

}  // namespace

constinit const std::span<const sim::Named<ChannelBuilder>> kChannelTypes =
    kChannelTable;
constinit const std::span<const sim::Named<DChannelPreset>> kDChannelPresets =
    kPresetTable;
constinit const std::span<const sim::Named<WorkloadRunner>> kWorkloads =
    kWorkloadTable;

core::ScenarioConfig build_scenario_config(const ScenarioSpec& spec) {
  core::ScenarioConfig cfg;
  for (const auto& c : spec.channels) {
    cfg.channels.push_back(build_channel(c, spec.duration_s, spec.seed));
  }
  cfg.up_policy = spec.up_policy.name;
  cfg.down_policy = spec.down_policy.name;
  cfg.up_factory = make_factory(spec.up_policy);
  cfg.down_factory = make_factory(spec.down_policy);
  cfg.resequence_hold = sim::milliseconds_f(spec.resequence_hold_ms);
  for (std::size_t i = 0; i < spec.faults.size(); ++i) {
    cfg.faults.events.push_back(build_fault(spec.faults[i], spec.seed, i));
  }
  return cfg;
}

RunResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunOptions{});
}

RunResult run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  RunResult result;
  result.name = spec.name;

  // The isolation contract (see header). The recorders are enabled only
  // *after* their scopes are in place — enable() points the thread-local
  // active() at the run-local object, and the scope's destructor is what
  // guarantees it never outlives it. The tracer is enabled before the
  // topology exists, so channel::HvcSet::add names its tracks.
  RunIsolation iso;

  if (!opts.trace_path.empty()) iso.tracer.enable();
  if (spec.spans.enabled) {
    obs::SpanConfig sc;
    sc.tail_quantile = spec.spans.tail_quantile;
    sc.tail_budget = spec.spans.tail_budget;
    sc.reservoir_budget = spec.spans.reservoir_budget;
    sc.reservoir_period = spec.spans.reservoir_period;
    sc.warmup = spec.spans.warmup;
    sc.seed = spec.seed;
    iso.spans.enable(sc);
  }
  if (spec.telemetry.enabled) {
    obs::TelemetryConfig tc;
    tc.period = sim::milliseconds_f(spec.telemetry.period_ms);
    tc.max_samples_per_series =
        static_cast<std::size_t>(spec.telemetry.max_samples);
    tc.max_series = static_cast<std::size_t>(spec.telemetry.max_series);
    tc.groups = spec.telemetry.series;
    iso.sampler.enable(tc);
    if (spec.telemetry.audit) {
      iso.audit.enable(
          static_cast<std::size_t>(spec.telemetry.audit_capacity));
    }
  }

  // wall_ms is operator progress display only (hvc_sweep stderr ETA);
  // it is never written into any determinism-checked artifact (results
  // JSONL, telemetry, audit). obs::prof::now_ns() is the sanctioned
  // host-clock accessor, so no wallclock lint carve-out is needed.
  const std::uint64_t t0 = obs::prof::now_ns();
  try {
    sim::value_of(kWorkloads, spec.workload, "workload")(spec, result.metrics);
    result.obs = iso.registry.snapshot();
  } catch (const std::exception& e) {
    result.metrics.clear();
    result.obs.clear();
    result.error = e.what();
  }
  result.wall_ms = static_cast<double>(obs::prof::now_ns() - t0) * 1e-6;

  if (result.error.empty()) {
    try {
      write_artifacts(spec, opts, iso);
    } catch (const std::runtime_error& e) {
      result.metrics.clear();
      result.obs.clear();
      result.error = e.what();
    }
  }
  return result;
}

}  // namespace hvc::exp
