// The run path below mirrors src/exp/runner.cpp (run_scenario,
// run_workload, run_city_workload) and src/core/scenario.cpp (run_bulk,
// run_video, run_web) statement for statement, so that spans can sit
// between the calls those functions make. The byte-identity check on the
// exp::to_jsonl rows (main.cpp) catches any drift between the mirror and
// the originals.
#include "traced.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>

#include "app/video/session.hpp"
#include "app/web/browser.hpp"
#include "app/web/page.hpp"
#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "pop/engine.hpp"
#include "steer/steering_policy.hpp"
#include "trace/trace.hpp"
#include "transport/cca.hpp"
#include "transport/tcp.hpp"

namespace perfbench {

namespace core = hvc::core;
namespace exp = hvc::exp;
namespace sim = hvc::sim;

namespace {

/// Times every steering decision; forwards everything to the real policy.
class TimedPolicy final : public hvc::steer::SteeringPolicy {
 public:
  TimedPolicy(std::unique_ptr<hvc::steer::SteeringPolicy> inner,
              Tracer* tracer, TracedCounts* counts)
      : inner_(std::move(inner)), tracer_(tracer), counts_(counts) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool uses_app_info() const override {
    return inner_->uses_app_info();
  }
  [[nodiscard]] bool uses_flow_priority() const override {
    return inner_->uses_flow_priority();
  }
  hvc::steer::Decision steer(const hvc::net::Packet& pkt,
                             std::span<const hvc::steer::ChannelView> channels,
                             sim::Time now) override {
    const Span span(tracer_, Layer::kSteer);
    hvc::steer::Decision d = inner_->steer(pkt, channels, now);
    if (d.channel != 0) ++counts_->steer_non_default;
    return d;
  }

 private:
  std::unique_ptr<hvc::steer::SteeringPolicy> inner_;
  Tracer* tracer_;
  TracedCounts* counts_;
};

/// Times every congestion-controller call; forwards everything.
class TimedCca final : public hvc::transport::CcAlgorithm {
 public:
  TimedCca(hvc::transport::CcaPtr inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override {
    const Span span(tracer_, Layer::kTransport);
    return inner_->name();
  }
  void on_packet_sent(sim::Time now, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override {
    const Span span(tracer_, Layer::kTransport);
    inner_->on_packet_sent(now, bytes, bytes_in_flight);
  }
  void on_ack(const hvc::transport::AckEvent& ev) override {
    const Span span(tracer_, Layer::kTransport);
    inner_->on_ack(ev);
  }
  void on_loss(const hvc::transport::LossEvent& ev) override {
    const Span span(tracer_, Layer::kTransport);
    inner_->on_loss(ev);
  }
  void on_spurious_loss(sim::Time now) override {
    const Span span(tracer_, Layer::kTransport);
    inner_->on_spurious_loss(now);
  }
  [[nodiscard]] std::int64_t cwnd_bytes() const override {
    const Span span(tracer_, Layer::kTransport);
    return inner_->cwnd_bytes();
  }
  [[nodiscard]] double pacing_rate_bps() const override {
    const Span span(tracer_, Layer::kTransport);
    return inner_->pacing_rate_bps();
  }

 private:
  hvc::transport::CcaPtr inner_;
  Tracer* tracer_;
};

/// True for a generated capacity trace (5G, LEO: uneven opportunity
/// gaps); false for a constant rate, which CapacityTrace::constant spaces
/// evenly.
bool generated(const hvc::trace::CapacityTrace& t) {
  const auto& at = t.opportunities();
  for (std::size_t i = 2; i < at.size(); ++i) {
    if (at[i] - at[i - 1] != at[1] - at[0]) return true;
  }
  return false;
}

core::PolicyFactory timed_factory(core::PolicyFactory inner,
                                  const std::string& name, Tracer* tracer,
                                  TracedCounts* counts) {
  return [inner = std::move(inner), name, tracer, counts] {
    auto policy = inner ? inner() : core::make_policy(name);
    return std::make_unique<TimedPolicy>(std::move(policy), tracer, counts);
  };
}

std::unique_ptr<core::Scenario> build_scenario(const core::ScenarioConfig& cfg,
                                               Tracer* tracer) {
  const Span span(tracer, Layer::kChannel);
  return std::make_unique<core::Scenario>(cfg);
}

// ---- core::run_* with spans (src/core/scenario.cpp) ----------------------

core::BulkResult run_bulk(const core::ScenarioConfig& cfg,
                          const std::string& cca, sim::Duration duration,
                          Tracer* tracer) {
  const Span span(tracer, Layer::kSim);
  const auto sc = build_scenario(cfg, tracer);
  const auto flows = hvc::transport::make_flow_pair();
  hvc::transport::TcpSender sender(
      sc->server(), flows,
      std::make_unique<TimedCca>(hvc::transport::make_cca(cca), tracer));
  hvc::transport::TcpReceiver receiver(sc->client(), flows);
  sender.write(sim::bytes_in(duration, sim::gbps(2)));
  sc->sim().run_until(duration);

  core::BulkResult r;
  r.goodput_bps = sender.goodput_bps(0, duration);
  r.rtt_ms = sender.stats().rtt_samples_ms;
  r.acked_bytes = sender.stats().acked_bytes_series;
  r.retransmissions = sender.stats().retransmissions;
  r.rto_count = sender.stats().rto_count;
  r.data_packets_per_channel =
      sc->network().downlink_shim().stats().packets_per_channel;
  if (auto* inj = sc->fault_injector()) {
    r.fault_blackout_committed_bytes = inj->blackout_committed_bytes();
    r.fault_blackout_dropped_packets = inj->blackout_dropped_packets();
  }
  double prev = 0.0;
  for (sim::Time t = sim::seconds(1); t <= duration; t += sim::seconds(1)) {
    double at = prev;
    for (const auto& p : sender.stats().acked_bytes_series.points()) {
      if (p.t <= t) {
        at = p.value;
      } else {
        break;
      }
    }
    r.goodput_mbps.add(t, (at - prev) * 8.0 / 1e6);
    prev = at;
  }
  return r;
}

core::VideoResult run_video(const core::ScenarioConfig& cfg,
                            const hvc::app::video::SvcConfig& svc,
                            const hvc::app::video::VideoReceiverConfig& rx,
                            sim::Duration duration, Tracer* tracer) {
  const Span span(tracer, Layer::kSim);
  const auto sc = build_scenario(cfg, tracer);
  const auto flow = hvc::net::next_flow_id();
  hvc::app::video::VideoSender sender(sc->server(), flow, svc);
  hvc::app::video::VideoReceiver receiver(sc->client(), flow, sender, rx);
  sender.start(duration);
  sc->sim().run_until(duration + sim::seconds(12));

  core::VideoResult r;
  r.stats = receiver.stats();
  r.latency_cdf_ms = r.stats.latency_ms.samples();
  std::sort(r.latency_cdf_ms.begin(), r.latency_cdf_ms.end());
  r.ssim_cdf = r.stats.ssim.samples();
  std::sort(r.ssim_cdf.begin(), r.ssim_cdf.end());
  return r;
}

core::WebResult run_web(const core::ScenarioConfig& cfg,
                        const std::vector<hvc::app::web::WebPage>& corpus,
                        const core::WebRunConfig& web, Tracer* tracer) {
  namespace web_app = hvc::app::web;
  const Span span(tracer, Layer::kSim);
  const auto sc = build_scenario(cfg, tracer);
  core::WebResult result;

  hvc::transport::TcpConfig bg_cfg = web.browser.transport;
  bg_cfg.flow_priority = web.bg_flow_priority;
  std::unique_ptr<web_app::BackgroundJsonFlow> uploader;
  std::unique_ptr<web_app::BackgroundJsonFlow> downloader;
  if (web.background_flows) {
    uploader = std::make_unique<web_app::BackgroundJsonFlow>(
        sc->client(), sc->server(), web_app::BackgroundJsonFlow::Kind::kUpload,
        web.bg_upload_bytes, bg_cfg);
    downloader = std::make_unique<web_app::BackgroundJsonFlow>(
        sc->client(), sc->server(),
        web_app::BackgroundJsonFlow::Kind::kDownload, web.bg_download_bytes,
        bg_cfg);
    uploader->start();
    downloader->start();
  }

  for (const auto& page : corpus) {
    sim::Summary page_plts;
    for (int load = 0; load < web.loads_per_page; ++load) {
      auto session = std::make_unique<web_app::PageLoadSession>(
          sc->client(), sc->server(), page, web.browser, nullptr);
      session->start();
      const sim::Time deadline = sc->sim().now() + web.per_load_timeout;
      while (!session->finished() && sc->sim().now() < deadline) {
        sc->sim().run_until(
            std::min(deadline, sc->sim().now() + sim::milliseconds(20)));
      }
      double plt_ms;
      if (session->finished()) {
        plt_ms = sim::to_millis(session->plt());
      } else {
        plt_ms = sim::to_millis(web.per_load_timeout);
        ++result.timeouts;
      }
      result.plt_ms.add(plt_ms);
      page_plts.add(plt_ms);
      sc->sim().run_for(sim::milliseconds(250));
    }
    result.per_page_mean_ms.add(page_plts.mean());
  }
  return result;
}

// ---- exp run_workload / run_city_workload (src/exp/runner.cpp) -----------

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

void run_workload(const exp::ScenarioSpec& spec,
                  const core::ScenarioConfig& cfg,
                  std::map<std::string, double>& m, Tracer* tracer) {
  if (spec.workload == "bulk") {
    const double dur_s =
        spec.bulk.duration_s >= 0 ? spec.bulk.duration_s : spec.duration_s;
    const auto r = run_bulk(cfg, spec.cca, sim::seconds_f(dur_s), tracer);
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
    return;
  }
  if (spec.workload == "video") {
    hvc::app::video::SvcConfig svc;
    svc.layer_bitrates.clear();
    for (const double kbps : spec.video.layer_kbps) {
      svc.layer_bitrates.push_back(
          static_cast<sim::RateBps>(kbps * 1000.0 + 0.5));
    }
    svc.fps = spec.video.fps;
    svc.keyframe_interval = spec.video.keyframe_interval;
    svc.seed = static_cast<std::uint64_t>(spec.video.encoder_seed);
    hvc::app::video::VideoReceiverConfig rx;
    rx.decode_wait = sim::milliseconds_f(spec.video.decode_wait_ms);
    rx.lookahead_frames = spec.video.lookahead_frames;
    rx.keyframe_interval = spec.video.keyframe_interval;
    rx.layers = static_cast<int>(spec.video.layer_kbps.size());
    rx.seed = static_cast<std::uint64_t>(spec.video.receiver_seed);
    const double dur_s =
        spec.video.duration_s >= 0 ? spec.video.duration_s : spec.duration_s;
    const auto r = run_video(cfg, svc, rx, sim::seconds_f(dur_s), tracer);
    put_summary(m, "video.latency_ms", r.stats.latency_ms);
    put_summary(m, "video.ssim", r.stats.ssim);
    m["video.frames_decoded"] = static_cast<double>(r.stats.frames_decoded);
    m["video.frames_concealed"] =
        static_cast<double>(r.stats.frames_concealed);
    for (std::size_t i = 0; i < r.stats.decoded_at_layer.size(); ++i) {
      m["video.decoded_at_layer" + std::to_string(i)] =
          static_cast<double>(r.stats.decoded_at_layer[i]);
    }
    return;
  }
  const auto corpus = hvc::app::web::generate_corpus(
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
  web.per_load_timeout =
      sim::milliseconds_f(spec.web.per_load_timeout_s * 1000.0);
  const auto r = run_web(cfg, corpus, web, tracer);
  put_summary(m, "web.plt_ms", r.plt_ms);
  m["web.per_page_mean_ms"] = r.per_page_mean_ms.mean();
  m["web.timeouts"] = static_cast<double>(r.timeouts);
}

void run_city_workload(const exp::ScenarioSpec& spec,
                       std::map<std::string, double>& m, Tracer* tracer) {
  hvc::pop::CityConfig cc;
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
  if (spec.down_policy.name == "embb-only") {
    cc.population.steer.enabled = false;
  }

  const hvc::pop::CityResult r = [&] {
    const Span span(tracer, Layer::kPop);
    return hvc::pop::run_city(cc);
  }();
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
  if (const hvc::obs::SpanRecorder* sp = hvc::obs::SpanRecorder::active();
      sp != nullptr && sp->enabled()) {
    m["city.span_bytes"] = static_cast<double>(sp->span_bytes());
    m["city.spans_offered"] = static_cast<double>(sp->offered());
    m["city.spans_retained"] = static_cast<double>(sp->retained());
  }
}

void write_artifact(const std::string& out_dir, const std::string& name,
                    const std::string& content, TracedCounts* counts) {
  exp::write_file(out_dir + "/" + name, content);
  counts->artifact_bytes += content.size();
  counts->artifacts.push_back(name);
}

// ---- exp::run_scenario (src/exp/runner.cpp) ------------------------------

exp::RunResult traced_run(const Run& run, const std::string& out_dir,
                          Tracer* tracer, TracedCounts* counts) {
  const exp::ScenarioSpec& spec = run.spec;
  exp::RunResult result;
  result.name = spec.name;
  RunScope scope(spec);
  try {
    if (spec.workload == "city") {
      run_city_workload(spec, result.metrics, tracer);
    } else {
      core::ScenarioConfig cfg = [&] {
        const Span span(tracer, Layer::kTrace);
        return exp::build_scenario_config(spec);
      }();
      for (const auto& ch : cfg.channels) {
        counts->generated_traces +=
            generated(ch.capacity_down) + generated(ch.capacity_up);
      }
      cfg.up_factory = timed_factory(std::move(cfg.up_factory),
                                     cfg.up_policy, tracer, counts);
      cfg.down_factory = timed_factory(std::move(cfg.down_factory),
                                       cfg.down_policy, tracer, counts);
      run_workload(spec, cfg, result.metrics, tracer);
    }
    result.obs = scope.registry.snapshot();
  } catch (const std::exception& e) {
    result.metrics.clear();
    result.obs.clear();
    result.error = e.what();
  }

  if (result.error.empty()) {
    const Span span(tracer, Layer::kExpExport);
    std::string prefix = run.part;
    if (run.run_index >= 0) prefix += ".run" + std::to_string(run.run_index);
    if (scope.sampler.enabled()) {
      write_artifact(out_dir, prefix + ".telemetry.jsonl",
                     scope.sampler.to_jsonl(), counts);
    }
    if (scope.audit.enabled()) {
      const std::string audit = scope.audit.to_jsonl();
      counts->audit_records += static_cast<std::uint64_t>(
          std::count(audit.begin(), audit.end(), '\n'));
      write_artifact(out_dir, prefix + ".audit.jsonl", audit, counts);
    }
    if (scope.spans.enabled()) {
      write_artifact(out_dir, prefix + ".spans.jsonl", scope.spans.to_jsonl(),
                     counts);
    }
  }
  result.index =
      run.run_index >= 0 ? static_cast<std::size_t>(run.run_index) : 0;
  result.params = run.params;
  return result;
}

}  // namespace

TracedPass traced_pass(const std::vector<Part>& parts,
                       const std::string& out_dir) {
  TracedPass tp;
  Tracer* tracer = &tp.tracer;
  TracedCounts* counts = &tp.counts;
  tracer->begin(Layer::kBench);
  for (const Part& part : parts) {
    std::vector<Run> runs = [&] {
      const Span span(tracer, Layer::kExpParse);
      return expand_part(part);
    }();
    std::vector<exp::RunResult> results;
    results.reserve(runs.size());
    for (const Run& run : runs) {
      results.push_back(traced_run(run, out_dir, tracer, counts));
    }
    {
      const Span span(tracer, Layer::kExpExport);
      const std::string rows = exp::to_jsonl(results);
      write_artifact(out_dir, part.name + ".results.jsonl", rows, counts);
      tp.pass.rows += rows;
    }
    for (auto& run : runs) tp.pass.runs.push_back(std::move(run));
    for (auto& r : results) tp.pass.results.push_back(std::move(r));
  }
  tracer->end();
  tp.pass.ns = tracer->total_ns();
  return tp;
}

}  // namespace perfbench
