#include "app/web/browser.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/metrics.hpp"
#include "sim/seed.hpp"

namespace hvc::app::web {

namespace {

constexpr std::int64_t kRequestBytes = 400;  ///< upstream, per object

// Client compute per object (BrowserConfig::processing_mean): lognormal
// with this sigma; render-blocking objects cost kBlockingScale times the
// mean. The draws come from a stream seeded per page.
constexpr double kProcessingSigma = 0.5;
constexpr double kBlockingScale = 2.0;
constexpr std::uint64_t kProcessingSeed = 77;

}  // namespace

PageLoadSession::PageLoadSession(net::Node& client, net::Node& server,
                                 const WebPage& page, BrowserConfig cfg,
                                 std::function<void(sim::Time)> done)
    : client_(client),
      server_(server),
      page_(page),
      cfg_(std::move(cfg)),
      done_(std::move(done)),
      origins_(static_cast<std::size_t>(page.origins())),
      // Explicit mix instead of std::hash: libstdc++/libc++ hash strings
      // differently, and the per-page processing jitter must be the same
      // stream on every platform (sim/seed.hpp, DESIGN.md §4).
      processing_rng_(
          sim::seed_mix(kProcessingSeed, sim::fnv1a64(page.name))),
      deps_remaining_(page.objects.size(), 0),
      requested_(page.objects.size(), false),
      loaded_(page.objects.size(), false) {
  processing_.reserve(page_.objects.size());
  for (const auto& o : page_.objects) {
    deps_remaining_[o.id] = static_cast<int>(o.deps.size());
  }
  spans_ = obs::SpanRecorder::active();
  if (spans_ != nullptr) {
    requested_at_.assign(page_.objects.size(), 0);
    completed_at_.assign(page_.objects.size(), 0);
    processed_at_.assign(page_.objects.size(), 0);
    trigger_.assign(page_.objects.size(), -1);
  }
}

PageLoadSession::~PageLoadSession() {
  // Cancelling an event that has fired already is a no-op.
  for (const sim::EventId id : processing_) client_.simulator().cancel(id);
}

void PageLoadSession::start() {
  started_at_ = client_.simulator().now();
  for (const auto& o : page_.objects) {
    if (deps_remaining_[o.id] == 0) maybe_request(o.id);
  }
}

void PageLoadSession::maybe_request(int object_id) {
  if (requested_[object_id]) return;
  requested_[object_id] = true;
  const auto& obj = page_.objects[object_id];
  Origin& origin = origins_[obj.origin];

  if (!origin.conn) {
    origin.conn = std::make_unique<transport::Connection>(client_, server_,
                                                          cfg_.transport);
    const int origin_id = obj.origin;

    // Server side: a completed request message triggers the response.
    origin.conn->server_receiver().set_on_message(
        [this, origin_id](const net::AppHeader& hdr, sim::Time) {
          Origin& o = origins_[origin_id];
          const auto it = o.request_to_object.find(hdr.message_id);
          if (it == o.request_to_object.end()) return;
          const int object = it->second;
          const auto resp_id = o.conn->server_sender().write_message(
              page_.objects[object].bytes, 0);
          o.response_to_object[resp_id] = object;
        });

    // Client side: a completed response message finishes the object.
    origin.conn->client_receiver().set_on_message(
        [this, origin_id](const net::AppHeader& hdr, sim::Time) {
          Origin& o = origins_[origin_id];
          const auto it = o.response_to_object.find(hdr.message_id);
          if (it == o.response_to_object.end()) return;
          const int object = it->second;
          o.response_to_object.erase(it);
          --o.outstanding;
          pump_origin(origin_id);
          on_object_complete(object);
        });

    origin.conn->handshake([this, origin_id] {
      origins_[origin_id].ready = true;
      pump_origin(origin_id);
    });
  }

  origin.queue.push_back(object_id);
  if (origin.ready) pump_origin(obj.origin);
}

void PageLoadSession::pump_origin(int origin_id) {
  Origin& origin = origins_[origin_id];
  if (!origin.ready) return;
  while (!origin.queue.empty() &&
         origin.outstanding < cfg_.max_concurrent_per_origin) {
    const int object = origin.queue.front();
    origin.queue.erase(origin.queue.begin());
    ++origin.outstanding;
    if (spans_ != nullptr) {
      requested_at_[object] = client_.simulator().now();
    }
    const auto req_id =
        origin.conn->client_sender().write_message(kRequestBytes, 0);
    origin.request_to_object[req_id] = object;
  }
}

void PageLoadSession::on_object_complete(int object_id) {
  if (loaded_[object_id]) return;
  loaded_[object_id] = true;
  ++loaded_count_;
  if (spans_ != nullptr) {
    completed_at_[object_id] = client_.simulator().now();
  }
  obs::MetricsRegistry::current().counter("app.web.objects_loaded").inc();

  // Model client compute: dependents are discovered only after the object
  // is parsed/executed. onLoad also waits for processing of the last
  // object.
  double mean = static_cast<double>(cfg_.processing_mean);
  if (page_.objects[object_id].render_blocking) mean *= kBlockingScale;
  sim::Duration delay = 0;
  if (mean > 0) {
    const double sigma = kProcessingSigma;
    const double mu = std::log(mean) - sigma * sigma / 2.0;
    delay = static_cast<sim::Duration>(processing_rng_.lognormal(mu, sigma));
  }
  processing_.push_back(client_.simulator().after(
      delay, [this, object_id] { on_object_processed(object_id); }));
}

void PageLoadSession::on_object_processed(int object_id) {
  if (spans_ != nullptr) {
    processed_at_[object_id] = client_.simulator().now();
  }
  for (const auto& o : page_.objects) {
    if (requested_[o.id] || loaded_[o.id]) continue;
    if (std::find(o.deps.begin(), o.deps.end(), object_id) != o.deps.end()) {
      if (--deps_remaining_[o.id] == 0) {
        if (spans_ != nullptr) trigger_[o.id] = object_id;
        maybe_request(o.id);
      }
    }
  }

  ++processed_count_;
  if (processed_count_ == static_cast<int>(page_.objects.size()) &&
      !finished_) {
    finished_ = true;
    plt_ = client_.simulator().now() - started_at_;
    if (spans_ != nullptr) offer_span(object_id);
    auto& reg = obs::MetricsRegistry::current();
    reg.counter("app.web.pages_loaded").inc();
    reg.histogram("app.web.plt_ms").add(sim::to_millis(plt_));
    if (done_) done_(plt_);
  }
}

void PageLoadSession::offer_span(int last_object) {
  // Reconstruct the critical request chain backwards from the object
  // whose processing fired onLoad: each hop is the dependency whose
  // processing unlocked the next request. Chain stages are contiguous
  // (stage t0 = predecessor's processed time), so the per-component sum
  // equals the measured PLT exactly.
  std::vector<int> chain;
  for (int cur = last_object; cur >= 0; cur = trigger_[cur]) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  obs::SpanUnitBuilder b;
  b.begin("web", "plt_ms", 0, started_at_);
  sim::Time prev = started_at_;
  for (const int id : chain) {
    const auto& obj = page_.objects[id];
    // Decomposition per hop: queueing = handshake/slot wait before the
    // request went out, serialization = the fetch itself (request +
    // response over the steered channels), decode-wait = client compute.
    b.begin_stage(prev, 0, "");
    b.leg_open(static_cast<std::uint32_t>(id), prev, obj.bytes, "mixed",
               trigger_[id] < 0 ? "web:root" : "web:object",
               completed_at_[id] - requested_at_[id]);
    b.leg_charge(static_cast<std::uint32_t>(id), obs::SpanComp::kDecodeWait,
                 processed_at_[id] - completed_at_[id]);
    b.leg_close(static_cast<std::uint32_t>(id), processed_at_[id]);
    b.end_stage(processed_at_[id]);
    prev = processed_at_[id];
  }
  spans_->offer(b.finish(client_.simulator().now(), plt_,
                         sim::to_millis(plt_)));
}

PageLoadSession::TransportTotals PageLoadSession::transport_totals() const {
  TransportTotals t;
  for (const auto& o : origins_) {
    if (!o.conn) continue;
    for (const auto* s :
         {&o.conn->client_sender().stats(), &o.conn->server_sender().stats()}) {
      t.packets_sent += s->packets_sent;
      t.retransmissions += s->retransmissions;
      t.rto_count += s->rto_count;
      t.spurious_loss_marks += s->spurious_loss_marks;
    }
  }
  return t;
}

BackgroundJsonFlow::BackgroundJsonFlow(net::Node& client, net::Node& server,
                                       Kind kind, std::int64_t bytes,
                                       transport::TcpConfig cfg)
    : client_(client),
      server_(server),
      kind_(kind),
      bytes_(bytes),
      conn_(client, server,
            [&cfg] {
              cfg.annotate_app_info = true;  // message framing
              return cfg;
            }()) {
  if (kind_ == Kind::kUpload) {
    conn_.server_receiver().set_on_message(
        [this](const net::AppHeader&, sim::Time) {
          ++completed_;
          next_transfer();
        });
  } else {
    // Downloader: tiny request upstream, `bytes_` response downstream.
    conn_.server_receiver().set_on_message(
        [this](const net::AppHeader&, sim::Time) {
          conn_.server_sender().write_message(bytes_, 0);
        });
    conn_.client_receiver().set_on_message(
        [this](const net::AppHeader&, sim::Time) {
          ++completed_;
          next_transfer();
        });
  }
}

void BackgroundJsonFlow::start() {
  running_ = true;
  conn_.handshake([this] { next_transfer(); });
}

void BackgroundJsonFlow::next_transfer() {
  if (!running_) return;
  if (kind_ == Kind::kUpload) {
    conn_.client_sender().write_message(bytes_, 0);
  } else {
    conn_.client_sender().write_message(200, 0);
  }
}

}  // namespace hvc::app::web
