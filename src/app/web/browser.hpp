// Browser + origin-server model: loads a WebPage over the emulated
// network and reports PLT (the onLoad analogue: all objects fetched).
//
// One Connection per origin (HTTP/2 style), created on first use with a
// one-RTT handshake. Objects become requestable when their dependencies
// complete; requests are small upstream messages, responses are
// object-sized downstream messages. Everything rides the steering shims,
// so request/response/ACK acceleration behaves exactly as in the paper's
// Table 1 setup.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "app/web/page.hpp"
#include "net/node.hpp"
#include "obs/span.hpp"
#include "transport/connection.hpp"

namespace hvc::app::web {

struct BrowserConfig {
  transport::TcpConfig transport;  ///< applied to every origin connection
  /// Max requests outstanding per origin connection (HTTP/2 streams).
  int max_concurrent_per_origin = 6;

  /// Client-side compute per completed object (parse/style/execute)
  /// before its dependents are discovered and requested. Chromium's
  /// main-thread time is a large PLT component; it also paces the request
  /// stream, which matters to steering. Lognormal around this mean;
  /// browser.cpp holds its sigma and the extra cost of render-blocking
  /// objects (CSS/JS).
  sim::Duration processing_mean = sim::milliseconds(12);

  BrowserConfig() {
    transport.cca = "cubic";           // the paper's Table 1 uses CUBIC
    transport.annotate_app_info = true;  // message framing for req/resp
  }
};

/// Loads one page once; self-contained (owns its connections).
class PageLoadSession {
 public:
  PageLoadSession(net::Node& client, net::Node& server, const WebPage& page,
                  BrowserConfig cfg, std::function<void(sim::Time)> done);
  /// Cancels the object-processing events still pending, which capture
  /// `this`: a load abandoned at its timeout must not run them later.
  ~PageLoadSession();
  PageLoadSession(const PageLoadSession&) = delete;
  PageLoadSession& operator=(const PageLoadSession&) = delete;

  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] sim::Time plt() const { return plt_; }
  [[nodiscard]] int objects_loaded() const { return loaded_count_; }

  /// Aggregate transport counters over all origin connections (both
  /// directions) — retransmissions, RTOs, spurious loss marks.
  struct TransportTotals {
    std::int64_t packets_sent = 0;
    std::int64_t retransmissions = 0;
    std::int64_t rto_count = 0;
    std::int64_t spurious_loss_marks = 0;
  };
  [[nodiscard]] TransportTotals transport_totals() const;

 private:
  struct Origin {
    std::unique_ptr<transport::Connection> conn;
    bool ready = false;           ///< handshake complete
    int outstanding = 0;
    std::vector<int> queue;       ///< requestable objects awaiting a slot
    std::map<std::uint64_t, int> request_to_object;
    std::map<std::uint64_t, int> response_to_object;
  };

  void maybe_request(int object_id);
  void pump_origin(int origin_id);
  void on_object_complete(int object_id);
  void on_object_processed(int object_id);
  void offer_span(int last_object);

  net::Node& client_;
  net::Node& server_;
  const WebPage& page_;
  BrowserConfig cfg_;
  std::function<void(sim::Time)> done_;

  std::vector<Origin> origins_;
  sim::Rng processing_rng_;
  std::vector<int> deps_remaining_;
  std::vector<bool> requested_;
  std::vector<bool> loaded_;
  /// Every object-processing event scheduled, fired or not.
  std::vector<sim::EventId> processing_;
  int loaded_count_ = 0;
  int processed_count_ = 0;
  sim::Time started_at_ = 0;
  sim::Time plt_ = -1;
  bool finished_ = false;

  /// Span support (obs/span.hpp): per-object milestones recorded only
  /// when a recorder is active, so the critical request chain can be
  /// reconstructed post-hoc and offered as one exact-sum span unit.
  obs::SpanRecorder* spans_ = nullptr;
  std::vector<sim::Time> requested_at_;   ///< write_message time
  std::vector<sim::Time> completed_at_;   ///< response fully received
  std::vector<sim::Time> processed_at_;   ///< client compute done
  std::vector<int> trigger_;              ///< dep whose processing unlocked
};

/// Repeating background JSON traffic (the Table 1 interferers): an
/// uploader pushes `bytes` upstream back-to-back; a downloader requests
/// `bytes` downstream back-to-back.
class BackgroundJsonFlow {
 public:
  enum class Kind { kUpload, kDownload };

  BackgroundJsonFlow(net::Node& client, net::Node& server, Kind kind,
                     std::int64_t bytes, transport::TcpConfig cfg);

  void start();
  void stop() { running_ = false; }
  [[nodiscard]] std::int64_t transfers_completed() const {
    return completed_;
  }

 private:
  void next_transfer();

  net::Node& client_;
  net::Node& server_;
  Kind kind_;
  std::int64_t bytes_;
  transport::Connection conn_;
  bool running_ = false;
  std::int64_t completed_ = 0;
};

}  // namespace hvc::app::web
