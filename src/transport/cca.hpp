// Congestion-control algorithm interface.
//
// The TCP-like sender drives a CcAlgorithm through a narrow hook API; the
// CCA answers with a congestion window and (optionally) a pacing rate.
// Keeping the interface narrow is what lets Figure 1's pathology emerge
// from the genuine algorithms rather than from special-casing: BBR, Vegas
// and Vivace only ever see (rtt, delivery-rate, loss) signals, exactly the
// signals that packet steering distorts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/names.hpp"
#include "sim/units.hpp"

namespace hvc::transport {

inline constexpr std::int64_t kMss = 1460;

struct AckEvent {
  sim::Time now = 0;
  sim::Duration rtt = 0;             ///< sample for the newly acked packet
  std::int64_t acked_bytes = 0;      ///< newly cum-acked + newly sacked
  std::int64_t bytes_in_flight = 0;  ///< after processing this ack
  double delivery_rate_bps = 0.0;    ///< BBR-style rate sample (0 = none)
  bool app_limited = false;          ///< sender had nothing to send
  std::uint8_t channel = 255;        ///< channel echo (255 = unknown)
  std::int64_t round_trips = 0;      ///< sender's round counter
};

struct LossEvent {
  sim::Time now = 0;
  std::int64_t lost_bytes = 0;
  std::int64_t bytes_in_flight = 0;
  bool is_rto = false;
};

class CcAlgorithm {
 public:
  virtual ~CcAlgorithm() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  virtual void on_packet_sent(sim::Time now, std::int64_t bytes,
                              std::int64_t bytes_in_flight) {
    (void)now;
    (void)bytes;
    (void)bytes_in_flight;
  }
  virtual void on_ack(const AckEvent& ev) = 0;
  virtual void on_loss(const LossEvent& ev) = 0;

  /// A previously reported loss proved spurious (the original arrived,
  /// never retransmitted): the CCA may undo its reduction, as Linux does
  /// on DSACK/F-RTO evidence. Default: ignore.
  virtual void on_spurious_loss(sim::Time now) { (void)now; }

  /// Congestion window in bytes (the sender's in-flight cap).
  [[nodiscard]] virtual std::int64_t cwnd_bytes() const = 0;

  /// Pacing rate in bits/s; <= 0 means "unpaced" (cwnd-clocked only).
  [[nodiscard]] virtual double pacing_rate_bps() const { return 0.0; }
};

using CcaPtr = std::unique_ptr<CcAlgorithm>;

using CcaMaker = CcaPtr (*)();

/// Every CCA a name selects, with its constructor ("hvc" is the §3.2
/// channel-aware one); a scenario's "cca" is one of these names.
extern const std::span<const sim::Named<CcaMaker>> kCcas;

/// Instantiate the CCA kCcas calls `name`; throws std::invalid_argument
/// for unknown names.
CcaPtr make_cca(const std::string& name);

}  // namespace hvc::transport
