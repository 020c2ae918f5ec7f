// Time, data-size and rate units used throughout the library.
//
// Simulated time is a signed 64-bit count of nanoseconds. A signed type is
// deliberate: durations are subtracted freely (e.g. RTT = now - sent_at) and
// unsigned wraparound bugs in that arithmetic are a classic source of
// emulator heisenbugs. 2^63 ns is ~292 years of simulated time.
#pragma once

#include <cstdint>

namespace hvc::sim {

/// A point in simulated time, in nanoseconds since simulation start.
using Time = std::int64_t;

/// A span of simulated time, in nanoseconds.
using Duration = std::int64_t;

inline constexpr Time kTimeZero = 0;
inline constexpr Time kTimeNever = INT64_MAX;

constexpr Duration nanoseconds(std::int64_t n) { return n; }
constexpr Duration microseconds(std::int64_t us) { return us * 1'000; }
constexpr Duration milliseconds(std::int64_t ms) { return ms * 1'000'000; }
constexpr Duration seconds(std::int64_t s) { return s * 1'000'000'000; }

/// Fractional-second helper for config code ("0.033 s frame interval").
constexpr Duration seconds_f(double s) {
  return static_cast<Duration>(s * 1e9);
}
constexpr Duration milliseconds_f(double ms) {
  return static_cast<Duration>(ms * 1e6);
}

constexpr double to_seconds(Duration d) { return static_cast<double>(d) / 1e9; }
constexpr double to_millis(Duration d) { return static_cast<double>(d) / 1e6; }

/// Link and sending rates, in bits per second.
using RateBps = std::int64_t;

constexpr RateBps bps(std::int64_t b) { return b; }
constexpr RateBps kbps(std::int64_t k) { return k * 1'000; }
constexpr RateBps mbps(std::int64_t m) { return m * 1'000'000; }
constexpr RateBps gbps(std::int64_t g) { return g * 1'000'000'000; }

constexpr double to_mbps(RateBps r) { return static_cast<double>(r) / 1e6; }

/// Time to serialize `bytes` at `rate`. Rounds up so that a packet is never
/// considered transmitted before its last bit.
constexpr Duration transmission_time(std::int64_t bytes, RateBps rate) {
  if (rate <= 0) return kTimeNever;
  const __int128 bits = static_cast<__int128>(bytes) * 8;
  return static_cast<Duration>((bits * 1'000'000'000 + rate - 1) / rate);
}

/// Bytes deliverable in `d` at `rate` (floor). 128-bit intermediate: an hour
/// at 100 Gbps overflows int64 if computed naively.
constexpr std::int64_t bytes_in(Duration d, RateBps rate) {
  if (d <= 0 || rate <= 0) return 0;
  const __int128 bits = static_cast<__int128>(d) * rate / 1'000'000'000;
  return static_cast<std::int64_t>(bits / 8);
}

}  // namespace hvc::sim
