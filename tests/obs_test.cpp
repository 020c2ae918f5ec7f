// Tests for the observability layer: packet tracer ring semantics and
// its Chrome export, the JSON writer's number formats and streaming, the
// thread-local binding protocol every per-run recorder shares, metrics
// registry instruments, and trace determinism across identical runs.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "sim/rng.hpp"
#include "steer/dchannel.hpp"
#include "transport/tcp.hpp"

namespace hvc {
namespace {

using obs::EventKind;
using obs::PacketTracer;
using sim::milliseconds;
using sim::seconds;

/// A tracer recording on this thread for the guard's lifetime: the scope
/// comes first and enable() second, the order exp::run_scenario uses.
struct TracerGuard {
  explicit TracerGuard(std::size_t capacity = 1024) { tracer.enable(capacity); }
  PacketTracer tracer;
  obs::ScopedPacketTracer scope{tracer};
};

TEST(Tracer, DisabledMeansNullActivePointer) {
  ASSERT_EQ(PacketTracer::active(), nullptr);
  {
    TracerGuard guard;
    EXPECT_EQ(PacketTracer::active(), &guard.tracer);
    EXPECT_TRUE(guard.tracer.enabled());
  }
  EXPECT_EQ(PacketTracer::active(), nullptr);
  PacketTracer idle;
  EXPECT_EQ(idle.capacity(), 0u);
}

TEST(Tracer, DisablingAnotherTracerKeepsScopedRunRecording) {
  // Regression: disable() used to clear the thread's active() binding
  // unconditionally. A run executing inside a ScopedPacketTracer (the
  // sweep engine wraps every run in one) would silently stop recording
  // when anything disabled another tracer on the same thread — e.g. an
  // earlier run's teardown.
  // Control: the same single event recorded with no interference.
  // (Set up first — enable() itself binds the thread's active().)
  PacketTracer undisturbed;
  undisturbed.enable(64);
  undisturbed.record(EventKind::kEnqueue, 100, 1, 1, 0, obs::kDirDown, 1500);
  undisturbed.disable();

  PacketTracer run_tracer;
  run_tracer.enable(64);
  obs::ScopedPacketTracer scope(run_tracer);
  ASSERT_EQ(PacketTracer::active(), &run_tracer);

  PacketTracer other;
  other.disable();
  ASSERT_EQ(PacketTracer::active(), &run_tracer)
      << "disabling a different tracer must not unbind the scoped one";

  if (auto* tr = PacketTracer::active()) {
    tr->record(EventKind::kEnqueue, 100, 1, 1, 0, obs::kDirDown, 1500);
  }
  EXPECT_EQ(run_tracer.size(), 1u);

  // The export must be byte-identical to the undisturbed control run.
  EXPECT_EQ(run_tracer.to_chrome_trace(), undisturbed.to_chrome_trace());

  // Disabling the tracer that *is* bound still clears the binding.
  run_tracer.disable();
  EXPECT_EQ(PacketTracer::active(), nullptr);
}

TEST(Tracer, EventsComeBackInRecordingOrder) {
  TracerGuard guard(64);
  auto& tr = guard.tracer;
  for (std::uint64_t i = 0; i < 10; ++i) {
    tr.record(EventKind::kEnqueue, static_cast<sim::Time>(i * 100), i, 1, 0,
              obs::kDirDown, 1500);
  }
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].packet_id, i);
    EXPECT_EQ(events[i].at, static_cast<sim::Time>(i * 100));
  }
  EXPECT_EQ(tr.total_recorded(), 10u);
}

TEST(Tracer, RingWrapsKeepingNewestAndCountsTotal) {
  TracerGuard guard(8);
  auto& tr = guard.tracer;
  for (std::uint64_t i = 0; i < 20; ++i) {
    tr.record(EventKind::kTx, static_cast<sim::Time>(i), i, 1, 0,
              obs::kDirUp, 100);
  }
  EXPECT_EQ(tr.total_recorded(), 20u);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest retained event is #12, newest is #19, in order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].packet_id, 12 + i);
  }
}

TEST(Tracer, ChromeTraceFlagsOnlyAWrappedRing) {
  const auto export_after = [](std::uint64_t events) {
    TracerGuard guard(8);
    for (std::uint64_t i = 0; i < events; ++i) {
      guard.tracer.record(EventKind::kTx, static_cast<sim::Time>(i), i, 1, 0,
                          obs::kDirUp, 100);
    }
    return guard.tracer.to_chrome_trace();
  };
  // A ring that never wrapped exports no truncation block.
  const std::string whole = export_after(8);
  EXPECT_EQ(whole.find("otherData"), std::string::npos);
  EXPECT_EQ(whole.substr(whole.size() - 2), "]}");

  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(export_after(20), &doc));
  const obs::json::Value* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->number_or("capacity", 0), 8.0);
  EXPECT_EQ(other->number_or("recorded", 0), 20.0);
  EXPECT_EQ(other->number_or("overwritten", 0), 12.0);
  std::size_t instants = 0;
  for (const auto& e : doc.find("traceEvents")->array) {
    instants += e.string_or("ph", "") == "i" ? 1 : 0;
  }
  EXPECT_EQ(instants, 8u);  // the retained events only
}

// ---- Rings that grow to capacity ----------------------------------------
//
// The tracer and the audit log reserve their ring and fill it as entries
// arrive instead of constructing every slot up front. EagerRing is the
// ring as it was: every slot built at once, each write at the head. In
// the empty, partly filled, exactly full and wrapped cases the growing
// ring must keep what the eager one keeps, report the same size() and
// capacity(), and export the same bytes: the eager ring's export is its
// truncation flag, when it wrapped, around its retained entries, oldest
// first, as a ring that never wrapped writes them.

template <class T>
struct EagerRing {
  explicit EagerRing(std::size_t capacity) : slots(capacity) {}
  void record(T v) {
    slots[head] = std::move(v);
    head = head + 1 == slots.size() ? 0 : head + 1;
    ++total;
  }
  [[nodiscard]] std::vector<T> retained() const {
    std::vector<T> out;
    obs::for_each_retained(slots, head, total,
                           [&out](const T& v) { out.push_back(v); });
    return out;
  }
  [[nodiscard]] bool wrapped() const { return total > slots.size(); }
  [[nodiscard]] std::string counts() const {
    return "\"capacity\":" + std::to_string(slots.size()) +
           ",\"recorded\":" + std::to_string(total) +
           ",\"overwritten\":" + std::to_string(total - slots.size());
  }
  std::vector<T> slots;
  std::size_t head = 0;
  std::uint64_t total = 0;
};

constexpr std::size_t kRingCapacity = 8;
constexpr std::uint64_t kRingFills[] = {0, 3, kRingCapacity, 21};

obs::TraceEvent ring_event(std::uint64_t i) {
  obs::TraceEvent e;
  constexpr EventKind kinds[] = {EventKind::kEnqueue, EventKind::kDequeue,
                                 EventKind::kTx, EventKind::kRx};
  e.kind = kinds[i % 4];
  e.at = static_cast<sim::Time>(i * 1000);
  e.packet_id = i / 4;
  e.flow_id = 1 + i % 3;
  e.channel = static_cast<std::uint8_t>(i % 2);
  e.direction = obs::kDirDown;
  e.size_bytes = static_cast<std::uint32_t>(100 + i);
  return e;
}

void record_event(PacketTracer& tr, const obs::TraceEvent& e) {
  tr.record(e.kind, e.at, e.packet_id, e.flow_id, e.channel, e.direction,
            e.size_bytes, e.arg, e.aux);
}

TEST(RecorderRing, TracerGrowsThenWrapsLikeTheEagerRing) {
  for (const std::uint64_t n : kRingFills) {
    SCOPED_TRACE(::testing::Message() << n << " events");
    PacketTracer tr;
    tr.enable(kRingCapacity);
    EagerRing<obs::TraceEvent> eager(kRingCapacity);
    for (std::uint64_t i = 0; i < n; ++i) {
      record_event(tr, ring_event(i));
      eager.record(ring_event(i));
    }
    const std::vector<obs::TraceEvent> kept = eager.retained();
    EXPECT_EQ(tr.size(), kept.size());
    EXPECT_EQ(tr.capacity(), kRingCapacity);
    EXPECT_EQ(tr.total_recorded(), n);
    tr.disable();

    PacketTracer whole;
    whole.enable(kept.size() + 1);
    for (const obs::TraceEvent& e : kept) record_event(whole, e);
    whole.disable();
    std::string want = whole.to_chrome_trace();
    if (eager.wrapped()) {
      want.insert(want.size() - 1, ",\"otherData\":{" + eager.counts() + "}");
    }
    EXPECT_EQ(tr.to_chrome_trace(), want);
    const auto snap = tr.snapshot();
    ASSERT_EQ(snap.size(), kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(snap[i].at, kept[i].at);
    }
  }
}

TEST(RecorderRing, AuditLogGrowsThenWrapsLikeTheEagerRing) {
  const auto rec = [](std::uint64_t i) {
    obs::AuditRecord r;
    r.at = static_cast<sim::Time>(i * 250);
    r.packet_id = i;
    r.flow_id = 1 + i % 3;
    r.size_bytes = static_cast<std::uint32_t>(52 + 100 * i);
    r.direction = obs::kDirUp;
    r.chosen = static_cast<std::uint8_t>(i % 2);
    r.reason = i % 2 == 0 ? "dchannel:default" : "dchannel:small-object";
    r.policy = "dchannel";
    r.channels = {{static_cast<std::int64_t>(i * 1500), 25.5},
                  {0, 2.5 + static_cast<double>(i)}};
    return r;
  };
  for (const std::uint64_t n : kRingFills) {
    SCOPED_TRACE(::testing::Message() << n << " records");
    obs::SteeringAuditLog log;
    log.enable(kRingCapacity);
    EagerRing<obs::AuditRecord> eager(kRingCapacity);
    for (std::uint64_t i = 0; i < n; ++i) {
      log.record(rec(i));
      eager.record(rec(i));
    }
    const std::vector<obs::AuditRecord> kept = eager.retained();
    EXPECT_EQ(log.size(), kept.size());
    EXPECT_EQ(log.capacity(), kRingCapacity);
    EXPECT_EQ(log.total_recorded(), n);
    log.disable();

    obs::SteeringAuditLog whole;
    whole.enable(kept.size() + 1);
    for (const obs::AuditRecord& r : kept) whole.record(r);
    whole.disable();
    const std::string want =
        (eager.wrapped() ? "{\"meta\":{" + eager.counts() + "}}\n" : "") +
        whole.to_jsonl();
    EXPECT_EQ(log.to_jsonl(), want);
    const auto snap = log.snapshot();
    ASSERT_EQ(snap.size(), kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(snap[i].packet_id, kept[i].packet_id);
    }
  }
}

TEST(ObsJson, NumberTokensConvertWhollyOrNotAtAll) {
  obs::json::Value v;
  // Overflow is a syntax error, not +-inf.
  EXPECT_FALSE(obs::json::parse("1e400", &v));
  EXPECT_FALSE(obs::json::parse("[-1e400]", &v));
  // The whole token must convert: "1e" is not 1 and "3e+" is not 3.
  EXPECT_FALSE(obs::json::parse("1e", &v));
  EXPECT_FALSE(obs::json::parse("3e+", &v));
  EXPECT_FALSE(obs::json::parse("{\"a\": 2.5E-}", &v));
  // Underflow reads as a zero of the token's sign, as it always did.
  ASSERT_TRUE(obs::json::parse("1e-400", &v));
  EXPECT_EQ(v.num, 0.0);
  EXPECT_FALSE(std::signbit(v.num));
  ASSERT_TRUE(obs::json::parse("-1e-400", &v));
  EXPECT_EQ(v.num, 0.0);
  EXPECT_TRUE(std::signbit(v.num));
  // The smallest subnormal and the largest double are in range.
  ASSERT_TRUE(obs::json::parse("4.9406564584124654e-324", &v));
  EXPECT_EQ(v.num, std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(obs::json::parse("-1.7976931348623157e+308", &v));
  EXPECT_EQ(v.num, -DBL_MAX);
  // A leading '+' was accepted before and still is.
  ASSERT_TRUE(obs::json::parse("+5", &v));
  EXPECT_EQ(v.num, 5.0);
}

TEST(ObsJson, NumberRoundTripsThroughParse) {
  std::vector<double> values = {
      0.0,     -0.0,     1.0,      -1.0,    0.1,     1e300,
      DBL_MAX, -DBL_MAX, DBL_MIN,  -DBL_MIN, 123456789012345678.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  sim::Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);  // any exponent
    if (std::isfinite(d)) values.push_back(d);
    const std::uint64_t sub = bits & 0x800FFFFFFFFFFFFFULL;  // subnormal
    std::memcpy(&d, &sub, sizeof d);
    values.push_back(d);
  }
  for (const double x : values) {
    const std::string text = obs::json::number(x);
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(text, &v)) << text;
    EXPECT_EQ(v.num, x) << text;
    EXPECT_EQ(std::signbit(v.num), std::signbit(x)) << text;
  }
}

/// The doubles the formatter tests run over, seeded: random bit patterns
/// (subnormals, NaN and +-inf among them), uniform values in [0, 1000),
/// three-decimal values, integers below 2^53, rounding ties and powers of
/// two, and the edges.
std::vector<double> formatter_corpus() {
  std::vector<double> values = {
      0.0, -0.0, DBL_MAX, -DBL_MAX, 5e-324, -5e-324, 1e23, DBL_MIN,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  sim::Rng rng(21);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
    const std::uint64_t sub = bits & 0x800FFFFFFFFFFFFFULL;
    std::memcpy(&d, &sub, sizeof d);
    values.push_back(d);
  }
  for (int i = 0; i < 20000; ++i) values.push_back(rng.uniform() * 1000.0);
  for (int i = 0; i < 15000; ++i) {
    values.push_back(static_cast<double>(rng.next_u64() % 100'000'000) /
                     1000.0);
  }
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<double>(rng.next_u64() >> 11));
  }
  // Exact halves of a thousandth and of the last %g digit, and powers of
  // two, whose rounding intervals are lopsided.
  for (int j = -4000; j <= 4000; ++j) {
    values.push_back(j / 16.0);
    values.push_back(j / 2048.0);
  }
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  return values;
}

TEST(ObsJson, NumberMatchesTheSnprintfSearch) {
  // The formatter's previous definition: the first %.{p}g, p = 1..16,
  // that sscanf reads back as v, else %.17g.
  const auto reference = [](double v) -> std::string {
    if (!std::isfinite(v)) return "0";
    char probe[64];
    for (int prec = 1; prec < 17; ++prec) {
      std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
      double back = 0.0;
      std::sscanf(probe, "%lf", &back);
      if (back == v) return probe;
    }
    std::snprintf(probe, sizeof(probe), "%.17g", v);
    return probe;
  };
  const std::vector<double> values = formatter_corpus();
  ASSERT_GE(values.size(), 100'000u);
  std::size_t differ = 0;
  for (const double v : values) {
    const std::string want = reference(v);
    const std::string got = obs::json::number(v);
    if (got != want && ++differ <= 5) {
      ADD_FAILURE() << "want " << want << ", got " << got;
    }
  }
  EXPECT_EQ(differ, 0u);
}

TEST(ObsJson, FixedThreeMatchesPrintf) {
  std::size_t differ = 0;
  for (const double v : formatter_corpus()) {
    char want[400];  // %.3f of +-DBL_MAX is 314 chars
    std::snprintf(want, sizeof(want), "%.3f", v);
    obs::json::Writer w;
    w.fixed3(v);
    const std::string got = w.take();
    if (got != want && ++differ <= 5) {
      ADD_FAILURE() << "want " << want << ", got " << got;
    }
  }
  EXPECT_EQ(differ, 0u);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsJson, WriterSpillsAcrossBufferBoundaries) {
  constexpr std::size_t kBuf = obs::json::Writer::kBufferBytes;
  // Unwrapped and wrapped rings, each export several buffers long.
  for (const int extra : {0, 2500}) {
    SCOPED_TRACE(::testing::Message() << "extra records " << extra);
    obs::SteeringAuditLog log;
    log.enable(3000);
    for (int i = 0; i < 3000 + extra; ++i) {
      obs::AuditRecord rec;
      rec.at = sim::microseconds(i * 37);
      rec.packet_id = static_cast<std::uint64_t>(i);
      rec.flow_id = 3;
      rec.size_bytes = 1200;
      rec.chosen = static_cast<std::uint8_t>(i % 2);
      rec.reason = i % 3 == 0 ? "dchannel:small-object" : "dchannel:default";
      rec.policy = "dchannel";
      rec.channels = {{i * 1500, 50.0 + i / 7.0}, {0, 5.25}};
      log.record(std::move(rec));
    }
    log.disable();

    obs::TelemetrySampler ts;
    obs::TelemetryConfig cfg;
    cfg.max_samples_per_series = 2000;
    ts.enable(cfg);
    double q = 0;
    ts.add_probe("link", "link.a.queued_bytes", [&q] { return q; });
    ts.add_probe("link", "link.b \"quoted\"", [&q] { return q / 3; });
    for (int i = 0; i < 2000 + extra; ++i) {
      q = i * 1.25;
      ts.sample(sim::milliseconds(10) * (i + 1));
    }
    ts.disable();

    const std::string dir = ::testing::TempDir();
    const std::string audit_path = dir + "hvc_writer_spill.audit.jsonl";
    const std::string tel_path = dir + "hvc_writer_spill.telemetry.jsonl";
    {
      obs::json::Writer w(audit_path);
      log.write_jsonl(w);
      w.close();
    }
    {
      obs::json::Writer w(tel_path);
      ts.write_jsonl(w);
      w.close();
    }
    const std::string audit = log.to_jsonl();
    const std::string telemetry = ts.to_jsonl();
    EXPECT_GT(audit.size(), 4 * kBuf);
    EXPECT_GT(telemetry.size(), 2 * kBuf);
    EXPECT_EQ(audit.rfind("{\"meta\":", 0) == 0, extra > 0);
    EXPECT_TRUE(slurp(audit_path) == audit);
    EXPECT_TRUE(slurp(tel_path) == telemetry);
  }
}

TEST(ObsJson, WriterNamesThePathItCannotOpen) {
  const std::string path = ::testing::TempDir() + "no_such_dir/x.jsonl";
  try {
    obs::json::Writer w(path);
    ADD_FAILURE() << "opened " << path;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), path + ": cannot open for writing");
  }
}

TEST(Tracer, ChromeTraceIsWellFormedJsonWithSpans) {
  TracerGuard guard(64);
  auto& tr = guard.tracer;
  tr.set_channel_name(0, "eMBB");
  tr.set_channel_name(1, "URLLC");
  // A full lifecycle on channel 0 down: should produce an "X" span.
  tr.record(EventKind::kEnqueue, sim::microseconds(10), 1, 1, 0,
            obs::kDirDown, 1500);
  tr.record(EventKind::kDequeue, sim::microseconds(500), 1, 1, 0,
            obs::kDirDown, 1500);
  tr.record(EventKind::kTx, sim::microseconds(500), 1, 1, 0, obs::kDirDown,
            1500);
  tr.record(EventKind::kRx, sim::microseconds(5500), 1, 1, 0, obs::kDirDown,
            1500);
  const std::string chrome = tr.to_chrome_trace();
  ASSERT_TRUE(obs::json::valid(chrome)) << chrome.substr(0, 400);

  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(chrome, &doc));
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_span = false;
  bool saw_metadata = false;
  for (const auto& e : events->array) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "X") saw_span = true;
    if (ph == "M") saw_metadata = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_metadata);
  EXPECT_NE(chrome.find("eMBB"), std::string::npos);
}

// ---- Thread-local binding protocol (obs/binding.hpp) ----

/// Per-class glue for the typed suites: the scope type, a cheap enable(),
/// and for the CurrentSlot class the process-global fallback.
template <class T>
struct Binds;

template <>
struct Binds<PacketTracer> {
  static constexpr const char* kName = "PacketTracer";
  using Scope = obs::ScopedPacketTracer;
  static void enable(PacketTracer& t) { t.enable(64); }
};

template <>
struct Binds<obs::SteeringAuditLog> {
  static constexpr const char* kName = "SteeringAuditLog";
  using Scope = obs::ScopedSteeringAuditLog;
  static void enable(obs::SteeringAuditLog& log) { log.enable(64); }
};

template <>
struct Binds<obs::TelemetrySampler> {
  static constexpr const char* kName = "TelemetrySampler";
  using Scope = obs::ScopedTelemetrySampler;
  static void enable(obs::TelemetrySampler& ts) { ts.enable({}); }
};

template <>
struct Binds<obs::SpanRecorder> {
  static constexpr const char* kName = "SpanRecorder";
  using Scope = obs::ScopedSpanRecorder;
  static void enable(obs::SpanRecorder& rec) { rec.enable({}); }
};

template <>
struct Binds<obs::MetricsRegistry> {
  static constexpr const char* kName = "MetricsRegistry";
  using Scope = obs::ScopedMetricsRegistry;
  static obs::MetricsRegistry& fallback() {
    return obs::MetricsRegistry::global();
  }
};

struct BindsName {
  template <class T>
  static std::string GetName(int /*index*/) {
    return Binds<T>::kName;
  }
};

/// active(): bound by enable() and by a scope over an enabled instance.
template <class T>
class ActiveBinding : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(T::active(), nullptr); }
  void TearDown() override { EXPECT_EQ(T::active(), nullptr); }
};
using ActiveBound = ::testing::Types<PacketTracer, obs::SteeringAuditLog,
                                     obs::TelemetrySampler, obs::SpanRecorder>;
TYPED_TEST_SUITE(ActiveBinding, ActiveBound, BindsName);

TYPED_TEST(ActiveBinding, DestroyedWhileBoundLeavesNoBinding) {
  // enable() binds; the instance then dies without disable() (a run that
  // threw). The slot must not keep pointing at it.
  auto x = std::make_unique<TypeParam>();
  Binds<TypeParam>::enable(*x);
  ASSERT_EQ(TypeParam::active(), x.get());
  x.reset();
  EXPECT_EQ(TypeParam::active(), nullptr);
}

TYPED_TEST(ActiveBinding, AnotherInstanceCannotUnbindTheScopedOne) {
  TypeParam a;
  Binds<TypeParam>::enable(a);
  const typename Binds<TypeParam>::Scope scope(a);
  ASSERT_EQ(TypeParam::active(), &a);
  {
    TypeParam b;
    b.disable();
    EXPECT_EQ(TypeParam::active(), &a) << "disable() of another instance";
  }
  EXPECT_EQ(TypeParam::active(), &a) << "destruction of another instance";
  a.disable();
}

TYPED_TEST(ActiveBinding, DisabledScopeMasksOuterAndRestoresIt) {
  TypeParam outer;
  Binds<TypeParam>::enable(outer);
  const typename Binds<TypeParam>::Scope outer_scope(outer);
  ASSERT_EQ(TypeParam::active(), &outer);
  {
    // A run with this recorder off must not record into a sibling's.
    TypeParam inner;
    const typename Binds<TypeParam>::Scope inner_scope(inner);
    EXPECT_EQ(TypeParam::active(), nullptr);
    // Bindings are per thread: another thread never sees this one's.
    std::thread([] { EXPECT_EQ(TypeParam::active(), nullptr); }).join();
  }
  EXPECT_EQ(TypeParam::active(), &outer);
  outer.disable();
}

TYPED_TEST(ActiveBinding, EnableInsideScopeBindsUntilScopeEnds) {
  // The order exp::run_scenario uses: scope over a disabled instance
  // first, then enable() from the spec.
  TypeParam outer;
  Binds<TypeParam>::enable(outer);
  const typename Binds<TypeParam>::Scope outer_scope(outer);
  {
    TypeParam run;
    const typename Binds<TypeParam>::Scope run_scope(run);
    EXPECT_EQ(TypeParam::active(), nullptr);
    Binds<TypeParam>::enable(run);
    EXPECT_EQ(TypeParam::active(), &run);
  }
  EXPECT_EQ(TypeParam::active(), &outer);
  outer.disable();
}

/// current(): bound by any scope, enabled or not; falls back to the
/// process-global instance when no scope is installed.
template <class T>
class CurrentBinding : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(&T::current(), &Binds<T>::fallback()); }
  void TearDown() override {
    EXPECT_EQ(&T::current(), &Binds<T>::fallback());
  }
};
using CurrentBound = ::testing::Types<obs::MetricsRegistry>;
TYPED_TEST_SUITE(CurrentBinding, CurrentBound, BindsName);

TYPED_TEST(CurrentBinding, NestedScopesRestoreAndFallBackToGlobal) {
  TypeParam outer;
  {
    const typename Binds<TypeParam>::Scope s1(outer);
    EXPECT_EQ(&TypeParam::current(), &outer);
    TypeParam inner;
    {
      const typename Binds<TypeParam>::Scope s2(inner);
      EXPECT_EQ(&TypeParam::current(), &inner);
      std::thread([] {
        EXPECT_EQ(&TypeParam::current(), &Binds<TypeParam>::fallback());
      }).join();
    }
    EXPECT_EQ(&TypeParam::current(), &outer);
  }
}

TYPED_TEST(CurrentBinding, DestroyedWhileScopedFallsBackToGlobal) {
  auto x = std::make_unique<TypeParam>();
  const typename Binds<TypeParam>::Scope scope(*x);
  ASSERT_EQ(&TypeParam::current(), x.get());
  x.reset();
  EXPECT_EQ(&TypeParam::current(), &Binds<TypeParam>::fallback());
}

TEST(Metrics, CounterGaugeFindOrCreateIsStable) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a.b");
  obs::Counter& c2 = reg.counter("a.b");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  c2.inc();
  EXPECT_EQ(c1.value(), 4);

  obs::Gauge& g = reg.gauge("x");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 2.5);

  reg.reset_values();
  EXPECT_EQ(c1.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(&reg.counter("a.b"), &c1);  // registration survives reset
}

TEST(Metrics, SnapshotFlattensHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc(7);
  auto& h = reg.histogram("lat");
  EXPECT_EQ(&h, &reg.histogram("lat"));
  h.add(0.5);
  h.add(5.0);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("c"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.mean"), 2.75);
  EXPECT_DOUBLE_EQ(snap.at("lat.max"), 5.0);
  EXPECT_TRUE(snap.contains("lat.p95"));
  reg.reset_values();
  EXPECT_DOUBLE_EQ(reg.snapshot().at("lat.count"), 0.0);
}

// ---- End-to-end: instrumentation through a real scenario ----

struct RunResult {
  std::vector<obs::TraceEvent> events;
  std::int64_t shim_down_total = 0;
  std::int64_t registry_down_total = 0;
};

RunResult run_traced_transfer() {
  net::reset_packet_ids_for_test();
  net::reset_flow_ids_for_test();
  obs::MetricsRegistry::global().reset_values();
  TracerGuard guard(1u << 18);

  sim::Simulator s;
  auto net = std::make_unique<net::TwoHostNetwork>(
      s, std::make_unique<steer::DChannelPolicy>(),
      std::make_unique<steer::DChannelPolicy>());
  net->add_channel(channel::embb_constant_profile());
  net->add_channel(channel::urllc_profile());
  net->enable_resequencing(milliseconds(40));
  net->finalize();

  RunResult r;
  {
    const auto flows = transport::make_flow_pair();
    transport::TcpSender snd(net->server(), flows,
                             transport::make_cca("cubic"));
    transport::TcpReceiver rcv(net->client(), flows);
    snd.write(500'000);
    s.run_until(seconds(10));

    r.events = guard.tracer.snapshot();
    const auto& st = net->downlink_shim().stats();
    r.shim_down_total = st.packets_per_channel[0] + st.packets_per_channel[1];
  }
  // Modules fold their stats into the registry when they retire, so the
  // network must be torn down before the counters are read.
  net.reset();
  auto& reg = obs::MetricsRegistry::global();
  r.registry_down_total = reg.counter("shim.down.ch0.packets").value() +
                          reg.counter("shim.down.ch1.packets").value();
  return r;
}

/// Every recorded field of an event, for field-by-field comparison.
auto fields(const obs::TraceEvent& e) {
  return std::tuple(e.at, e.packet_id, e.flow_id, e.aux, e.size_bytes,
                    static_cast<int>(e.kind), e.channel, e.direction, e.arg);
}

TEST(EndToEnd, RegistryCountersReconcileWithShimStats) {
  const RunResult r = run_traced_transfer();
  EXPECT_GT(r.shim_down_total, 0);
  EXPECT_EQ(r.shim_down_total, r.registry_down_total);
}

TEST(EndToEnd, SameSeedRunsExportByteIdenticalJsonl) {
  const RunResult a = run_traced_transfer();
  const RunResult b = run_traced_transfer();
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(fields(a.events[i]), fields(b.events[i])) << "event " << i;
  }
  EXPECT_EQ(a.shim_down_total, b.shim_down_total);
}

TEST(EndToEnd, TracedTransferProducesLifecycleEventsAndValidChrome) {
  net::reset_packet_ids_for_test();
  net::reset_flow_ids_for_test();
  obs::MetricsRegistry::global().reset_values();
  TracerGuard guard(1u << 18);

  sim::Simulator s;
  auto net = std::make_unique<net::TwoHostNetwork>(
      s, std::make_unique<steer::DChannelPolicy>(),
      std::make_unique<steer::DChannelPolicy>());
  net->add_channel(channel::embb_constant_profile());
  net->add_channel(channel::urllc_profile());
  net->finalize();
  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(net->server(), flows,
                           transport::make_cca("cubic"));
  transport::TcpReceiver rcv(net->client(), flows);
  snd.write(200'000);
  s.run_until(seconds(5));

  auto& tr = guard.tracer;
  int steers = 0;
  int enqueues = 0;
  int rxs = 0;
  for (const auto& e : tr.snapshot()) {
    if (e.kind == EventKind::kSteer) ++steers;
    if (e.kind == EventKind::kEnqueue) ++enqueues;
    if (e.kind == EventKind::kRx) ++rxs;
  }
  EXPECT_GT(steers, 0);
  EXPECT_GT(enqueues, 0);
  EXPECT_GT(rxs, 0);
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(tr.to_chrome_trace(), &doc));
  // Each packet that crossed a channel becomes one residency ("X") span.
  int spans = 0;
  for (const auto& e : doc.find("traceEvents")->array) {
    spans += e.string_or("ph", "") == "X" ? 1 : 0;
  }
  EXPECT_GT(spans, 0);
}

TEST(EndToEnd, ScenarioUnderScopedTracerNamesChromeTracks) {
  // The topology names the tracks of the tracer active while it is built,
  // as exp::run_scenario's does for hvc_run --trace.
  net::IdScope ids;
  TracerGuard guard(1u << 18);
  core::Scenario sc(core::ScenarioConfig::fig1("dchannel"));
  const auto flows = transport::make_flow_pair();
  transport::TcpSender snd(sc.server(), flows, transport::make_cca("cubic"));
  transport::TcpReceiver rcv(sc.client(), flows);
  snd.write(200'000);
  sc.sim().run_until(seconds(2));

  const std::string chrome = guard.tracer.to_chrome_trace();
  EXPECT_NE(chrome.find("\"name\":\"embb down\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"urllc down\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"urllc up\""), std::string::npos);
  EXPECT_EQ(chrome.find("\"name\":\"ch0 "), std::string::npos);
}

}  // namespace
}  // namespace hvc
