// Tests for the observability layer: packet tracer ring semantics and
// exports, the thread-local binding protocol every per-run recorder shares,
// metrics registry instruments, run manifests, delay decomposition, and
// trace determinism across identical runs.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "channel/profile.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "sim/logger.hpp"
#include "sim/rng.hpp"
#include "steer/dchannel.hpp"
#include "transport/tcp.hpp"

namespace hvc {
namespace {

using obs::EventKind;
using obs::PacketTracer;
using sim::milliseconds;
using sim::seconds;

/// RAII guard: every test that enables the global tracer must leave it
/// disabled for the rest of the binary.
struct TracerGuard {
  explicit TracerGuard(std::size_t capacity = 1024) {
    PacketTracer::instance().enable(capacity);
  }
  ~TracerGuard() { PacketTracer::instance().disable(); }
};

TEST(Tracer, DisabledMeansNullActivePointer) {
  ASSERT_EQ(PacketTracer::active(), nullptr);
  {
    TracerGuard guard;
    EXPECT_NE(PacketTracer::active(), nullptr);
    EXPECT_TRUE(PacketTracer::instance().enabled());
  }
  EXPECT_EQ(PacketTracer::active(), nullptr);
  EXPECT_EQ(PacketTracer::instance().capacity(), 0u);
}

TEST(Tracer, DisablingAnotherTracerKeepsScopedRunRecording) {
  // Regression: disable() used to clear the thread's active() binding
  // unconditionally. A run executing inside a ScopedPacketTracer (the
  // sweep engine wraps every run in one) would silently stop recording
  // when anything disabled the global instance on the same thread —
  // e.g. a tool disabling the global tracer, or an earlier run's
  // teardown.
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

  PacketTracer::instance().disable();
  ASSERT_EQ(PacketTracer::active(), &run_tracer)
      << "disabling a different tracer must not unbind the scoped one";

  if (auto* tr = PacketTracer::active()) {
    tr->record(EventKind::kEnqueue, 100, 1, 1, 0, obs::kDirDown, 1500);
  }
  EXPECT_EQ(run_tracer.size(), 1u);

  // The export must be byte-identical to the undisturbed control run.
  EXPECT_EQ(run_tracer.to_jsonl(), undisturbed.to_jsonl());

  // Disabling the tracer that *is* bound still clears the binding.
  run_tracer.disable();
  EXPECT_EQ(PacketTracer::active(), nullptr);
}

TEST(Tracer, EventsComeBackInRecordingOrder) {
  TracerGuard guard(64);
  auto& tr = PacketTracer::instance();
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
  auto& tr = PacketTracer::instance();
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

TEST(Tracer, ClearDropsEventsButStaysEnabled) {
  TracerGuard guard(8);
  auto& tr = PacketTracer::instance();
  tr.record(EventKind::kRx, 5, 1, 1, 0, obs::kDirDown, 100);
  tr.clear();
  EXPECT_EQ(tr.total_recorded(), 0u);
  EXPECT_EQ(tr.snapshot().size(), 0u);
  EXPECT_TRUE(tr.enabled());
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

TEST(Tracer, JsonlLinesAreEachValidJsonObjects) {
  TracerGuard guard(64);
  auto& tr = PacketTracer::instance();
  tr.set_channel_name(0, "eMBB");
  tr.record(EventKind::kEnqueue, 1000, 1, 2, 0, obs::kDirDown, 1500);
  tr.record(EventKind::kDrop, 2000, 1, 2, 0, obs::kDirDown, 1500,
            obs::kDropQueueFull);
  tr.record(EventKind::kSteer, 3000, 4, 2, 1, obs::kDirUp, 80, 1);
  tr.record(EventKind::kRetx, 4000, 5, 2, obs::kNoChannel, obs::kNoDirection,
            1000, 2, sim::milliseconds(12));
  const std::string jsonl = tr.to_jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // every line newline-terminated
    const std::string line = jsonl.substr(start, end - start);
    obs::json::Value v;
    ASSERT_TRUE(obs::json::parse(line, &v)) << line;
    EXPECT_TRUE(v.is_object());
    EXPECT_NE(v.find("t_us"), nullptr);
    EXPECT_NE(v.find("ev"), nullptr);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(jsonl.find("\"detail\":\"queue_full\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"duplicates\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"aux_us\":12000"), std::string::npos);
}

TEST(Tracer, ChromeTraceIsWellFormedJsonWithSpans) {
  TracerGuard guard(64);
  auto& tr = PacketTracer::instance();
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
/// and for CurrentSlot classes the process-global fallback.
template <class T>
struct Binds;

template <>
struct Binds<PacketTracer> {
  static constexpr const char* kName = "PacketTracer";
  using Scope = obs::ScopedPacketTracer;
  static void enable(PacketTracer& t) { t.enable(64); }
  static PacketTracer& fallback() { return PacketTracer::instance(); }
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
using CurrentBound = ::testing::Types<PacketTracer, obs::MetricsRegistry>;
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

TEST(Metrics, HistogramBucketEdgesAreHalfOpen) {
  obs::Histogram h({1.0, 2.0, 5.0});
  // counts: [<1), [1,2), [2,5), [5,inf)
  h.add(0.5);
  h.add(0.999);
  h.add(1.0);   // exactly an edge lands in the bucket it opens
  h.add(1.999);
  h.add(2.0);
  h.add(4.999);
  h.add(5.0);   // overflow
  h.add(100.0);
  const auto& counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h.count(), 8);
  EXPECT_DOUBLE_EQ(h.summary().max(), 100.0);
}

TEST(Metrics, SnapshotFlattensHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("c").inc(7);
  auto& h = reg.histogram("lat", {1.0, 10.0});
  h.add(0.5);
  h.add(5.0);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("c"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("lat.mean"), 2.75);
  EXPECT_TRUE(snap.contains("lat.p95"));
  EXPECT_TRUE(obs::json::valid(reg.to_json()));
}

TEST(DelayDecomposition, SplitsQueueingPropagationAndRetxWait) {
  TracerGuard guard(64);
  auto& tr = PacketTracer::instance();
  tr.set_channel_name(0, "eMBB");
  // Packet 1, channel 0 down: 1 ms queueing, 5 ms propagation.
  tr.record(EventKind::kEnqueue, 0, 1, 1, 0, obs::kDirDown, 1500);
  tr.record(EventKind::kDequeue, milliseconds(1), 1, 1, 0, obs::kDirDown,
            1500);
  tr.record(EventKind::kTx, milliseconds(1), 1, 1, 0, obs::kDirDown, 1500);
  tr.record(EventKind::kRx, milliseconds(6), 1, 1, 0, obs::kDirDown, 1500);
  // A retransmission that waited 40 ms.
  tr.record(EventKind::kRetx, milliseconds(50), 2, 1, obs::kNoChannel,
            obs::kNoDirection, 1000, 2, milliseconds(40));
  const auto d = obs::decompose_delays(tr);
  ASSERT_GE(d.channels.size(), 1u);
  EXPECT_EQ(d.channels[0].name, "eMBB");
  EXPECT_EQ(d.channels[0].packets, 1);
  EXPECT_DOUBLE_EQ(d.channels[0].queueing_ms.mean(), 1.0);
  EXPECT_DOUBLE_EQ(d.channels[0].propagation_ms.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.channels[0].total_owd_ms.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.retx_wait_ms.mean(), 40.0);
}

TEST(Logger, ParseLogLevelAcceptsNamesAndNumbers) {
  using sim::LogLevel;
  EXPECT_EQ(sim::parse_log_level("debug", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(sim::parse_log_level("WARN", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(sim::parse_log_level("3", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(sim::parse_log_level("bogus", LogLevel::kError),
            LogLevel::kError);
  EXPECT_EQ(sim::parse_log_level("", LogLevel::kTrace), LogLevel::kTrace);
}

// ---- End-to-end: instrumentation through a real scenario ----

struct RunResult {
  std::string jsonl;
  std::int64_t shim_down_total = 0;
  std::int64_t registry_down_total = 0;
};

RunResult run_traced_transfer() {
  net::reset_packet_ids_for_test();
  net::reset_flow_ids_for_test();
  obs::MetricsRegistry::global().reset_values();
  PacketTracer::instance().enable(1u << 18);

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

    r.jsonl = PacketTracer::instance().to_jsonl();
    const auto& st = net->downlink_shim().stats();
    r.shim_down_total = st.packets_per_channel[0] + st.packets_per_channel[1];
  }
  // Modules fold their stats into the registry when they retire, so the
  // network must be torn down before the counters are read.
  net.reset();
  auto& reg = obs::MetricsRegistry::global();
  r.registry_down_total = reg.counter("shim.down.ch0.packets").value() +
                          reg.counter("shim.down.ch1.packets").value();
  PacketTracer::instance().disable();
  return r;
}

TEST(EndToEnd, RegistryCountersReconcileWithShimStats) {
  const RunResult r = run_traced_transfer();
  EXPECT_GT(r.shim_down_total, 0);
  EXPECT_EQ(r.shim_down_total, r.registry_down_total);
}

TEST(EndToEnd, SameSeedRunsExportByteIdenticalJsonl) {
  const RunResult a = run_traced_transfer();
  const RunResult b = run_traced_transfer();
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);  // byte-identical trace
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

  auto& tr = PacketTracer::instance();
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
  EXPECT_TRUE(obs::json::valid(tr.to_chrome_trace()));

  const auto d = obs::decompose_delays(tr);
  ASSERT_GE(d.channels.size(), 1u);
  std::int64_t decomposed = 0;
  for (const auto& ch : d.channels) decomposed += ch.packets;
  EXPECT_GT(decomposed, 0);
}

}  // namespace
}  // namespace hvc
