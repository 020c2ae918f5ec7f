// Tests for the web application model: corpus generation, page loading
// over the emulated network, dependencies, and background flows.
#include <gtest/gtest.h>

#include <string>

#include "app/web/browser.hpp"
#include "app/web/page.hpp"
#include "channel/profile.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "net/node.hpp"
#include "steer/basic_policies.hpp"

namespace hvc::app::web {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(Corpus, GeneratesRequestedPages) {
  const auto corpus = generate_corpus({.pages = 30, .seed = 1});
  EXPECT_EQ(corpus.size(), 30u);
  int landing = 0;
  for (const auto& p : corpus) {
    if (p.name.starts_with("landing")) ++landing;
  }
  EXPECT_EQ(landing, 15);
}

TEST(Corpus, DeterministicInSeed) {
  const auto a = generate_corpus({.pages = 10, .seed = 7});
  const auto b = generate_corpus({.pages = 10, .seed = 7});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_bytes(), b[i].total_bytes());
    EXPECT_EQ(a[i].objects.size(), b[i].objects.size());
  }
  const auto c = generate_corpus({.pages = 10, .seed = 8});
  EXPECT_NE(a[0].total_bytes(), c[0].total_bytes());
}

TEST(Corpus, PagesHaveRealisticShape) {
  const auto corpus = generate_corpus({.pages = 40, .seed = 3});
  sim::Summary objects, kilobytes, origins, depth;
  for (const auto& p : corpus) {
    objects.add(static_cast<double>(p.objects.size()));
    kilobytes.add(static_cast<double>(p.total_bytes()) / 1000.0);
    origins.add(p.origins());
    depth.add(p.depth());
  }
  EXPECT_GT(objects.mean(), 25.0);
  EXPECT_LT(objects.mean(), 120.0);
  EXPECT_GT(kilobytes.mean(), 400.0);
  EXPECT_LT(kilobytes.mean(), 4000.0);
  EXPECT_GE(origins.min(), 1.0);
  EXPECT_GE(depth.mean(), 2.0);  // discovery chains exist
  EXPECT_LE(depth.max(), 30.0);
}

TEST(Corpus, LandingPagesHeavierThanInternal) {
  const auto corpus = generate_corpus({.pages = 60, .seed = 5});
  double landing = 0, internal = 0;
  int nl = 0, ni = 0;
  for (const auto& p : corpus) {
    if (p.name.starts_with("landing")) {
      landing += static_cast<double>(p.objects.size());
      ++nl;
    } else {
      internal += static_cast<double>(p.objects.size());
      ++ni;
    }
  }
  EXPECT_GT(landing / nl, internal / ni);
}

TEST(Corpus, DependencyGraphIsAcyclicTopological) {
  // Object ids are topologically ordered: every dependency points to a
  // smaller id, so the browser can never deadlock.
  const auto corpus = generate_corpus({.pages = 20, .seed = 9});
  for (const auto& page : corpus) {
    for (const auto& o : page.objects) {
      for (const int dep : o.deps) {
        EXPECT_LT(dep, o.id);
        EXPECT_GE(dep, 0);
      }
    }
    // Root has no dependencies.
    EXPECT_TRUE(page.objects[0].deps.empty());
  }
}

struct WebHarness {
  sim::Simulator s;
  std::unique_ptr<net::TwoHostNetwork> net;

  WebHarness() {
    net = std::make_unique<net::TwoHostNetwork>(
        s, std::make_unique<steer::SingleChannelPolicy>(0),
        std::make_unique<steer::SingleChannelPolicy>(0));
    net->add_channel(channel::embb_constant_profile());
    net->add_channel(channel::urllc_profile());
    net->finalize();
  }
};

TEST(PageLoad, LoadsAllObjectsAndReportsPlt) {
  WebHarness h;
  sim::Rng rng(4);
  const auto page = generate_page(PageKind::kInternal, 0, rng);
  sim::Time reported = -1;
  PageLoadSession session(h.net->client(), h.net->server(), page, {},
                          [&](sim::Time plt) { reported = plt; });
  session.start();
  h.s.run_until(seconds(30));
  ASSERT_TRUE(session.finished());
  EXPECT_EQ(session.objects_loaded(),
            static_cast<int>(page.objects.size()));
  EXPECT_EQ(session.plt(), reported);
  // Sanity bounds: more than one RTT, less than 30 s on a clean link.
  EXPECT_GT(session.plt(), milliseconds(100));
  EXPECT_LT(session.plt(), seconds(15));
}

TEST(PageLoad, PltScalesWithRtt) {
  auto run_with_rtt = [](sim::Duration rtt) {
    sim::Simulator s;
    net::TwoHostNetwork net(s,
                            std::make_unique<steer::SingleChannelPolicy>(0),
                            std::make_unique<steer::SingleChannelPolicy>(0));
    net.add_channel(channel::embb_constant_profile(rtt, sim::mbps(60)));
    net.finalize();
    sim::Rng rng(4);
    const auto page = generate_page(PageKind::kInternal, 0, rng);
    PageLoadSession session(net.client(), net.server(), page, {}, nullptr);
    session.start();
    s.run_until(seconds(60));
    return session.finished() ? session.plt() : seconds(999);
  };
  const auto fast = run_with_rtt(milliseconds(20));
  const auto slow = run_with_rtt(milliseconds(200));
  EXPECT_LT(fast, slow);
  EXPECT_GT(slow - fast, milliseconds(300));  // several serialized rounds
}

TEST(PageLoad, ProcessingDelayAddsToPlt) {
  WebHarness h;
  sim::Rng rng(4);
  const auto page = generate_page(PageKind::kInternal, 0, rng);

  BrowserConfig no_compute;
  no_compute.processing_mean = 0;
  PageLoadSession fast(h.net->client(), h.net->server(), page, no_compute,
                       nullptr);
  fast.start();
  h.s.run_until(seconds(30));
  ASSERT_TRUE(fast.finished());

  WebHarness h2;
  BrowserConfig compute;
  compute.processing_mean = milliseconds(30);
  PageLoadSession slow(h2.net->client(), h2.net->server(), page, compute,
                       nullptr);
  slow.start();
  h2.s.run_until(seconds(30));
  ASSERT_TRUE(slow.finished());
  EXPECT_GT(slow.plt(), fast.plt());
}

TEST(PageLoad, ConcurrencyCapRespected) {
  // With a 1-request cap, objects on one origin serialize: PLT grows.
  WebHarness h;
  sim::Rng rng(4);
  const auto page = generate_page(PageKind::kLanding, 0, rng);

  BrowserConfig wide;
  wide.max_concurrent_per_origin = 6;
  PageLoadSession a(h.net->client(), h.net->server(), page, wide, nullptr);
  a.start();
  h.s.run_until(seconds(60));
  ASSERT_TRUE(a.finished());

  WebHarness h2;
  BrowserConfig narrow;
  narrow.max_concurrent_per_origin = 1;
  PageLoadSession b(h2.net->client(), h2.net->server(), page, narrow,
                    nullptr);
  b.start();
  h2.s.run_until(seconds(60));
  ASSERT_TRUE(b.finished());
  EXPECT_GT(b.plt(), a.plt());
}

TEST(BackgroundFlows, UploadAndDownloadCycleContinuously) {
  WebHarness h;
  transport::TcpConfig cfg;
  cfg.annotate_app_info = true;
  BackgroundJsonFlow up(h.net->client(), h.net->server(),
                        BackgroundJsonFlow::Kind::kUpload, 5000, cfg);
  BackgroundJsonFlow down(h.net->client(), h.net->server(),
                          BackgroundJsonFlow::Kind::kDownload, 10000, cfg);
  up.start();
  down.start();
  h.s.run_until(seconds(10));
  // Each cycle costs ~1 RTT (50 ms) plus serialization: expect dozens.
  EXPECT_GT(up.transfers_completed(), 50);
  EXPECT_GT(down.transfers_completed(), 50);
  // Stopping halts the cycle.
  const auto at_stop = up.transfers_completed();
  up.stop();
  h.s.run_until(seconds(12));
  EXPECT_LE(up.transfers_completed(), at_stop + 1);
}

TEST(PageLoad, TransportTotalsAccumulate) {
  WebHarness h;
  sim::Rng rng(4);
  const auto page = generate_page(PageKind::kInternal, 1, rng);
  PageLoadSession session(h.net->client(), h.net->server(), page, {},
                          nullptr);
  session.start();
  h.s.run_until(seconds(30));
  ASSERT_TRUE(session.finished());
  const auto tt = session.transport_totals();
  // At minimum one packet per object each way plus responses.
  EXPECT_GT(tt.packets_sent,
            static_cast<std::int64_t>(2 * page.objects.size()));
  EXPECT_EQ(tt.rto_count, 0);  // clean network
}

// A load that hits per_load_timeout destroys its session while the
// simulator still holds callbacks into it: a SYN-ACK handler on the
// client node (the handshake never completed) and object-processing
// events. Over a starved eMBB both happen; the run must finish cleanly
// under ASan (the sanitize preset runs this suite) and count the
// timeouts.
TEST(PageLoad, TimedOutLoadsLeaveNoCallbacksBehind) {
  for (const char* variant :
       {R"("channels": [{"type": "embb", "rate_mbps": 0.02}, {"type": "urllc"}],
           "policy": "embb-only", "web": {"pages": 3, "loads_per_page": 2,
           "per_load_timeout_s": 1})",
        R"("channels": [{"type": "embb", "rate_mbps": 0.01}, {"type": "urllc"}],
           "policy": "dchannel", "web": {"pages": 3, "loads_per_page": 2,
           "per_load_timeout_s": 0.5})"}) {
    const auto spec = exp::ScenarioSpec::from_json_text(
        std::string(R"({"name": "web_timeout", "workload": "web",
                        "seed": 3, "duration_s": 30, )") +
        variant + "}");
    const exp::RunResult r = exp::run_scenario(spec);
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_GT(r.metrics.at("web.timeouts"), 0.0) << variant;
  }
}

}  // namespace
}  // namespace hvc::app::web
