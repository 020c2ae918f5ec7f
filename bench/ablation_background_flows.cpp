// Ablation E (§3.3): background-flow interference sweep. The paper: "as
// few as two background flows ... can cause as much as a 138 ms increase
// in PLT". We sweep the number of background JSON flow pairs and measure
// mean PLT for plain DChannel vs the flow-priority variant.
#include <cstdio>

#include "app/web/browser.hpp"
#include "bench/bench_util.hpp"
#include "core/scenario.hpp"
#include "steer/dchannel.hpp"
#include "trace/gen5g.hpp"

int main() {
  using namespace hvc;
  bench::print_header(
      "Ablation E: PLT vs number of background flow pairs (Lowband "
      "stationary)");
  bench::print_row(
      {"bg pairs", "dchannel PLT", "delta", "dchannel+prio", "delta"});

  const auto corpus = app::web::generate_corpus({.pages = 20, .seed = 2023});
  double base_plain = 0.0;
  double base_prio = 0.0;

  for (int pairs = 0; pairs <= 4; ++pairs) {
    double means[2];
    for (int variant = 0; variant < 2; ++variant) {
      auto cfg = core::ScenarioConfig::traced(
          trace::FiveGProfile::kLowbandStationary, "dchannel",
          sim::seconds(120), 42);
      const bool prio = variant == 1;
      cfg.up_factory = cfg.down_factory = [prio] {
        auto tuned = steer::DChannelConfig::web_tuned();
        tuned.use_flow_priority = prio;
        return std::make_unique<steer::DChannelPolicy>(tuned);
      };
      // run_web supports one bg pair; extra pairs are added manually via
      // a custom harness here.
      core::Scenario sc(cfg);
      transport::TcpConfig bg_cfg;
      bg_cfg.annotate_app_info = true;
      bg_cfg.flow_priority = 1;
      std::vector<std::unique_ptr<app::web::BackgroundJsonFlow>> flows;
      for (int i = 0; i < pairs; ++i) {
        flows.push_back(std::make_unique<app::web::BackgroundJsonFlow>(
            sc.client(), sc.server(),
            app::web::BackgroundJsonFlow::Kind::kUpload, 5000, bg_cfg));
        flows.push_back(std::make_unique<app::web::BackgroundJsonFlow>(
            sc.client(), sc.server(),
            app::web::BackgroundJsonFlow::Kind::kDownload, 10000, bg_cfg));
      }
      for (auto& f : flows) f->start();

      sim::Summary plt;
      app::web::BrowserConfig browser;
      for (const auto& page : corpus) {
        for (int load = 0; load < 4; ++load) {
          auto session = std::make_unique<app::web::PageLoadSession>(
              sc.client(), sc.server(), page, browser, nullptr);
          session->start();
          const sim::Time deadline = sc.sim().now() + sim::seconds(60);
          while (!session->finished() && sc.sim().now() < deadline) {
            sc.sim().run_until(std::min(
                deadline, sc.sim().now() + sim::milliseconds(20)));
          }
          plt.add(session->finished() ? sim::to_millis(session->plt())
                                      : 60000.0);
          sc.sim().run_for(sim::milliseconds(250));
        }
      }
      means[variant] = plt.mean();
    }
    if (pairs == 0) {
      base_plain = means[0];
      base_prio = means[1];
    }
    bench::print_row({std::to_string(pairs), bench::fmt(means[0]),
                      "+" + bench::fmt(means[0] - base_plain),
                      bench::fmt(means[1]),
                      "+" + bench::fmt(means[1] - base_prio)});
  }
  std::printf(
      "\nShape check (paper): background flows inflate PLT for the\n"
      "application-agnostic policy; flow priorities keep the damage flat.\n");
  return 0;
}
