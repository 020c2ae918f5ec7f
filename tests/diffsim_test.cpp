// Differential oracle for the sim-core hot-path replacements.
//
// The calendar queue (sim/event_queue.hpp) and the packet pool
// (net/pool.hpp) are performance substitutions that must be behaviorally
// invisible: HVC_REFERENCE_QUEUE selects the original binary heap,
// HVC_PACKET_POOL=0 the plain tracking allocator, and this suite proves
// that every combination of those switches produces byte-identical
// output.
//
//  * ScenarioDiffTest runs every scenario file under scenarios/ — grid
//    sweeps and single-run specs alike — once per configuration and
//    byte-compares the aggregated results.jsonl plus every artifact the
//    runs wrote (telemetry, steering audit, spans).
//  * FaultFuzzDiffTest does the same for 50 seeded-random fault plans
//    (the FaultFuzz corpus shape from property_test.cpp), comparing the
//    full steering audit log and the delivered packet-id sequence.
//
// A failure here means the optimized structures changed simulation
// behavior, not just speed — the one thing they must never do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "exp/results.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "net/node.hpp"
#include "net/pool.hpp"
#include "obs/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace hvc {
namespace {

namespace fs = std::filesystem;

struct SimConfig {
  const char* tag;
  bool reference_queue;
  bool packet_pool;
};

// The full switch matrix: the production default first (it is the
// baseline the others are compared against), then each switch flipped
// alone, then both.
constexpr SimConfig kConfigs[] = {
    {"calendar-pool", false, true},
    {"heap-pool", true, true},
    {"calendar-heapalloc", false, false},
    {"heap-heapalloc", true, false},
};

// RAII: force one (queue, pool) configuration for the scope, restoring
// the environment-driven defaults on exit. Both overrides are sampled
// at Simulator construction / allocation time, so flipping them between
// runs is exactly the supported use.
class ScopedSimConfig {
 public:
  explicit ScopedSimConfig(const SimConfig& cfg) {
    sim::set_reference_queue_for_test(cfg.reference_queue);
    net::set_packet_pool_for_test(cfg.packet_pool);
  }
  ~ScopedSimConfig() {
    sim::clear_reference_queue_override_for_test();
    net::clear_packet_pool_override_for_test();
  }
  ScopedSimConfig(const ScopedSimConfig&) = delete;
  ScopedSimConfig& operator=(const ScopedSimConfig&) = delete;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Byte equality with a failure message that points at the first
/// divergent offset instead of dumping both files.
void expect_bytes_equal(const std::string& label, const std::string& want,
                        const std::string& got) {
  if (want == got) return;
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  const auto excerpt = [](const std::string& s, std::size_t at) {
    const std::size_t from = at < 60 ? 0 : at - 60;
    return s.substr(from, 120);
  };
  ADD_FAILURE() << label << ": diverges at byte " << i << " (sizes "
                << want.size() << " vs " << got.size() << ")\n  baseline: ..."
                << excerpt(want, i) << "...\n  got:      ..."
                << excerpt(got, i) << "...";
}

/// Every file the run wrote under `dir`, keyed by file name. Artifact
/// names embed only the run index (never the config), so keys line up
/// across config directories.
std::map<std::string, std::string> collect_artifacts(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& ent : fs::directory_iterator(dir)) {
    files[ent.path().filename().string()] = read_file(ent.path());
  }
  return files;
}

struct ScenarioOutput {
  std::string results_jsonl;
  std::map<std::string, std::string> artifacts;
};

/// Run one scenario file (sweep or single spec) under `cfg`, writing
/// artifacts into `out_dir`, and capture everything comparable.
ScenarioOutput run_scenario_file(const std::string& path,
                                 const SimConfig& cfg,
                                 const fs::path& out_dir) {
  ScopedSimConfig guard(cfg);
  fs::create_directories(out_dir);
  const std::string prefix = (out_dir / "run").string();

  std::vector<exp::RunResult> results;
  bool is_sweep = true;
  exp::SweepSpec sweep;
  try {
    sweep = exp::SweepSpec::from_file(path);
  } catch (const exp::SpecError&) {
    is_sweep = false;  // plain single-scenario spec, not a sweep grid
  }
  if (is_sweep) {
    results = exp::run_sweep(sweep, /*jobs=*/4, nullptr, prefix);
  } else {
    exp::RunOptions opts;
    opts.out_prefix = prefix;
    results.push_back(
        exp::run_scenario(exp::ScenarioSpec::from_file(path), opts));
  }
  for (const auto& r : results) {
    EXPECT_EQ(r.error, "")
        << path << " run " << r.index << " failed under " << cfg.tag;
  }
  ScenarioOutput out;
  out.results_jsonl = exp::to_jsonl(results);
  out.artifacts = collect_artifacts(out_dir);
  return out;
}

class ScenarioDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioDiffTest, ByteIdenticalAcrossQueueAndPoolConfigs) {
  const std::string path =
      std::string(HVC_SCENARIO_DIR) + "/" + GetParam();
  const fs::path root =
      fs::path(::testing::TempDir()) / ("diffsim_" + GetParam());
  fs::remove_all(root);

  ScenarioOutput baseline;
  for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
    const SimConfig& cfg = kConfigs[i];
    ScenarioOutput got = run_scenario_file(path, cfg, root / cfg.tag);
    if (i == 0) {
      EXPECT_FALSE(got.results_jsonl.empty()) << path;
      baseline = std::move(got);
      continue;
    }
    expect_bytes_equal(GetParam() + " results.jsonl under " + cfg.tag,
                       baseline.results_jsonl, got.results_jsonl);
    // Same artifact files, same bytes.
    auto names = [](const std::map<std::string, std::string>& m) {
      std::vector<std::string> out;
      for (const auto& [k, v] : m) out.push_back(k);
      return out;
    };
    ASSERT_EQ(names(got.artifacts), names(baseline.artifacts))
        << GetParam() << ": artifact set differs under " << cfg.tag;
    for (const auto& [name, bytes] : baseline.artifacts) {
      expect_bytes_equal(GetParam() + " " + name + " under " + cfg.tag,
                         bytes, got.artifacts.at(name));
    }
  }
  fs::remove_all(root);
}

std::vector<std::string> scenario_files() {
  std::vector<std::string> names;
  for (const auto& ent : fs::directory_iterator(HVC_SCENARIO_DIR)) {
    if (ent.path().extension() == ".json") {
      names.push_back(ent.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ScenarioDiffTest, ::testing::ValuesIn(scenario_files()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return name;
    });

// ---- Fuzzed fault-plan corpus -------------------------------------------
//
// Scenario files exercise the steady-state paths; randomized fault plans
// (outages, rate cliffs, GE bursts, delay spikes, flaps) drive the queue
// through cancellations, zero-delay re-arms, and bursty same-instant
// schedules. Every seed's full steering audit log and delivered packet
// sequence must be identical under all four configurations.

struct FuzzOutput {
  std::string audit_jsonl;
  std::vector<std::uint64_t> delivered;
};

FuzzOutput run_fuzzed_plan(std::uint64_t seed, const SimConfig& cfg) {
  ScopedSimConfig guard(cfg);
  net::IdScope ids;  // packet/flow ids appear in the audit log: restart at 1
  obs::SteeringAuditLog audit;
  audit.enable();
  FuzzOutput out;
  {
    static constexpr const char* kPolicies[] = {
        "min-delay", "dchannel", "round-robin", "weighted", "redundant"};
    const char* policy = kPolicies[seed % std::size(kPolicies)];
    sim::Simulator s;
    net::TwoHostNetwork net(s, core::make_policy(policy),
                            core::make_policy(policy));
    net.add_channel(channel::embb_constant_profile());
    net.add_channel(channel::urllc_profile());
    net.finalize();
    const auto plan = fault::FaultPlan::fuzzed(seed, 2, sim::seconds(3));
    fault::FaultInjector inj(s, net.channels(), plan);

    const auto flow = net::next_flow_id();
    const net::FlowHandle sink =
        net.server().register_flow(flow, [&](net::PacketPtr p) {
          out.delivered.push_back(p->id);
        });
    sim::Rng rng(seed ^ 0xf00d);
    constexpr int kPackets = 1200;
    for (int i = 0; i < kPackets; ++i) {
      s.at(static_cast<sim::Time>(rng.uniform(0, 3e9)), [&] {
        auto p = net::make_packet();
        p->flow = flow;
        p->type = net::PacketType::kData;
        p->size_bytes = rng.uniform_int(41, 1500);
        net.client().send(std::move(p));
      });
    }
    s.run();
  }
  audit.disable();
  out.audit_jsonl = audit.to_jsonl();
  return out;
}

class FaultFuzzDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzzDiffTest, AuditAndDeliveryIdenticalAcrossConfigs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FuzzOutput baseline = run_fuzzed_plan(seed, kConfigs[0]);
  EXPECT_FALSE(baseline.audit_jsonl.empty()) << "seed " << seed;
  EXPECT_FALSE(baseline.delivered.empty()) << "seed " << seed;
  for (std::size_t i = 1; i < std::size(kConfigs); ++i) {
    const FuzzOutput got = run_fuzzed_plan(seed, kConfigs[i]);
    expect_bytes_equal("audit log, seed " + std::to_string(seed) +
                           " under " + kConfigs[i].tag,
                       baseline.audit_jsonl, got.audit_jsonl);
    EXPECT_EQ(got.delivered, baseline.delivered)
        << "delivered packet sequence, seed " << seed << " under "
        << kConfigs[i].tag;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzDiffTest, ::testing::Range(0, 50));

}  // namespace
}  // namespace hvc
