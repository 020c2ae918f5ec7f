// Tests for capacity traces and the synthetic 5G generators.
#include <gtest/gtest.h>

#include <ostream>

#include "trace/gen5g.hpp"
#include "trace/trace.hpp"

namespace hvc::trace {
namespace {

using sim::milliseconds;
using sim::seconds;

TEST(CapacityTrace, ConstantRateSpacing) {
  const auto t = CapacityTrace::constant(sim::mbps(12));  // 1 ms per MTU
  EXPECT_EQ(t.next_opportunity(0), milliseconds(1));
  EXPECT_EQ(t.next_opportunity(milliseconds(1)), milliseconds(2));
  EXPECT_NEAR(t.average_rate_bps(), 12e6, 12e6 * 0.01);
}

TEST(CapacityTrace, LoopsAcrossPeriod) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // Near the end of the first period, the next opportunity wraps.
  const sim::Time late = seconds(1) - 1;
  const sim::Time next = t.next_opportunity(late);
  EXPECT_GE(next, seconds(1));
  EXPECT_LT(next, seconds(1) + milliseconds(2));
  // Far future queries work too.
  const sim::Time far = seconds(100) + milliseconds(500);
  EXPECT_GT(t.next_opportunity(far), far);
}

TEST(CapacityTrace, NextOpportunityStrictlyAfter) {
  const auto t = CapacityTrace::constant(sim::mbps(12));
  const sim::Time opp = t.next_opportunity(0);
  EXPECT_GT(t.next_opportunity(opp), opp);
}

TEST(CapacityTrace, OpportunitiesInCounts) {
  const auto t = CapacityTrace::constant(sim::mbps(12), seconds(1));
  // 12 Mbps / (1500 B * 8) = 1000 opportunities per second.
  EXPECT_EQ(t.opportunities_in(0, seconds(1)), 1000);
  EXPECT_EQ(t.opportunities_in(0, seconds(10)), 10000);
  EXPECT_EQ(t.opportunities_in(seconds(5), seconds(5)), 0);
}

TEST(CapacityTrace, FromOpportunitiesValidates) {
  EXPECT_THROW(
      CapacityTrace::from_opportunities({seconds(2)}, seconds(1)),
      std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_opportunities({}, 0),
               std::invalid_argument);
  EXPECT_NO_THROW(
      CapacityTrace::from_opportunities({0, milliseconds(5)}, seconds(1)));
}

TEST(CapacityTrace, EmptyTraceNeverDelivers) {
  const auto t = CapacityTrace::from_opportunities({}, seconds(1));
  EXPECT_EQ(t.next_opportunity(0), sim::kTimeNever);
  EXPECT_DOUBLE_EQ(t.average_rate_bps(), 0.0);
}

TEST(Mahimahi, ParsesAndRoundTrips) {
  const std::string text = "1\n2\n2\n5\n";
  const auto t = CapacityTrace::parse_mahimahi(text);
  EXPECT_EQ(t.opportunities_per_period(), 4u);
  EXPECT_EQ(t.period(), milliseconds(6));  // last ts + 1 ms
  EXPECT_EQ(t.to_mahimahi(), text);
}

TEST(Mahimahi, RejectsMalformedInput) {
  EXPECT_THROW(CapacityTrace::parse_mahimahi(""), std::invalid_argument);
  EXPECT_THROW(CapacityTrace::parse_mahimahi("5\n3\n"),
               std::invalid_argument);
}

TEST(Mahimahi, SkipsComments) {
  const auto t = CapacityTrace::parse_mahimahi("# header\n1\n2\n");
  EXPECT_EQ(t.opportunities_per_period(), 2u);
}

TEST(MarkovGen, DeterministicInSeed) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 42);
  EXPECT_EQ(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, DifferentSeedsDiffer) {
  const auto a = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 1);
  const auto b = make_5g_trace(FiveGProfile::kLowbandDriving, seconds(10), 2);
  EXPECT_NE(a.opportunities(), b.opportunities());
}

TEST(MarkovGen, ValidatesModel) {
  MarkovRateModel m;
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);
  m.states = {{"a", sim::mbps(1), 0.0, milliseconds(100), 0, {}}};
  EXPECT_THROW(generate_markov_trace(m, seconds(1), 1),
               std::invalid_argument);  // bad transition row
}

struct ProfileCase {
  FiveGProfile profile;
  double min_avg_mbps;
  double max_avg_mbps;
};

// Without this gtest prints a ProfileCase as its raw bytes, uninitialised
// padding included, and the printed value is part of the CTest name.
void PrintTo(const ProfileCase& pc, std::ostream* os) {
  *os << to_string(pc.profile);
}

class FiveGProfileTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(FiveGProfileTest, AverageRateInCalibratedBand) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(60), 7);
  const double avg = sim::to_mbps(
      static_cast<sim::RateBps>(t.average_rate_bps()));
  EXPECT_GE(avg, pc.min_avg_mbps) << to_string(pc.profile);
  EXPECT_LE(avg, pc.max_avg_mbps) << to_string(pc.profile);
}

TEST_P(FiveGProfileTest, TraceCoversRequestedDuration) {
  const auto& pc = GetParam();
  const auto t = make_5g_trace(pc.profile, seconds(30), 3);
  EXPECT_EQ(t.period(), seconds(30));
  EXPECT_GT(t.opportunities_per_period(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, FiveGProfileTest,
    ::testing::Values(
        ProfileCase{FiveGProfile::kLowbandStationary, 35.0, 70.0},
        ProfileCase{FiveGProfile::kLowbandDriving, 12.0, 55.0},
        ProfileCase{FiveGProfile::kMmWaveDriving, 80.0, 600.0}));

TEST(FiveGProfiles, DrivingHasOutages) {
  // The driving profile must contain windows where throughput collapses —
  // that is what produces the paper's latency tails.
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandDriving, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_LT(worst, 2e6);
}

TEST(FiveGProfiles, StationaryHasNoDeepOutages) {
  const auto t =
      make_5g_trace(FiveGProfile::kLowbandStationary, seconds(120), 11);
  const double worst = t.min_windowed_rate_bps(milliseconds(400));
  EXPECT_GT(worst, 5e6);
}

TEST(FiveGProfiles, MmWaveHasMultiSecondBlockages) {
  const auto t = make_5g_trace(FiveGProfile::kMmWaveDriving, seconds(180), 5);
  // Look for at least one ~1.5 s window with nearly zero capacity.
  double worst = t.min_windowed_rate_bps(milliseconds(1500));
  EXPECT_LT(worst, 1e6);
}

TEST(FiveGProfiles, BaseOwdMatchesPaperSetup) {
  EXPECT_EQ(embb_base_owd(FiveGProfile::kLowbandDriving), milliseconds(25));
  EXPECT_EQ(embb_base_owd(FiveGProfile::kMmWaveDriving), milliseconds(15));
}

}  // namespace
}  // namespace hvc::trace
