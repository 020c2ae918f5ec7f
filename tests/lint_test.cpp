// Tests for the determinism & simulation-safety static-analysis pass
// (src/lint). Golden fixture files under tests/lint_fixtures/ seed one
// violation per rule; further cases cover the suppression grammar,
// severities, JSON and SARIF output, and — the point of the whole
// exercise — that the real source tree lints clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "obs/json.hpp"

namespace hvc {
namespace {

using lint::Finding;
using lint::Options;
using lint::Severity;

std::string fixture(const std::string& name) {
  return std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::vector<Finding> of_rule(const std::vector<Finding>& findings,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintRules, R1WallclockFiresOnceAtSeededLine) {
  const auto all = lint::lint_file(fixture("r1_wallclock.cpp"));
  const auto hits = of_rule(all, "wallclock");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(all.size(), hits.size()) << "no other rule may fire";
}

TEST(LintRules, R2UnorderedContainerFiresOnDeclarationNotInclude) {
  const auto all = lint::lint_file(fixture("r2_unordered.cpp"));
  const auto hits = of_rule(all, "unordered-container");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 9);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, R3SteerMissingReasonFiresOnBareExitPathOnly) {
  const auto all = lint::lint_file(fixture("r3_steer.cpp"));
  const auto hits = of_rule(all, "steer-missing-reason");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 18);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintRules, R4RawNewDeleteFiresButDeletedFunctionsDoNot) {
  const auto all = lint::lint_file(fixture("r4_new_delete.cpp"));
  const auto hits = of_rule(all, "raw-new-delete");
  ASSERT_EQ(hits.size(), 2u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[1].line, 9);
}

// The r10_* fixtures seeded the retired cross-TU unordered-taint rule.
// Every taint path there starts at an unordered container declaration,
// and R2 flags exactly that line, so each seed is still caught.
TEST(LintRules, R2FiresAtEveryUnorderedTaintSeedsContainer) {
  const std::pair<const char*, int> seeds[] = {
      {"r10_direct.cpp", 6},
      {"r10_via_assign.cpp", 6},
      {"r10_via_callarg.cpp", 10},
      {"r10_via_return.cpp", 6},
  };
  for (const auto& [name, line] : seeds) {
    const auto all = lint::lint_file(fixture(name));
    const auto hits = of_rule(all, "unordered-container");
    ASSERT_EQ(hits.size(), 1u) << name << "\n" << lint::to_text(all);
    EXPECT_EQ(hits[0].line, line) << name;
    EXPECT_EQ(all.size(), hits.size()) << name << ": no other rule may fire";
  }
  const auto ordered = lint::lint_file(fixture("r10_ordered_clean.cpp"));
  EXPECT_TRUE(ordered.empty()) << lint::to_text(ordered);
}

// r11_new.cpp seeded the retired hot-path allocation rule with a raw new
// inside an HVC_PROF_SCOPE function; R4 bans raw new everywhere.
TEST(LintRules, R4FiresOnRawNewInProfiledFunction) {
  const auto all = lint::lint_file(fixture("r11_new.cpp"));
  const auto hits = of_rule(all, "raw-new-delete");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_EQ(all.size(), hits.size()) << "no other rule may fire";
}

TEST(LintRules, R5FloatEqualityFiresOnExactCompareOnly) {
  const auto all = lint::lint_file(fixture("r5_float_eq.cpp"));
  const auto hits = of_rule(all, "float-equality");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 8);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
}

TEST(LintRules, R6HeaderSelfSufficiencyNeedsCompileCheck) {
  // Without the compile check the header passes (nothing else wrong).
  EXPECT_TRUE(lint::lint_file(fixture("r6_header.hpp")).empty());

  if (std::system("c++ --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no c++ compiler on PATH";
  }
  Options opts;
  opts.compile_check = true;
  const auto all = lint::lint_file(fixture("r6_header.hpp"), opts);
  const auto hits = of_rule(all, "header-not-self-sufficient");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].severity, Severity::kError);
}

TEST(LintRules, R7ClockIslandFilesSkipWallclockEntirely) {
  const std::string src =
      "#include <ctime>\n"
      "long t() { timespec ts{}; clock_gettime(0, &ts); return ts.tv_sec; }\n";
  // Outside the island the same source is an R1 error...
  EXPECT_FALSE(lint::lint_source("src/sim/x.cpp", src).empty());
  // ...inside it (prof implementation, bench harness) it is legal.
  EXPECT_TRUE(lint::lint_source("src/obs/prof.cpp", src).empty());
  EXPECT_TRUE(lint::lint_source("src/obs/prof.hpp", src).empty());
  EXPECT_TRUE(lint::lint_source("bench/bench_util.hpp", src).empty());
  EXPECT_TRUE(
      lint::lint_source("/abs/repo/bench/hotpath/harness.cpp", src).empty());
}

TEST(LintRules, R7AllowWallclockOutsideIslandIsAnError) {
  const std::string src =
      "// hvc-lint: allow(wallclock): stderr-only progress display that\n"
      "// never reaches a determinism-checked artifact.\n"
      "int x;\n";
  const auto all = lint::lint_source("tools/hvc_sweep.cpp", src);
  const auto hits = of_rule(all, "clock-island");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[0].severity, Severity::kError);

  // allow-file(wallclock) is equally banned outside the island.
  const std::string file_scope =
      "// hvc-lint: allow-file(wallclock): whole-file waiver attempt\n"
      "// outside the island, must not stand.\n"
      "int y;\n";
  EXPECT_EQ(
      of_rule(lint::lint_source("src/exp/runner.cpp", file_scope),
              "clock-island")
          .size(),
      1u);

  // Inside the island the (redundant) allow is tolerated, not an error.
  EXPECT_TRUE(lint::lint_source("bench/legacy.cpp", src).empty());
}

TEST(LintRules, R7CannotBeSuppressedByItsOwnAllow) {
  // clock-island findings ride the unsuppressible directive channel: an
  // allow(clock-island) wrapper around an allow(wallclock) changes
  // nothing.
  const std::string src =
      "// hvc-lint: allow(clock-island): trying to shield the wallclock\n"
      "// allow below from R7; this must not work.\n"
      "// hvc-lint: allow(wallclock): stderr-only progress display that\n"
      "// never reaches any determinism-checked artifact.\n"
      "int x;\n";
  const auto all = lint::lint_source("src/sim/y.cpp", src);
  EXPECT_EQ(of_rule(all, "clock-island").size(), 1u) << lint::to_text(all);
}

TEST(LintRules, R8StdHashFiresOnQualifiedUseOnly) {
  const auto all = lint::lint_file(fixture("r8_std_hash.cpp"));
  const auto hits = of_rule(all, "std-hash");
  ASSERT_EQ(hits.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(hits[0].line, 11);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(all.size(), hits.size()) << "no other rule may fire";
}

TEST(LintRules, R8ToleratesWhitespaceAndIsSuppressible) {
  // `std :: hash` is still std::hash.
  const std::string spaced =
      "#include <functional>\n"
      "unsigned long f() { return std :: hash<int>{}(1); }\n";
  EXPECT_EQ(of_rule(lint::lint_source("x.cpp", spaced), "std-hash").size(),
            1u);

  // A justified allow works like for any word-scanned rule.
  const std::string allowed =
      "// hvc-lint: allow(std-hash): interop shim hashing host-local map\n"
      "// keys that never reach an exported artifact.\n"
      "unsigned long g() { return std::hash<int>{}(1); }\n";
  EXPECT_TRUE(lint::lint_source("x.cpp", allowed).empty());
}

TEST(LintSuppression, JustifiedAllowsSilenceBothForms) {
  const auto all = lint::lint_file(fixture("suppressed.cpp"));
  EXPECT_TRUE(all.empty()) << lint::to_text(all);
}

TEST(LintSuppression, UnjustifiedAndUnknownAllowsAreFindings) {
  const auto all = lint::lint_file(fixture("bad_allow.cpp"));
  const auto missing = of_rule(all, "allow-needs-justification");
  ASSERT_EQ(missing.size(), 1u) << lint::to_text(all);
  EXPECT_EQ(missing[0].line, 6);
  EXPECT_EQ(missing[0].severity, Severity::kError);

  const auto unknown = of_rule(all, "allow-unknown-rule");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].line, 9);

  // A broken directive must not silence the violation under it.
  EXPECT_EQ(of_rule(all, "unordered-container").size(), 2u);
}

TEST(LintSuppression, AllowFileSilencesWholeFile) {
  const std::string src =
      "// hvc-lint: allow-file(float-equality): fixture-wide waiver for\n"
      "// this synthetic test input.\n"
      "bool a(double x) { return x == 1.0; }\n"
      "bool b(double x) { return x != 2.5; }\n";
  EXPECT_TRUE(lint::lint_source("mem.cpp", src).empty());
}

TEST(LintOutput, TextFormatIsFileLineSeverityRule) {
  const auto all = lint::lint_file(fixture("r5_float_eq.cpp"));
  ASSERT_EQ(all.size(), 1u);
  const std::string text = lint::to_text(all);
  EXPECT_NE(text.find(":8: warning: [float-equality]"), std::string::npos)
      << text;
}

TEST(LintOutput, JsonIsValidAndCountsSeverities) {
  std::vector<Finding> findings = {
      {"a.cpp", 1, "wallclock", Severity::kError, "msg \"quoted\""},
      {"b.cpp", 2, "float-equality", Severity::kWarning, "msg"},
      {"", 0, "compile-check-skipped", Severity::kNote, "msg"},
  };
  const std::string json = lint::to_json(findings);
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(json, &v)) << json;
  EXPECT_EQ(v.number_or("errors", -1), 1);
  EXPECT_EQ(v.number_or("warnings", -1), 1);
  EXPECT_EQ(v.number_or("notes", -1), 1);
  ASSERT_TRUE(v.find("findings") != nullptr);
  EXPECT_EQ(v.find("findings")->array.size(), 3u);
}

TEST(LintOutput, HasFailureIgnoresNotes) {
  std::vector<Finding> notes = {
      {"", 0, "compile-check-skipped", Severity::kNote, "msg"}};
  EXPECT_FALSE(lint::has_failure(notes));
  notes.push_back({"a.cpp", 1, "wallclock", Severity::kError, "msg"});
  EXPECT_TRUE(lint::has_failure(notes));
}

TEST(LintOutput, RuleTableKnowsEveryRule) {
  for (const char* name :
       {"wallclock", "unordered-container", "steer-missing-reason",
        "raw-new-delete", "float-equality", "header-not-self-sufficient",
        "clock-island", "std-hash"}) {
    EXPECT_TRUE(lint::known_rule(name)) << name;
  }
  EXPECT_FALSE(lint::known_rule("no-such-rule"));
  // Retired rules: an allow() naming one is an unknown-rule finding.
  for (const char* name :
       {"worker-shared-state", "unordered-taint", "hotpath-alloc"}) {
    EXPECT_FALSE(lint::known_rule(name)) << name;
  }
}

TEST(LintIndex, ScrubStripsCommentsButKeepsPositions) {
  const std::string src = "int a; // trailing\n/* b */ int c;\n";
  const lint::Scrubbed sc = lint::scrub(src);
  EXPECT_EQ(sc.code.size(), src.size()) << "positions must be preserved";
  EXPECT_EQ(sc.code.find("trailing"), std::string::npos);
  EXPECT_NE(sc.code.find("int c;"), std::string::npos);
  EXPECT_NE(sc.comments.find("trailing"), std::string::npos);
}

TEST(LintSarif, OutputValidatesAgainst210Shape) {
  const auto all =
      lint::lint_tree({std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures"});
  ASSERT_FALSE(all.empty());
  obs::json::Value doc;
  ASSERT_TRUE(obs::json::parse(lint::to_sarif(all), &doc));
  ASSERT_TRUE(doc.is_object());
  const auto* schema = doc.find("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_NE(schema->str.find("sarif-2.1.0"), std::string::npos);
  const auto* version = doc.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->str, "2.1.0");
  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->array.size(), 1u);
  const auto& run = runs->array[0];
  const auto* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const auto* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const auto* name = driver->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->str, "hvc_lint");
  const auto* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->array.size(), lint::rules().size())
      << "every known rule must be declared";
  const auto* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), all.size());
  for (const auto& r : results->array) {
    ASSERT_NE(r.find("ruleId"), nullptr);
    ASSERT_NE(r.find("level"), nullptr);
    const auto* msg = r.find("message");
    ASSERT_NE(msg, nullptr);
    ASSERT_NE(msg->find("text"), nullptr);
    const auto* locs = r.find("locations");
    ASSERT_NE(locs, nullptr);
    ASSERT_FALSE(locs->array.empty());
    const auto* phys = locs->array[0].find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    const auto* art = phys->find("artifactLocation");
    ASSERT_NE(art, nullptr);
    ASSERT_NE(art->find("uri"), nullptr);
    const auto* region = phys->find("region");
    ASSERT_NE(region, nullptr);
    const auto* start = region->find("startLine");
    ASSERT_NE(start, nullptr);
    EXPECT_GE(start->num, 1.0);
  }
}

TEST(LintTree, FindingsAreSortedByPathThenLine) {
  const auto all = lint::lint_tree(
      {std::string(HVC_SOURCE_DIR) + "/tests/lint_fixtures"});
  ASSERT_GE(all.size(), 2u);
  const bool sorted = std::is_sorted(
      all.begin(), all.end(), [](const Finding& a, const Finding& b) {
        return a.file != b.file ? a.file < b.file : a.line < b.line;
      });
  EXPECT_TRUE(sorted) << lint::to_text(all);
}

// The acceptance gate: the real source tree is clean, meaning every
// remaining unordered container / clock use carries a justified allow.
// (The R6 compile check is exercised separately above and by
// scripts/check.sh lint; skipping it here keeps the suite fast.)
TEST(LintTree, RealSourceTreeLintsClean) {
  const std::string root = HVC_SOURCE_DIR;
  const auto all = lint::lint_tree(
      {root + "/src", root + "/tools", root + "/bench", root + "/examples"});
  EXPECT_TRUE(all.empty()) << lint::to_text(all);
}

}  // namespace
}  // namespace hvc
