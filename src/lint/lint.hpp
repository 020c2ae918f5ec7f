// hvc_lint: the repo's determinism & simulation-safety static-analysis
// pass (scripts/check.sh lint, tools/hvc_lint).
//
// Every exported artifact this repo ships — results JSONL, telemetry,
// audit logs, traces — is promised byte-identical for a given spec at any
// -j. The byte-identity *tests* (exp_test, telemetry_test) catch a broken
// build after the fact; this pass rejects the code patterns that break
// the promise before they run:
//
//   wallclock            (R1) wall-clock / entropy sources in simulation
//                             code — time comes from sim::Simulator,
//                             randomness from sim::Rng, nothing else
//   unordered-container  (R2) std::unordered_map/set — iteration order is
//                             unspecified, so any traversal that feeds an
//                             export or a steering decision is a latent
//                             nondeterminism bug; use std::map/set, sort
//                             before export, or prove order-independence
//   steer-missing-reason (R3) a return path in a steer() implementation
//                             that does not set a Decision audit reason
//                             tag (obs/audit.hpp records every decision)
//   raw-new-delete       (R4) raw new/delete — ownership goes through
//                             unique_ptr/containers in this codebase
//   float-equality       (R5) ==/!= against floating-point values —
//                             metric comparisons must use ordering or an
//                             explicit tolerance
//   header-not-self-sufficient
//                        (R6) a header that does not compile on its own
//                             (include-what-you-use-lite; needs the
//                             toolchain, so it runs only under
//                             Options::compile_check)
//   clock-island         (R7) an allow(wallclock) suppression outside the
//                             sanctioned clock island (src/obs/prof*,
//                             bench/). Host-time needs are met by calling
//                             obs::prof::now_ns()/cycles(); the wallclock
//                             ban has exactly one carve-out, not a
//                             per-file mute button. Island files skip R1
//                             entirely and need no allow.
//   std-hash             (R8) std::hash — libstdc++ and libc++ hash the
//                             same value differently, so anything derived
//                             from it (seeds, sampling keys, bucket
//                             choices) silently diverges across
//                             platforms; derive stable keys from
//                             sim::fnv1a64 / sim::seed_mix (sim/seed.hpp)
//
// Scanner, not a compiler: every rule works on a comment/string-stripped
// copy of one file (scrub() below), with no libclang dependency, which
// keeps the pass fast and dependency-free at the cost of AST precision.
// Each file is linted on its own; no rule looks across translation
// units. Rules are tuned so false positives are rare and every true hit
// is suppressible in place:
//
//   foo();  // hvc-lint: allow(unordered-container): keys are re-sorted
//           // before export, so iteration order cannot leak
//
// A suppression names the rule(s) it silences and MUST carry a
// justification after the closing colon; an allow without one is itself
// a finding. A suppression on its own comment line applies to the next
// code line; `allow-file(rule)` near the top of a file silences the rule
// for the whole file.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hvc::lint {

enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);

struct Finding {
  std::string file;
  int line = 1;  ///< 1-based
  std::string rule;
  Severity severity = Severity::kWarning;
  std::string message;
};

/// R7 helper: true for files inside the sanctioned clock island
/// (src/obs/prof*, bench/) where host-clock reads are legal.
[[nodiscard]] bool in_clock_island(const std::string& path);

/// A rule's identity: the name used in diagnostics and allow() tags.
struct RuleInfo {
  const char* name;
  Severity severity;
  const char* summary;
};

/// Every rule the pass knows, in stable (R1..R8 + directive) order.
[[nodiscard]] const std::vector<RuleInfo>& rules();
[[nodiscard]] bool known_rule(std::string_view name);

struct Options {
  /// Run the R6 header self-sufficiency compile check (invokes the
  /// compiler once per header; needs a toolchain on PATH).
  bool compile_check = false;
  std::string compiler = "c++";
  /// -I directories for the compile check (transitive includes).
  std::vector<std::string> include_dirs;
};

/// The comment/string-stripped view of one file that every rule reads.
/// `code` preserves every character position (stripped spans become
/// spaces; string/char delimiters are kept so "a literal is present
/// here" stays detectable), so offsets map 1:1 onto the original text.
/// `comments` holds the comment text, same positions, for directive
/// parsing.
struct Scrubbed {
  std::string code;
  std::string comments;
  std::vector<std::size_t> line_starts;  ///< offset of each line's first char

  [[nodiscard]] int line_of(std::size_t offset) const;
  [[nodiscard]] std::size_t line_count() const { return line_starts.size(); }
  [[nodiscard]] std::string_view code_line(int line) const;
  [[nodiscard]] std::string_view comment_line(int line) const;
};

[[nodiscard]] Scrubbed scrub(std::string_view text);

/// Lint one file's contents (R1–R5, R8 + suppression diagnostics).
/// `path` is used for reporting only; nothing is read from disk.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               std::string_view text);

/// Lint a file from disk; adds the R6 compile check for headers when
/// opts.compile_check is set. Unreadable file = one kError finding.
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             const Options& opts = {});

/// Recursively lint every .hpp/.h/.cpp/.cc under `roots` (files are also
/// accepted directly). Results are ordered by path then line, so output
/// is byte-stable for a given tree.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::vector<std::string>& roots, const Options& opts = {});

/// Human-readable report: "file:line: severity: [rule] message" lines.
[[nodiscard]] std::string to_text(const std::vector<Finding>& findings);

/// Machine-readable report:
///   {"findings":[{"file":...,"line":...,"rule":...,"severity":...,
///    "message":...}],"errors":N,"warnings":N,"notes":N}
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 report (one run, tool driver "hvc_lint", every known
/// rule listed, one result per finding) for CI code-scanning upload.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

/// The gate condition: any finding at warning severity or worse.
[[nodiscard]] bool has_failure(const std::vector<Finding>& findings);

}  // namespace hvc::lint
