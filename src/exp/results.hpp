// Aggregated run and sweep output: one JSONL row per run, carrying the
// run's params, metrics, error and obs::MetricsRegistry snapshot.
//
// The rows are a pure function of the RunResult vector — no timestamps,
// no wall-clock, no hostnames — so the same sweep produces byte-identical
// files regardless of thread count or machine.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace hvc::exp {

/// One JSON object per line, ordered by grid position.
[[nodiscard]] std::string to_jsonl(const std::vector<RunResult>& runs);

/// Write `content` to `path` through obs::json::Writer; throws SpecError
/// naming the path on an open, write or close failure.
void write_file(const std::string& path, const std::string& content);

/// Default artifact prefix for a run/sweep called `name`:
/// "bench/out/<name>", creating the directory on demand so generated
/// results and artifact files never land in the repo root. Falls back to
/// plain `name` (CWD) when the directory cannot be created.
[[nodiscard]] std::string default_out_prefix(const std::string& name);

}  // namespace hvc::exp
