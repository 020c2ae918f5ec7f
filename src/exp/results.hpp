// Aggregated sweep output: one CSV / JSONL row per run.
//
// Both formats are pure functions of the RunResult vector — no
// timestamps, no wall-clock, no hostnames — so the same sweep produces
// byte-identical files regardless of thread count or machine. CSV
// columns are the sorted union of parameter and metric names across all
// runs (runs missing a metric leave the cell empty); JSONL rows carry
// the full per-run detail including the obs::MetricsRegistry snapshot.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace hvc::exp {

/// Header + one row per run, ordered by grid position.
[[nodiscard]] std::string to_csv(const std::vector<RunResult>& runs);

/// One JSON object per line, ordered by grid position.
[[nodiscard]] std::string to_jsonl(const std::vector<RunResult>& runs);

/// Write `content` to `path` through obs::json::Writer; throws SpecError
/// naming the path on an open, write or close failure.
void write_file(const std::string& path, const std::string& content);

/// Default artifact prefix for a run/sweep called `name`:
/// "bench/out/<name>", creating the directory on demand so generated
/// CSV/JSONL/manifest files never land in the repo root. Falls back to
/// plain `name` (CWD) when the directory cannot be created.
[[nodiscard]] std::string default_out_prefix(const std::string& name);

}  // namespace hvc::exp
