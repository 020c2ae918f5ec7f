// The traced pass: the same runs as the untraced pass, with layer spans
// around every call the benchmark makes into src/ and forwarding decorators
// at two injection points (steering policy factories, the bulk sender's
// congestion controller).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Counts gathered at the span boundaries (span counts per layer are in
/// the Tracer).
struct TracedCounts {
  std::uint64_t steer_non_default = 0;  ///< decisions off channel 0 (eMBB)
  std::uint64_t generated_traces = 0;   ///< non-constant capacity traces
                                        ///< in the built configs
  std::uint64_t artifact_bytes = 0;     ///< results + telemetry/audit/spans
  std::uint64_t audit_records = 0;
  std::vector<std::string> artifacts;   ///< artifact file names written
};

struct TracedPass {
  Pass pass;  ///< pass.ns is the root span's duration
  Tracer tracer;
  TracedCounts counts;
};

/// Run every run of `parts` once, traced. Each run mirrors
/// exp::run_scenario and the core::run_* helpers call for call, so its
/// RunResult (and exp::to_jsonl row) must equal the untraced one; the
/// caller checks that. Artifacts land in `out_dir`.
[[nodiscard]] TracedPass traced_pass(const std::vector<Part>& parts,
                                     const std::string& out_dir);

}  // namespace perfbench
