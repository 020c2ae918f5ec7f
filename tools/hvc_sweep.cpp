// hvc_sweep — expand a sweep file into its run grid and execute it on a
// thread pool.
//
//   hvc_sweep <sweep.json> [-j N] [--out <prefix>] [--dry-run]
//             [--shard K/N]
//   hvc_sweep --merge --out <prefix> <shard.results.jsonl>...
//
// Progress goes to stderr; the aggregated results land in
// <prefix>.results.jsonl (default prefix: bench/out/<sweep name>).
// Output bytes are independent of -j (see src/exp/sweep.hpp), so `diff`
// between a -j1 and -j8 run of the same sweep is empty.
//
// --shard K/N runs only grid positions i with i % N == K (0-based) and
// writes <prefix>.shardKofN.results.jsonl with *global* run indices.
// --merge reassembles shard files into the canonical
// <prefix>.results.jsonl; because every run is isolated and the JSONL
// rows round-trip exactly, the merged file is byte-identical to an
// unsharded run of the same sweep, whatever order the shard files are
// given in.
//
// Exit codes: 0 all runs succeeded, 1 at least one run errored (or a
// merge found gaps/duplicates), 2 bad usage / invalid spec.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/results.hpp"
#include "exp/sweep.hpp"
#include "obs/prof.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hvc_sweep <sweep.json> [-j N] [--out <prefix>] "
               "[--dry-run] [--shard K/N]\n"
               "       hvc_sweep --merge --out <prefix> "
               "<shard.results.jsonl>...\n");
  return 2;
}

/// "K/N" with 0 <= K < N.
bool parse_shard(const char* arg, std::size_t* index, std::size_t* count) {
  const char* slash = std::strchr(arg, '/');
  if (slash == nullptr || slash == arg || slash[1] == '\0') return false;
  char* end = nullptr;
  const long k = std::strtol(arg, &end, 10);
  if (end != slash || k < 0) return false;
  const long n = std::strtol(slash + 1, &end, 10);
  if (*end != '\0' || n <= 0 || k >= n) return false;
  *index = static_cast<std::size_t>(k);
  *count = static_cast<std::size_t>(n);
  return true;
}

int merge_shards(const std::string& prefix,
                 const std::vector<std::string>& paths) {
  using namespace hvc;
  if (prefix.empty() || paths.empty()) return usage();
  std::vector<exp::RunResult> all;
  try {
    for (const auto& p : paths) {
      auto part = exp::Report::parse_results(exp::read_file(p));
      for (auto& r : part) all.push_back(std::move(r));
    }
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_sweep: %s\n", e.what());
    return 2;
  }
  std::sort(all.begin(), all.end(),
            [](const exp::RunResult& a, const exp::RunResult& b) {
              return a.index < b.index;
            });
  // The merged grid must be exactly 0..n-1, once each: a duplicate means
  // overlapping shards, a gap means a missing shard file.
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].index != i) {
      std::fprintf(stderr,
                   "hvc_sweep: merge %s run index %zu (expected %zu) — "
                   "%s shard?\n",
                   all[i].index < i ? "duplicate" : "gap at",
                   all[i].index, i,
                   all[i].index < i ? "overlapping" : "missing");
      return 1;
    }
  }
  int failed = 0;
  for (const auto& r : all) {
    if (!r.error.empty()) ++failed;
  }
  try {
    exp::write_file(prefix + ".results.jsonl", exp::to_jsonl(all));
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_sweep: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "merged %zu shard files -> %s.results.jsonl (%zu runs, %d "
               "failed)\n",
               paths.size(), prefix.c_str(), all.size(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hvc;
  std::string path;
  std::string prefix;
  std::vector<std::string> merge_inputs;
  int jobs = 1;
  bool dry_run = false;
  bool merge = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-j") == 0) {
      if (i + 1 >= argc) return usage();
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) return usage();
    } else if (std::strncmp(argv[i], "-j", 2) == 0 && argv[i][2] != '\0') {
      jobs = std::atoi(argv[i] + 2);
      if (jobs < 1) return usage();
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) return usage();
      prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      if (i + 1 >= argc || !parse_shard(argv[++i], &shard_index, &shard_count)) {
        return usage();
      }
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (merge) {
      merge_inputs.push_back(argv[i]);
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (merge) return merge_shards(prefix, merge_inputs);
  if (path.empty()) return usage();

  exp::SweepSpec sweep;
  std::vector<exp::ExpandedRun> grid;
  try {
    sweep = exp::SweepSpec::from_file(path);
    grid = exp::expand(sweep);
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_sweep: %s\n", e.what());
    return 2;
  }
  if (prefix.empty()) prefix = exp::default_out_prefix(sweep.name);

  std::fprintf(stderr, "sweep %s: %zu runs", sweep.name.c_str(), grid.size());
  for (const auto& axis : sweep.axes) {
    std::fprintf(stderr, " %s[%zu]", axis.path.c_str(), axis.values.size());
  }
  if (shard_count > 1) {
    std::fprintf(stderr, ", shard %zu/%zu", shard_index, shard_count);
  }
  std::fprintf(stderr, ", -j %d\n", jobs);

  if (dry_run) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (i % shard_count != shard_index) continue;
      std::fprintf(stderr, "  run %zu:", i);
      for (const auto& [k, v] : grid[i].params) {
        std::fprintf(stderr, " %s=%s", k.c_str(),
                     exp::display_param(v).c_str());
      }
      std::fprintf(stderr, "\n");
    }
    return 0;
  }

  // Wall-clock progress stays on stderr only: the aggregated result
  // files must remain byte-identical across -j and across machines.
  // obs::prof::now_ns() is the sanctioned host-clock accessor (clock
  // island), so the ETA needs no wallclock lint carve-out.
  const std::uint64_t sweep_start = hvc::obs::prof::now_ns();
  const auto results = exp::run_sweep_shard(
      sweep, jobs, shard_index, shard_count,
      [sweep_start](const exp::RunResult& r, std::size_t done,
                    std::size_t total) {
        const double elapsed_s =
            static_cast<double>(hvc::obs::prof::now_ns() - sweep_start) *
            1e-9;
        const double rate = elapsed_s > 0 ? static_cast<double>(done) /
                                                elapsed_s
                                          : 0.0;
        const double eta_s =
            rate > 0 ? static_cast<double>(total - done) / rate : 0.0;
        std::fprintf(stderr,
                     "[%zu/%zu] run %zu %s (%.0f ms) | elapsed %.1fs, "
                     "%.2f runs/s, eta %.0fs%s%s\n",
                     done, total, r.index, r.name.c_str(), r.wall_ms,
                     elapsed_s, rate, eta_s,
                     r.error.empty() ? "" : " ERROR: ",
                     r.error.empty() ? "" : r.error.c_str());
      },
      prefix);

  int failed = 0;
  for (const auto& r : results) {
    if (!r.error.empty()) ++failed;
  }

  std::string out = prefix;
  if (shard_count > 1) {
    out += ".shard" + std::to_string(shard_index) + "of" +
           std::to_string(shard_count);
  }
  try {
    exp::write_file(out + ".results.jsonl", exp::to_jsonl(results));
  } catch (const exp::SpecError& e) {
    std::fprintf(stderr, "hvc_sweep: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s.results.jsonl (%zu runs, %d failed)\n",
               out.c_str(), results.size(), failed);
  return failed == 0 ? 0 : 1;
}
