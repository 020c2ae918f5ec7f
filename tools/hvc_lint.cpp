// hvc_lint: run the repo's determinism & simulation-safety lint pass
// (src/lint) over one or more source trees.
//
//   hvc_lint [options] <file-or-dir>...
//     --json                machine-readable output (findings + counts)
//     --sarif <file|->      also write a SARIF 2.1.0 report (for CI
//                           code-scanning upload); "-" = stdout
//     --compile-check       also run the R6 header self-sufficiency check
//                           (compiles each header in isolation; skipped
//                           with a note when no compiler is on PATH)
//     --compiler <cc>       compiler for --compile-check (default: c++)
//     -I <dir>              include dir for --compile-check (repeatable)
//     --list-rules          print the rule table and exit
//
// Exit status: 0 clean (notes allowed), 1 findings at warning or worse,
// 2 usage / IO error. scripts/check.sh lint is the canonical invocation.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "lint/lint.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--sarif <file|->] [--compile-check] "
               "[--compiler <cc>] [-I <dir>]... [--list-rules] "
               "<file-or-dir>...\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  hvc::lint::Options opts;
  bool json = false;
  std::string sarif_path;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      if (++i >= argc) return usage(argv[0]);
      sarif_path = argv[i];
    } else if (arg == "--compile-check") {
      opts.compile_check = true;
    } else if (arg == "--compiler") {
      if (++i >= argc) return usage(argv[0]);
      opts.compiler = argv[i];
    } else if (arg == "-I") {
      if (++i >= argc) return usage(argv[0]);
      opts.include_dirs.push_back(argv[i]);
    } else if (arg == "--list-rules") {
      for (const auto& r : hvc::lint::rules()) {
        std::printf("%-28s %-8s %s\n", r.name,
                    hvc::lint::severity_name(r.severity), r.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  for (const auto& root : roots) {
    std::error_code ec;
    if (!std::filesystem::exists(root, ec) || ec) {
      std::fprintf(stderr, "hvc_lint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }

  const std::vector<hvc::lint::Finding> findings =
      hvc::lint::lint_tree(roots, opts);

  if (!sarif_path.empty() &&
      !write_file(sarif_path, hvc::lint::to_sarif(findings) + "\n")) {
    std::fprintf(stderr, "hvc_lint: cannot write %s\n",
                 sarif_path.c_str());
    return 2;
  }

  if (json) {
    std::printf("%s\n", hvc::lint::to_json(findings).c_str());
  } else {
    std::fputs(hvc::lint::to_text(findings).c_str(), stdout);
    if (findings.empty()) {
      std::printf("hvc_lint: clean (%zu root%s)\n", roots.size(),
                  roots.size() == 1 ? "" : "s");
    }
  }
  return hvc::lint::has_failure(findings) ? 1 : 0;
}
