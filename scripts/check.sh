#!/usr/bin/env bash
# Full local gate: build + test the default and sanitize presets, run
# the concurrent-sweep suites (ExpSweep*) and the seeded fault-plan fuzz
# loop (FaultFuzz*, >=50 randomized plans) under ThreadSanitizer, smoke
# the hvc_run → hvc_report telemetry pipeline end to end, and run the
# static-analysis stage (hvc_lint + clang-tidy when installed).
#
#   scripts/check.sh            # everything
#   scripts/check.sh default    # just the default preset
#   scripts/check.sh sanitize   # just the sanitizer preset
#   scripts/check.sh tsan       # just the tsan stage
#   scripts/check.sh report     # just the hvc_report smoke
#   scripts/check.sh lint       # just the static-analysis stage
#   scripts/check.sh perf       # just the hvc_perf regression smoke
#   scripts/check.sh diffsim    # just the differential sim-core oracle
#   scripts/check.sh mains      # run every bench program and example
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("${@:-default sanitize}")
# Word-split the default list when invoked with no arguments.
if [ $# -eq 0 ]; then
  presets=(default sanitize tsan report lint perf diffsim mains)
fi

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  if [ "${preset}" = "tsan" ]; then
    # Only the concurrency tests and the fault fuzz loop run under tsan;
    # build just their binaries (gtest_discover_tests would otherwise
    # inject <target>_NOT_BUILT failures for every unbuilt test target).
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)" \
      --target exp_test telemetry_test property_test
    ctest --preset "${preset}"
  elif [ "${preset}" = "report" ]; then
    # End-to-end report smoke covering every hvc_report mode:
    #  1. hvc_run + telemetry/audit/trace -> default render, --trace,
    #     --merged (Chrome trace with telemetry + audit + lifecycle); the
    #     lifecycle trace names its tracks after the channels. Each run
    #     writes one results file, .results.jsonl, and no CSV.
    #  2. hvc_run over outage recovery, whose audit ring wraps -> the
    #     decision-reasons heading says how many records were overwritten,
    #     and so do the --merged trace's otherData and its track name.
    #     An artifact that cannot be written fails the run (exit 1, the
    #     path on stderr), not the process. A spec with one bad field makes
    #     hvc_run and hvc_sweep exit 2 with "<file>: <json path>: <problem>".
    #  3. hvc_sweep over a bulk ablation grid -> the default render has
    #     a bulk.goodput_mbps line for every run; again .results.jsonl
    #     and no CSV.
    #  4. hvc_sweep over the city smoke (spans enabled) -> cohort and
    #     capacity tables, --capacity JSON export, and --explain (the
    #     critical-path waterfall; every unit must pass its exact-sum
    #     check against the measured PLT/chunk latency).
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" \
      --target hvc_run hvc_sweep hvc_report
    out="$(mktemp -d)"
    build/tools/hvc_run scenarios/fig2_video_telemetry.json \
      --out "${out}/f2t" --trace "${out}/f2t.lifecycle.json" >/dev/null
    build/tools/hvc_report "${out}/f2t" \
      --trace "${out}/f2t.lifecycle.json" \
      --merged "${out}/f2t.merged.json" >"${out}/report.txt"
    grep -q "dchannel:small-object" "${out}/report.txt"
    grep -q "== telemetry ==" "${out}/report.txt"
    test -s "${out}/f2t.merged.json"
    grep -q '"name":"urllc down"' "${out}/f2t.lifecycle.json"
    test -s "${out}/f2t.results.jsonl"

    build/tools/hvc_run scenarios/outage_recovery.json \
      --out "${out}/outage" >/dev/null
    build/tools/hvc_report "${out}/outage" \
      --merged "${out}/outage.merged.json" >"${out}/outage_report.txt"
    grep -Eq '^== decision reasons \(audit, 65536 records, [0-9]+ older records overwritten\) ==$' \
      "${out}/outage_report.txt"
    grep -Eq '"otherData":\{"audit":\{"capacity":65536,"recorded":[0-9]+,"overwritten":[1-9][0-9]*\}\}\}$' \
      "${out}/outage.merged.json"
    grep -Eq '"name":"steering decisions \([0-9]+ older overwritten\)"' \
      "${out}/outage.merged.json"
    status=0
    build/tools/hvc_run scenarios/fig2_video_telemetry.json \
      --out "${out}/missing/x" >/dev/null 2>"${out}/missing.err" || status=$?
    test "${status}" -eq 1
    grep -q "${out}/missing/x" "${out}/missing.err"
    printf '{"workload": "web", "web": {"pages": 0}}\n' >"${out}/bad.json"
    printf '{"base": {"workload": "web", "web": {"pages": 0}}}\n' \
      >"${out}/bad_sweep.json"
    for tool in hvc_run hvc_sweep; do
      spec="${out}/bad.json"
      if [ "${tool}" = hvc_sweep ]; then spec="${out}/bad_sweep.json"; fi
      status=0
      "build/tools/${tool}" "${spec}" --out "${out}/bad" >/dev/null \
        2>"${out}/bad.err" || status=$?
      test "${status}" -eq 2
      grep -qxF "${tool}: ${spec}: web.pages: must be > 0" "${out}/bad.err"
    done

    build/tools/hvc_sweep scenarios/ablation_resequencer.json -j 2 \
      --out "${out}/reseq" >/dev/null
    build/tools/hvc_report "${out}/reseq" >"${out}/reseq_report.txt"
    grep -q '^== runs (5) ==$' "${out}/reseq_report.txt"
    test "$(grep -c '^  bulk.goodput_mbps ' "${out}/reseq_report.txt")" -eq 5
    test -s "${out}/reseq.results.jsonl"
    if compgen -G "${out}/*.csv" >/dev/null; then
      echo "hvc_run/hvc_sweep wrote CSV files:" >&2
      ls "${out}"/*.csv >&2
      exit 1
    fi

    build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/city" >/dev/null
    build/tools/hvc_report "${out}/city" \
      --capacity "${out}/city.capacity.json" \
      --merged "${out}/city.merged.json" >"${out}/city_report.txt"
    grep -q "cohort" "${out}/city_report.txt"
    test -s "${out}/city.capacity.json"
    test -s "${out}/city.run0.spans.jsonl"
    build/tools/hvc_report "${out}/city" --explain >"${out}/city_explain.txt"
    grep -q "components sum to" "${out}/city_explain.txt"
    if grep -q "MISMATCH" "${out}/city_explain.txt"; then
      echo "span attribution mismatch:" >&2
      grep "MISMATCH" "${out}/city_explain.txt" >&2
      exit 1
    fi
    rm -rf "${out}"
    echo "hvc_report smoke OK"
  elif [ "${preset}" = "mains" ]; then
    # Every program CI builds also runs: each bench main and example must
    # exit 0 and print its table. They pass dials no scenario file reaches
    # (RedundantConfig, MpConfig, CostAwareConfig, the TCP and browser
    # configs). The list is read from the CMake files that declare them.
    cmake --preset default
    mapfile -t mains < <(sed -n \
      -e 's|^hvc_bench(\(.*\))$|bench/\1|p' \
      -e 's|^hvc_example(\(.*\))$|examples/\1|p' \
      bench/CMakeLists.txt examples/CMakeLists.txt)
    test "${#mains[@]}" -gt 0
    cmake --build --preset default -j "$(nproc)" --target "${mains[@]##*/}"
    out="$(mktemp -d)"
    for main in "${mains[@]}"; do
      if ! "build/${main}" >"${out}/stdout"; then
        echo "${main} exited non-zero" >&2
        exit 1
      fi
      if ! test -s "${out}/stdout"; then
        echo "${main} printed nothing" >&2
        exit 1
      fi
    done
    rm -rf "${out}"
    echo "${#mains[@]} bench programs and examples OK"
  elif [ "${preset}" = "perf" ]; then
    # Hot-path perf regression smoke: quick-mode hvc_perf vs the
    # committed BENCH_hotpath.json baseline. The tolerance is generous
    # (90% slowdown allowed) because shared/CI machines are noisy and
    # quick mode uses reduced scales — the gate catches order-of-
    # magnitude regressions (accidental O(n^2), debug logging in a hot
    # loop), not single-digit drift. Full-fidelity numbers come from
    # `hvc_perf` (no --quick) on a quiet pinned machine.
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target hvc_perf
    out="$(mktemp -d)"
    build/tools/hvc_perf --quick --out "${out}/BENCH_hotpath.json" \
      --baseline BENCH_hotpath.json --check --tolerance 0.9
    rm -rf "${out}"
    echo "hvc_perf smoke OK"
  elif [ "${preset}" = "diffsim" ]; then
    # Differential sim-core oracle (tests/diffsim_test): every scenario
    # file and a 50-seed fuzzed fault corpus must produce byte-identical
    # artifacts under the calendar queue vs the reference binary heap,
    # packet pool on vs off. The suite flips the switches in-process via
    # the test overrides; on top, prove the *environment* escape hatches
    # reach the same code: a city smoke sweep under HVC_REFERENCE_QUEUE=1
    # HVC_PACKET_POOL=0 must be byte-identical to the default run.
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" \
      --target diffsim_test hvc_sweep
    build/tests/diffsim_test
    out="$(mktemp -d)"
    build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/default" >/dev/null
    HVC_REFERENCE_QUEUE=1 HVC_PACKET_POOL=0 \
      build/tools/hvc_sweep scenarios/city_cell_smoke.json -j 2 \
      --out "${out}/ref" >/dev/null
    for f in "${out}"/default.*; do
      cmp "$f" "${out}/ref.${f##*/default.}"
    done
    rm -rf "${out}"
    # TcpSender's RACK list links std::map segment nodes by pointer: an
    # erase without an unlink is a heap use-after-free the next time the
    # sender walks the list. The transport suite drives the loss paths
    # (and audits the indexes throughout); under ASan a stale link traps.
    # The span recorder caches pointers to its map nodes, and the span
    # builder links open legs by their position in its leg buffer
    # (asserted in range in this Debug build); the span and population
    # suites drive both, so a stale pointer or index traps too.
    # Capacity traces are runs addressed by index arithmetic (products
    # of span and slot index, 128-bit where they could overflow); the
    # trace, TSN and channel suites run it under UBSan's overflow checks.
    # A sim::Timer's queued entry captures `this` and, after a later
    # re-arm, stays queued until its first deadline, so a timer freed
    # without cancelling would be a use-after-free only ASan traps; the
    # sim, QUIC and video suites drive timers armed, re-armed, cancelled
    # and destroyed in every order.
    cmake --preset sanitize
    cmake --build --preset sanitize -j "$(nproc)" \
      --target transport_test span_test pop_test trace_test tsn_test \
      channel_test sim_test quic_test video_test
    build-sanitize/tests/transport_test
    build-sanitize/tests/span_test
    build-sanitize/tests/pop_test
    build-sanitize/tests/trace_test
    build-sanitize/tests/tsn_test
    build-sanitize/tests/channel_test
    build-sanitize/tests/sim_test
    build-sanitize/tests/quic_test
    build-sanitize/tests/video_test
    echo "diffsim oracle OK"
  elif [ "${preset}" = "lint" ]; then
    # Static analysis. Two gates:
    #  1. tools/hvc_lint — the repo's per-file determinism/simulation-
    #     safety rules R1–R8 (see src/lint/lint.hpp), including the R6
    #     header self-sufficiency compile check, over the whole tree.
    #     Writes a SARIF report next to the build tree. Always runs.
    #  2. clang-tidy over compile_commands.json — generic C++ hygiene
    #     (.clang-tidy). Runs only when clang-tidy is installed; the
    #     build image does not ship LLVM, so absence is a skip, not a
    #     failure.
    cmake --preset lint
    cmake --build --preset lint -j "$(nproc)"
    build-lint/tools/hvc_lint --compile-check -I src \
      --sarif build-lint/hvc_lint.sarif \
      src tools bench examples
    test -s build-lint/hvc_lint.sarif
    echo "hvc_lint OK"
    if command -v clang-tidy >/dev/null 2>&1; then
      # Lint the compiled sources under src/ and tools/ (bench/tests
      # would need gtest/benchmark headers resolvable to clang).
      mapfile -t tidy_sources < <(git ls-files 'src/**/*.cpp' 'tools/*.cpp')
      clang-tidy -p build-lint --quiet "${tidy_sources[@]}"
      echo "clang-tidy OK"
    else
      echo "clang-tidy not installed; skipping (hvc_lint gate still ran)"
    fi
  else
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "$(nproc)"
    ctest --preset "${preset}"
  fi
done

echo "All checks passed."
