#!/usr/bin/env bash
# Tier-1 check: configure, build, run the full test suite (tier1, then the
# real-thread engine tests, then the chaos soak), re-run it under ASan+UBSan,
# run the threads label again under ThreadSanitizer, then the dead-code ratchet
# (scripts/dead_code.sh), then a tracing smoke test (the trace-vs-counter EMC
# cross-check must hold with the tracer enabled), then the deterministic halves
# of the emc_scaling and batched_mmu bench gates, then short perfbench runs
# (jobs, serve, ingest, and one traced serve run) whose correctness gates must
# pass and whose simulated metrics must match scripts/sim_expected.json.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
#   EREBOR_SKIP_SANITIZE=1 skips the sanitizer passes (e.g. on memory-tight CI).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
# Fast signal first: the tier-1 suite, then the real-thread oracle-equivalence
# tests, then the long-running chaos soaks.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" -L tier1)
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" -L threads)
# Fleet-serving soak: hostile tenants interleaved with benign load on both
# execution engines, with containment and journal-replay assertions.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" -L serving)
# Fleet-churn soak: warm-clone-pool serving with quarantine-and-replace under
# the chaos engine, plus the pool-mode engine-equivalence oracle.
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" -L churn)
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" -L chaos)

# Sanitizer pass: the whole suite again with AddressSanitizer + UBSan. The chaos
# tests drive every injected-fault recovery path, which is exactly where lifetime
# and UB bugs like to hide.
if [[ "${EREBOR_SKIP_SANITIZE:-0}" != "1" ]]; then
  ASAN_DIR="${BUILD_DIR}-asan"
  cmake -B "$ASAN_DIR" -S . -DEREBOR_SANITIZE=ON
  cmake --build "$ASAN_DIR" -j "$(nproc)"
  (cd "$ASAN_DIR" && ctest --output-on-failure -j "$(nproc)")

  # ThreadSanitizer pass over the real-thread engine tests. Only threads_test,
  # fleet_test and churn_test are built and run here (TSan slows everything
  # ~10x and the rest of the suite is single-threaded by construction); they
  # must be completely clean — TSan forces a nonzero exit code whenever it
  # reported a race. fleet_test exercises the real-thread engine through the
  # supervisor's burst-ingest and engine-oracle paths; churn_test drives the
  # same threaded path with the warm-clone pool on.
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DEREBOR_SANITIZE=tsan
  cmake --build "$TSAN_DIR" -j "$(nproc)" --target threads_test fleet_test churn_test
  "$TSAN_DIR/tests/threads_test"
  "$TSAN_DIR/tests/fleet_test"
  "$TSAN_DIR/tests/churn_test"
fi

# Dead-code ratchets: every test, bench, example and perfbench binary linked at
# -O0 with --gc-sections in its own build trees; a src function that none of
# them keeps fails the check unless scripts/dead_code_allowlist.txt names it,
# and one that only tests keep fails unless scripts/test_only_allowlist.txt
# names it with a reason. About 2.5 minutes on a 4-core host.
scripts/dead_code.sh "${BUILD_DIR}-gc"

# Trace smoke test: the end-to-end trace tests re-run with the env toggles set, and
# the Chrome trace export must be produced and non-trivial.
TRACE_JSON="$(mktemp -t erebor_trace.XXXXXX.json)"
trap 'rm -f "$TRACE_JSON"' EXIT
EREBOR_TRACE=1 EREBOR_TRACE_JSON="$TRACE_JSON" \
  "$BUILD_DIR/tests/trace_test" --gtest_filter='TraceEndToEndTest.*'
# fig8 exits non-zero if any run's trace EMC count differs from the monitor counter.
EREBOR_TRACE=1 EREBOR_TRACE_JSON="$TRACE_JSON" "$BUILD_DIR/bench/fig8_lmbench" \
  | grep -q -- '-> MATCH' || {
    echo "check.sh: fig8 trace/counter cross-check failed" >&2
    exit 1
  }
grep -q '"traceEvents"' "$TRACE_JSON" || {
  echo "check.sh: Chrome trace JSON missing or empty" >&2
  exit 1
}

# Bench gates that run in well under a second on the deterministic engine:
# emc_scaling (4-vCPU throughput >= 3x one vCPU) and batched_mmu (the MMU rings
# recover a majority of the Erebor-added fork/mmap/pagefault cost).
EREBOR_EXEC=deterministic "$BUILD_DIR/bench/emc_scaling"
EREBOR_EXEC=deterministic "$BUILD_DIR/bench/batched_mmu"

# Benchmark smoke test: short jobs, serve and ingest runs of perfbench, whose
# end-to-end gates (quote verification, CheckOutput, replay, invariant audits)
# must report "correct": true on the last line, and whose simulated percentiles
# and overhead must equal scripts/sim_expected.json exactly (a simulated number
# changes only on purpose). ingest drives the ReadVirt/WriteVirt usercopy path
# hardest.
for workload in jobs serve ingest; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0 \
    | tail -n 1 \
    | python3 scripts/perfbench_gate.py "$workload" || {
      echo "check.sh: perfbench $workload run not correct or its sim_* values moved" >&2
      exit 1
    }
done
# One traced run: exercises the tracing-on EMC exit path (the round-trip
# histogram) and the per-layer probes, under the same correctness gate.
python3 perfbench/run.py --workload serve --seed 1 --seconds 3 --trace 1 \
  | tail -n 1 \
  | python3 scripts/perfbench_gate.py || {
    echo "check.sh: traced perfbench serve run not correct" >&2
    exit 1
  }

echo "check.sh: all checks passed"
