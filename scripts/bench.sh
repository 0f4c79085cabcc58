#!/usr/bin/env bash
# Machine-readable bench pipeline: builds the repo, runs the figure/table benches
# with JSON emission enabled, and collects BENCH_<name>.json files in one directory.
#
# Usage: scripts/bench.sh [build-dir] [out-dir]
#   build-dir defaults to `build`, out-dir to `bench_out`.
#
# fig8 exits non-zero if the trace/counter EMC cross-check fails (TLB
# cycle-neutrality is the tier-1 TlbCycleNeutralityTest's check); tab6 on a
# trace mismatch; emc_scaling if 4-vCPU EMC throughput is below 3x its own
# 1-vCPU cell or if any real-thread
# cell diverges from its deterministic oracle (counters or per-vCPU cycles);
# channel if the record pipeline with accelerated dispatch is below 4x the same
# pipeline with dispatch off at 64 KiB, or the 16-session aggregate is below 2x
# one session. Any of those fails
# this script, as does any BENCH_<name>.json whose "pass" verdict is not true or
# that has a "checks" entry ({name, value, bound, pass}) that did not pass.
# BENCH_emc_scaling.json carries both series: "cells" (simulated cycles,
# deterministic engine) and "engine_cells" (wall-clock ns, real threads vs their
# oracle twins; reported, not gated).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_out}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"

mkdir -p "$OUT_DIR"
export EREBOR_BENCH_JSON="$OUT_DIR"

echo "== fig8 (LMBench microbenchmarks, trace/counter cross-check) =="
EREBOR_TRACE=1 EREBOR_TRACE_JSON="$OUT_DIR/fig8_trace.json" \
  "$BUILD_DIR/bench/fig8_lmbench"

echo
echo "== fig9 (workload ablation) =="
"$BUILD_DIR/bench/fig9_workloads"

echo
echo "== tab3 (privilege-transition costs) =="
"$BUILD_DIR/bench/tab3_transitions" --benchmark_out_format=console 2>/dev/null

echo
echo "== tab6 (execution statistics) =="
EREBOR_TRACE=1 "$BUILD_DIR/bench/tab6_stats"

echo
echo "== emc_scaling (multi-vCPU EMC throughput under sharded locking) =="
# Runs both engines: deterministic simulated-cycle cells plus the real-thread
# wall-clock sweep with per-cell oracle-equivalence checks. Set
# EREBOR_EXEC=deterministic to skip the threaded sweep.
"$BUILD_DIR/bench/emc_scaling"

echo
echo "== channel (attested-channel seal+open and multi-session ingest) =="
"$BUILD_DIR/bench/channel_throughput"

echo
echo "== batched_mmu (per-op vs ring MMU-update ablation) =="
# Fails if the ring path recovers less than a majority of the Erebor-added
# fork/mmap/pagefault cost, or if the multi-vCPU ring burst diverges between
# the real-thread engine and its deterministic oracle. EREBOR_BENCH_ITERS
# overrides the iteration count; EREBOR_EXEC=deterministic skips the threaded
# oracle half.
"$BUILD_DIR/bench/batched_mmu"

echo
echo "== serving (fleet supervisor under hostile load) =="
# Fails if any attacked tenant escapes quarantine+replacement, if a benign
# tenant is penalized for a neighbor's attack, if the benign p99 under attack
# exceeds 1.5x the attack-free baseline, or if the real-thread burst-ingest
# engine diverges from its deterministic oracle. EREBOR_EXEC=deterministic
# skips the threaded oracle half.
"$BUILD_DIR/bench/serving"

echo
echo "== tab7_platforms (isolation-backend ablation: PKS vs TME-MK vs CET-only) =="
# Fails if a measured gated PTE write diverges from its backend cost model, if
# TME-MK cannot hold 16/64/256 live sealed sandboxes with clean invariants, or
# if PKS admission past the 11-key budget is not a clean kUnavailable refusal
# counted in fleet.domain_exhausted.
"$BUILD_DIR/bench/tab7_platforms"

echo
echo "== warm_start (cold boot vs real warm session install vs CoW clone) =="
# Fails if the warm install (full attested handshake + session install — no
# debug shortcut) is not cheaper than a cold boot, or if a template clone is
# not at least 10x cheaper than cold at every heap size.
"$BUILD_DIR/bench/warm_start"

echo
echo "== mem_sharing (common-memory footprint ablation) =="
# Fails if any fleet size fails to initialize or the 8-sandbox sharing savings
# drop below 60%.
"$BUILD_DIR/bench/mem_sharing"

echo
echo "== churn (fleet-churn: warm clones, promotions, quarantine-and-replace) =="
# Fails if the clone-launch rate misses 10k/sec, dormant clones pin confined
# frames, a promotion/quarantine-replacement fails, the pool-mode fleet loses
# containment, or any invariant family is violated.
"$BUILD_DIR/bench/churn"

echo
for name in fig8 fig9 tab3 tab6 emc_scaling channel batched_mmu serving tab7_platforms warm_start mem_sharing churn; do
  f="$OUT_DIR/BENCH_$name.json"
  if [[ ! -s "$f" ]]; then
    echo "bench.sh: missing or empty $f" >&2
    exit 1
  fi
done
# Every BENCH_<name>.json must be well-formed JSON naming its bench. A bench that
# gates on anything folds all of its checks into one "pass" verdict, and may list
# them one by one in a "checks" array; re-check both here so a stale or
# hand-edited file cannot masquerade as a clean run. Fall back to a grep when no
# python3 is installed.
for f in "$OUT_DIR"/BENCH_*.json; do
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,os,sys
path = sys.argv[1]
doc = json.load(open(path))
name = os.path.basename(path)[len("BENCH_"):-len(".json")]
assert doc.get("bench") == name, "bench key is not " + name
assert doc.get("pass", True) is True, name + " did not pass"
for check in doc.get("checks", []):
    assert check.get("pass") is True, name + ": check " + str(check.get("name")) + " failed"' "$f" || {
      echo "bench.sh: $f failed validation" >&2
      exit 1
    }
  elif ! grep -q '"bench"' "$f" ||
      { grep -q '"pass"' "$f" && ! grep -q '"pass": *true' "$f"; } ||
      grep -q '"pass": *false' "$f"; then
    echo "bench.sh: $f failed validation" >&2
    exit 1
  fi
done
# The channel's per-record fixed cost: the serving workload's 256 B input record
# and its 4 KiB padded result.
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys
for cell in json.load(open(sys.argv[1]))["pipeline"]:
    if cell["record_bytes"] in (256, 4096):
        print("channel: %6d B record  %8.0f ns accelerated  %8.0f ns portable" % (
            cell["record_bytes"], cell["accelerated_ns_per_record"],
            cell["portable_ns_per_record"]))' "$OUT_DIR/BENCH_channel.json"
fi
echo "bench.sh: JSON results in $OUT_DIR/:"
ls -l "$OUT_DIR"/BENCH_*.json
