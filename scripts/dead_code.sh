#!/usr/bin/env bash
# Dead-code ratchet. Links every test, bench, example and perfbench binary at
# -O0 with one section per function and --gc-sections, so each binary keeps
# exactly the functions reachable from its main. Two checks, each with an
# allow-list that can only shrink (an entry that no longer applies fails too):
#   - dead: an out-of-line src function (a global text symbol of the simulator
#     libraries) that no binary keeps, unless scripts/dead_code_allowlist.txt
#     names it;
#   - test-only: one that only test binaries keep (no bench, example or
#     perfbench binary does), unless scripts/test_only_allowlist.txt names it
#     with a reason.
# Header-inline functions are emitted only where used and are not checked.
#
# Usage: scripts/dead_code.sh [build-dir]   (default: build-gc)
#   The repository builds in <build-dir>, perfbench in <build-dir>-perfbench.
set -euo pipefail

cd "$(dirname "$0")/.."
GC_DIR="${1:-build-gc}"
PB_DIR="${GC_DIR}-perfbench"
ALLOWLIST="scripts/dead_code_allowlist.txt"
TEST_ONLY_ALLOWLIST="scripts/test_only_allowlist.txt"
JOBS="$(nproc)"

gc_build() {  # <source-dir> <build-dir> [target]
  local target=()
  if [[ $# -eq 3 ]]; then
    target=(--target "$3")
  fi
  cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections" >/dev/null
  # --print-gc-sections lists every dropped section; keep it in a log, not the
  # console. The verdict comes from the symbols the binaries kept.
  if ! cmake --build "$2" -j "$JOBS" "${target[@]}" >"$2/gc-sections.log" 2>&1; then
    tail -n 40 "$2/gc-sections.log" >&2
    echo "dead_code.sh: build in $2 failed" >&2
    exit 1
  fi
}
gc_build . "$GC_DIR"
gc_build perfbench "$PB_DIR" erebor_perfbench

work="$(mktemp -d -t erebor_dead_code.XXXXXX)"
trap 'rm -rf "$work"' EXIT

find "$GC_DIR/src" -name '*.a' -print0 \
  | xargs -0 nm --defined-only -g 2>/dev/null \
  | awk '$2 == "T" { print $3 }' | sort -u >"$work/defined"
kept_by() {  # <binary>... : every symbol the binaries keep, one per line
  for binary in "$@"; do
    nm --defined-only "$binary" | awk '{ print $3 }'
  done | sort -u
}
names() {  # mangled symbols on stdin -> qualified names without parameters
  c++filt | sed -e 's/(.*//' -e 's/\[abi:[^]]*\]//g' | sort -u
}
mapfile -t test_bins < <(find "$GC_DIR/tests" -maxdepth 1 -type f -perm -u+x)
mapfile -t product_bins < <(find "$GC_DIR/bench" "$GC_DIR/examples" -maxdepth 1 \
  -type f -perm -u+x; echo "$PB_DIR/erebor_perfbench")
kept_by "${test_bins[@]}" >"$work/kept_tests"
kept_by "${product_bins[@]}" >"$work/kept_product"
sort -u "$work/kept_tests" "$work/kept_product" >"$work/kept"

comm -23 "$work/defined" "$work/kept" | names >"$work/dead"
comm -12 "$work/defined" "$work/kept_tests" | comm -23 - "$work/kept_product" \
  | names >"$work/test_only"
grep -v -e '^#' -e '^[[:space:]]*$' "$ALLOWLIST" | sort -u >"$work/allowed"
# Test-only entries are "<qualified name>  # <reason>"; the reason is required.
{ grep -v -e '^#' -e '^[[:space:]]*$' "$TEST_ONLY_ALLOWLIST" || true; } \
  >"$work/test_only_entries"
sed -e 's/[[:space:]]*#.*//' "$work/test_only_entries" | sort -u >"$work/test_only_allowed"

status=0
report() {  # <list> <message>: prints a non-empty list under its message
  if [[ -n "$1" ]]; then
    echo "dead_code.sh: $2" >&2
    echo "$1" | sed 's/^/  /' >&2
    status=1
  fi
}
report "$(comm -23 "$work/dead" "$work/allowed")" \
  "src functions that no binary keeps (delete them, or list them in $ALLOWLIST with a reason):"
report "$(comm -13 "$work/dead" "$work/allowed")" \
  "allow-listed functions that a binary keeps now (remove them from $ALLOWLIST):"
report "$(comm -23 "$work/test_only" "$work/test_only_allowed")" \
  "src functions that only tests keep (delete them, or list them in $TEST_ONLY_ALLOWLIST with a reason):"
report "$(comm -13 "$work/test_only" "$work/test_only_allowed")" \
  "$TEST_ONLY_ALLOWLIST entries that are not test-only now (remove them):"
report "$(grep -v '#[[:space:]]*[^[:space:]]' "$work/test_only_entries" || true)" \
  "$TEST_ONLY_ALLOWLIST entries without a reason:"
if [[ $status -eq 0 ]]; then
  echo "dead_code.sh: $(wc -l <"$work/defined") src functions, none dead" \
       "outside the allow-list ($(wc -l <"$work/allowed") entries), none test-only" \
       "outside the test-only list ($(wc -l <"$work/test_only_allowed") entries)"
fi
exit $status
