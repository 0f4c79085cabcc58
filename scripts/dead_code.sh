#!/usr/bin/env bash
# Dead-code ratchet. Links every test, bench, example and perfbench binary at
# -O0 with one section per function and --gc-sections, so each binary keeps
# exactly the functions reachable from its main. Fails on any out-of-line src
# function (a global text symbol of the simulator libraries) that no binary
# keeps, unless scripts/dead_code_allowlist.txt names it; also fails on an
# allow-list entry that some binary keeps again, so the list only shrinks.
# Header-inline functions are emitted only where used and are not checked.
#
# Usage: scripts/dead_code.sh [build-dir]   (default: build-gc)
#   The repository builds in <build-dir>, perfbench in <build-dir>-perfbench.
set -euo pipefail

cd "$(dirname "$0")/.."
GC_DIR="${1:-build-gc}"
PB_DIR="${GC_DIR}-perfbench"
ALLOWLIST="scripts/dead_code_allowlist.txt"
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
{
  find "$GC_DIR/tests" "$GC_DIR/bench" "$GC_DIR/examples" -maxdepth 1 -type f -perm -u+x
  echo "$PB_DIR/erebor_perfbench"
} | while read -r binary; do
  nm --defined-only "$binary" | awk '{ print $3 }'
done | sort -u >"$work/kept"

comm -23 "$work/defined" "$work/kept" | c++filt \
  | sed -e 's/(.*//' -e 's/\[abi:[^]]*\]//g' | sort -u >"$work/dead"
grep -v -e '^#' -e '^[[:space:]]*$' "$ALLOWLIST" | sort -u >"$work/allowed"

status=0
new_dead="$(comm -23 "$work/dead" "$work/allowed")"
if [[ -n "$new_dead" ]]; then
  echo "dead_code.sh: src functions that no binary keeps (delete them, or list" \
       "them in $ALLOWLIST with a reason):" >&2
  echo "$new_dead" | sed 's/^/  /' >&2
  status=1
fi
stale="$(comm -13 "$work/dead" "$work/allowed")"
if [[ -n "$stale" ]]; then
  echo "dead_code.sh: allow-listed functions that a binary keeps now (remove" \
       "them from $ALLOWLIST):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
if [[ $status -eq 0 ]]; then
  echo "dead_code.sh: $(wc -l <"$work/defined") src functions, none dead" \
       "outside the allow-list ($(wc -l <"$work/allowed") entries)"
fi
exit $status
