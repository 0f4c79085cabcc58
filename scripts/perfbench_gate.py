#!/usr/bin/env python3
"""Gate on one perfbench result: the JSON object on the last line of stdin.

    python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 0 \\
      | tail -n 1 | python3 scripts/perfbench_gate.py [W]

"correct" must be true. With a workload named, the run's simulated end-to-end
metrics must equal that workload's seed-1 values in scripts/sim_expected.json
exactly: they come from a fixed simulation window, so they depend on neither the
run length nor the host.
A simulated number changes only on purpose: update the file together with a
CHANGES.md line that says why.
"""
import json
import os
import sys

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_expected.json")


def main():
    result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    if result.get("correct") is not True:
        print("perfbench_gate: run not correct", file=sys.stderr)
        return 1
    if len(sys.argv) < 2:
        return 0
    workload = sys.argv[1]
    with open(EXPECTED) as f:
        expected = json.load(f)[workload]
    got = {name: metric["value"] for name, metric in result["metrics"].items()}
    diffs = ["%s: expected %r, got %r" % (name, value, got.get(name))
             for name, value in sorted(expected.items()) if got.get(name) != value]
    for diff in diffs:
        print("perfbench_gate: %s %s" % (workload, diff), file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
