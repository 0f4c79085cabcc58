#!/usr/bin/env python3
"""End-to-end benchmark of the Erebor reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload jobs|serve|ingest --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator sources it compiles from ../src) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints the benchmark's report. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: simulator sources not found at %s/src; "
                         "run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "erebor_perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "erebor_perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (path + contents)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cached_compiler(build_dir):
    """The compiler CMake chose for the build (path from its cache)."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_replay(build_dir, digest, workload, seed, fingerprint):
    """Runs of the same sources with the same seed must simulate bit-identically."""
    store = os.path.join(build_dir, "fingerprints", digest)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            previous = f.read().strip()
        if previous != fingerprint:
            print("CHECK FAILED: seed %d replayed with fingerprint %s, earlier run %s"
                  % (seed, fingerprint, previous))
            return False
        return True
    with open(path, "w") as f:
        f.write(fingerprint + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        raise SystemExit("perfbench: unknown workload %r (%s)"
                         % (args.workload, ", ".join(workloads)))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        sys.stdout.write(proc.stdout)
        raise SystemExit("perfbench: benchmark exited with %d and no result"
                         % proc.returncode)
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    result = json.loads(results[-1][len("RESULT "):])
    info = result.pop("info", {})

    correct = bool(result["correct"])
    digest = source_digest()
    if "sim_fingerprint" in info:
        correct &= check_replay(build_dir, digest, args.workload, args.seed,
                                info["sim_fingerprint"])
    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print("CHECK FAILED: metrics missing from the report: " + ", ".join(missing))
        correct = False
    metrics = {name: metrics[name] for name in wanted if name in metrics}

    meta = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": info.get("build_type"),
        "compiler": "%s %s" % (cached_compiler(build_dir), info.get("compiler")),
        "git_sha": git_sha(),
        "source_digest": digest,
        "input_sizes": info.get("input_sizes"),
        "sim_samples": info.get("sim_samples"),
        "sim_bucket": info.get("sim_bucket"),
        "host_samples": info.get("host_samples"),
        "not_applicable": info.get("not_applicable", []),
    }
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
