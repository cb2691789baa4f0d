#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-halo --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The first call configures and builds perfbench (and the distredge library
it links) in .bench_build/perfbench with CMake, Release; later calls only
rebuild what changed. A single workload's output is passed through as the
driver prints it: detail lines, one "metric" line per metric, and last one
JSON object {"correct", "attempted", "failed", "metrics"}. "--workload all"
runs every workload in turn and prints each end-to-end metric by name and
unit. The exit status is non-zero when the build fails, a run fails or
times out, or any delivered output is not bit-exact.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["stream-halo", "stream-compute", "door-cameras", "churn-hetero"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench",
                "-j", jobs]
    for cmd in ([] if (BUILD / "CMakeCache.txt").exists() else [configure]) + [compile_]:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return BINARY.exists()


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    h = hashlib.sha256()
    trees = [ROOT / "src", HERE / "src"]
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for tree in trees:
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, env):
    """Runs one workload; returns (exit status, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 3, []
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"no repository sources next to {HERE.name}/; nothing to build")
        return 1
    if not build():
        log("build failed")
        return 1
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())

    if args.workload != "all":
        status, lines = run(args.workload, args.seed, args.seconds,
                            args.trace, env)
        if not lines:
            return status or 1
        print("\n".join(lines), flush=True)
        return status

    worst = 0
    for workload in WORKLOADS:
        status, lines = run(workload, args.seed, args.seconds, args.trace, env)
        worst = worst or status
        if not lines:
            print(f"{workload}: no result (exit {status})")
            worst = worst or 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        if not result["correct"]:
            worst = worst or 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
