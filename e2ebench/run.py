#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the encrypted store.

    python3 e2ebench/run.py --workload point_hot --seed 1 --seconds 15 --trace 0

Builds e2ebench/ (which compiles the store from ../src) into the build
directory named by $CARGO_TARGET_DIR, default .bench_build, under the
repository root, then runs one workload and relays its output. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. Traced runs also write their spans to
<build>/spans/<workload>-seed<N>.jsonl. Exits non-zero, printing no
result, when the build, the run, a correctness check or the metric set
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=0,
                    help="override the relation size (self-test only)")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    work = os.path.join(out, "work")
    spans_dir = os.path.join(out, "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(out, "e2e_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={work}"]
    if args.docs:
        cmd.append(f"--docs={args.docs}")
    if args.trace:
        cmd.append(f"--spans={os.path.join(spans_dir, f'{args.workload}-seed{args.seed}.jsonl')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(proc.stdout)
        log(f"metric set differs from BENCHMARK.json: got {sorted(got.items())}, "
            f"want {sorted(want.items())}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
