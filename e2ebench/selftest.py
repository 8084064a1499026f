#!/usr/bin/env python3
"""Smoke-size self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json through run.py on a 2000-row
relation for about a second per run, and checks that

  * every end-to-end metric is printed with its unit and is non-zero,
    and every per-layer metric is printed with its unit;
  * every answer agreed with the plaintext model (failed == 0);
  * traced spans carry parent links to op spans;
  * server.handle_us <= net.rtt_us;
  * server.index_hit_ratio is about 1 on point_hot and 0 on scan_cold;
  * storage.wal_bytes_per_mutation is non-zero on write_mix;
  * two runs with one seed give identical exact counts and op sequence,
    and another seed changes the op sequence.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["net.req_bytes_per_op", "net.resp_bytes_per_op",
         "net.round_trips_per_op", "server.match_evals_per_select",
         "storage.wal_bytes_per_mutation"]


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--docs", "2000"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def spans_path(workload, seed):
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    return os.path.join(build, "spans", f"{workload}-seed{seed}.jsonl")


def check_spans(workload, seed):
    with open(spans_path(workload, seed)) as f:
        spans = [json.loads(line) for line in f]
    ops = {s["id"] for s in spans if s["parent"] == 0}
    children = [s for s in spans if s["parent"] != 0]
    check(ops and children, f"{workload}: traced run recorded no spans")
    for s in children:
        check(s["parent"] in ops, f"{workload}: span {s} has no op parent")
    for s in spans:
        check(s["end_ns"] >= s["start_ns"], f"{workload}: span {s} ends early")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        name = w["name"]
        diag, res = bench(name, 7, 0)
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{name}: untraced run not correct: {diag}")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == units["e2e"], f"{name}: end-to-end metric set {got}")
        for k, v in res["metrics"].items():
            check(v["value"] > 0, f"{name}: end-to-end metric {k} is zero")

        runs = [bench(name, seed, 1) for seed in (7, 7, 8)]
        for diag, res in runs:
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == units["layer"], f"{name}: per-layer metric set {got}")
            check(res["correct"] and res["failed"] == 0,
                  f"{name}: traced run not correct: {diag}")
        check_spans(name, 7)
        m = {k: v["value"] for k, v in runs[0][1]["metrics"].items()}
        check(m["server.handle_us"] <= m["net.rtt_us"],
              f"{name}: server.handle_us {m['server.handle_us']} > "
              f"net.rtt_us {m['net.rtt_us']}")
        ratio = m["server.index_hit_ratio"]
        if name == "point_hot":
            check(ratio >= 0.99, f"point_hot: index_hit_ratio {ratio}")
        if name == "scan_cold":
            check(ratio == 0, f"scan_cold: index_hit_ratio {ratio}")
        if name == "write_mix":
            wal = m["storage.wal_bytes_per_mutation"]
            check(wal > 0, f"write_mix: storage.wal_bytes_per_mutation {wal}")
        (d1, r1), (d2, r2), (d3, _) = runs
        for k in EXACT:
            a = r1["metrics"][k]["value"]
            b = r2["metrics"][k]["value"]
            check(a == b, f"{name}: {k} differs between equal seeds: {a} {b}")
        check(d1["ops_digest"] == d2["ops_digest"],
              f"{name}: op sequence differs between equal seeds")
        check(d1["ops_digest"] != d3["ops_digest"],
              f"{name}: seeds 7 and 8 gave the same op sequence")
        print(f"selftest: {name} ok (hit ratio {ratio:.4f}, handle "
              f"{m['server.handle_us']:.1f} us <= rtt {m['net.rtt_us']:.1f} us)")
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
