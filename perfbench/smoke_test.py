#!/usr/bin/env python3
"""Smoke self-check of the end-to-end benchmark.

    python3 perfbench/smoke_test.py [--seconds S]

A very short run of every workload in BENCHMARK.json, on both seeds that
perfbench/spec.json records, untraced and traced, must print a result line
with exactly the contract's keys, every declared metric with its declared
unit and a finite value, correct == true and failed == 0. Traced runs must
also show model.forwards_per_request <= 1 on serve_zipf and == 1.0 on
placement_whatif. spec.json's predictions must cover exactly the declared
per-layer metrics. Exits non-zero on the first violation.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"FAIL: {msg}", flush=True)
    sys.exit(1)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def check(result, declared, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{where}: {m['name']} = {got}")
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    predicted = [name for group in spec["predictions"] for name in group["layer"]]
    if sorted(predicted) != sorted(m["name"] for m in bench["per_layer"]):
        fail("spec.json predictions do not cover exactly the per_layer metrics")

    seeds = (spec["seeds"]["default"], spec["seeds"]["heldout"])
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in seeds:
            where = f"{workload} seed {seed}"
            e2e = check(run(workload, seed, args.seconds, 0), bench["end_to_end"], where)
            for m in bench["end_to_end"]:
                if e2e[m["name"]]["value"] <= 0:
                    fail(f"{where}: end-to-end {m['name']} is not positive")
            layers = check(run(workload, seed, args.seconds, 1), bench["per_layer"],
                           where + " traced")
            fpr = layers["model.forwards_per_request"]["value"]
            if workload == "serve_zipf" and not 0 < fpr <= 1:
                fail(f"{where}: forwards_per_request {fpr} on serve_zipf")
            if workload == "placement_whatif" and fpr != 1.0:
                fail(f"{where}: forwards_per_request {fpr} on placement_whatif")
            print(f"ok {where}", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
