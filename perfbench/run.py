#!/usr/bin/env python3
"""End-to-end benchmark entry point (see BENCHMARK.json at the repository root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR or .bench_build/, runs one workload and prints, as its last
stdout line, {"correct", "attempted", "failed", "metrics"}: every end_to_end
metric of BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
End-to-end timings are at a reference host speed: the program interleaves a
fixed kernel with the workload and scales by its median time (SpeedProbe in
perfbench/common.hpp); the raw wall-time values are printed above the result.

--trace 1 points RTP_TRACE / RTP_REPORT into the build directory and has the
benchmark run the timed phase twice on one fixture, untraced then traced. Layer
metrics come from the traced phase; obs.trace_overhead is its cost over the
untraced one.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures and builds rtp_perfbench; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = out / "rtp_perfbench"
    return binary if binary.exists() else None


def source_digest():
    """sha256 over the sources the binary is built from (src/ + perfbench/)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(binary, args, env):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload timed out")
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: rtp_perfbench exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def select_metrics(result, trace, spec):
    """The declared metrics with their declared units, or None on a mismatch.

    End-to-end metrics must all be measured, in the declared unit. Per-layer
    metrics a workload does not exercise read 0; an undeclared one is an error.
    """
    if trace:
        declared, values = spec["per_layer"], result["layers"]
        unknown = set(values) - {m["name"] for m in declared}
        if unknown:
            log(f"perfbench: undeclared per_layer metrics {sorted(unknown)}")
            return None
        return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                for m in declared}
    metrics = {}
    for m in spec["end_to_end"]:
        got = result["e2e"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench: end_to_end metric {m['name']} missing or not in {m['unit']}")
            return None
        metrics[m["name"]] = got
    return metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"perfbench: unknown workload {args.workload}")
        return 2
    out = build_dir()
    binary = build(out / "perfbench")
    if binary is None:
        return 1

    env = dict(os.environ)
    # One pool thread: at RTP_THREADS > 1, ThreadPool::run_chunked can hang
    # (a worker that wakes late for one job claims a chunk of the next, so
    # chunks_done overshoots n_chunks and the caller waits forever). Setting
    # RTP_THREADS overrides this.
    env.setdefault("RTP_THREADS", "1")
    env["RTP_FLIGHT"] = str(out / "flight.json")
    env.pop("RTP_TRACE", None)
    env.pop("RTP_REPORT", None)
    if args.trace:
        trace_dir = out / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-{args.seed}"
        env["RTP_TRACE"] = str(trace_dir / f"{stem}.trace.json")
        env["RTP_REPORT"] = str(trace_dir / f"{stem}.report.json")
    result = run_binary(binary, args, env)
    if result is None:
        return 1

    prov = dict(result["provenance"], nproc=os.cpu_count(), source_digest=source_digest())
    print(json.dumps({"provenance": prov}))
    for name, m in result["named"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"{args.workload} note: {note}")

    metrics = select_metrics(result, args.trace, spec)
    if metrics is None:
        return 1
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
