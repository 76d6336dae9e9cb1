"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs the workload in its own single-threaded worker process against the
leaguesched sources in this checkout's src/, and prints one JSON object as
the last line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. Set-up time is the median over several fresh processes.
Exits non-zero, printing no result, when anything is missing or fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run worker.py once and return the JSON object on its last line of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leaguesched" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/leaguesched or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        print("error: --seed must be a 64-bit unsigned integer, --seconds >= 1", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        setup = [] if args.trace else [
            worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        result = worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup + [metrics["setup_s"]])
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    line = json.dumps(report)
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
