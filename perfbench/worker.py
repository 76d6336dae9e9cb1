"""One workload in one process: set-up, timed rounds, checks, and the optional traced half.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
numeric libraries held to one thread. Prints one JSON object as its last
line of output. With --setup-only it stops after the set-up and prints the
set-up time alone, which run.py uses to take a median over fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

started = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
PROBE_SHARE = 0.15


def run_rounds(workload, seconds, first, min_rounds, tally, tracer=None, side=None):
    """Whole rounds until their summed time reaches `seconds`; returns the round times.

    After each round, `side` (the cross-probe) runs whole rounds of its own
    while its time is below PROBE_SHARE of the rounds' time, so both sample
    the same stretch of a machine whose speed drifts.
    """
    times, side_s, r = [], 0.0, first
    while True:
        t = time.perf_counter()
        if tracer is None:
            out = workload.run_round(r)
        else:
            with tracer.span("round"):
                out = workload.run_round(r)
        times.append(time.perf_counter() - t)
        tally(workload.check(r, out))
        while side is not None and (side_s == 0.0 or side_s < PROBE_SHARE * sum(times)):
            t = time.perf_counter()
            out = side.run_round(r)
            side_s += time.perf_counter() - t
            tally(side.check(r, out))
        r += 1
        if sum(times) >= seconds and len(times) >= min_rounds:
            return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import leaguesched

    if Path(leaguesched.__file__).resolve().parent != ROOT / "src" / "leaguesched":
        print(f"error: leaguesched imported from {leaguesched.__file__}", file=sys.stderr)
        return 2
    import workloads

    outdir = OUT / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    side = workloads.cross_probe(workload, outdir / "probe")
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = failed = 0

    def tally(results: list[list[str]]) -> None:
        nonlocal attempted, failed
        attempted += len(results)
        for problems in results:
            if problems:
                failed += 1
                if failed <= 10:
                    print(f"check failed: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        import spans

        half = args.seconds / 2
        plain = run_rounds(workload, half, 0, 1, tally)
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        try:
            traced = run_rounds(workload, half, len(plain), 1, tally, tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer, len(traced), statistics.fmean(plain))
        layer_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        if abs(layer_sum + metrics["trace.untraced_s"] - metrics["trace.wall_s"]) > 1e-9 * max(
            1.0, metrics["trace.wall_s"]
        ):
            print("error: layer self times do not add up to the traced wall time", file=sys.stderr)
            return 1
        tracer.dump(OUT / f"spans-{args.workload}.npz")
    else:
        round_s = run_rounds(workload, args.seconds, 0, workload.min_rounds, tally, side=side)
        metrics = workloads.end_to_end(workload, side, round_s)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
