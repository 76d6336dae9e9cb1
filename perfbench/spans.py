"""Span recording around leaguesched's layers, from outside the package.

The package binds its collaborators with `from ... import`, so a wrapper has
to replace a name in every module that calls it, not only where the function
is defined. Methods are replaced on their class. `install` records each
replaced attribute so `uninstall` can put the original back.

Spans (name, start, end, parent) go into flat arrays in memory and are
written out once, at the end. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the durations of the root spans exactly.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, count=None):
        """fn timed as span `name`; count(counts, args, kwargs, result) tallies extras."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, name: str, owners, attr: str, count=None) -> None:
        """Replace `attr` on every owner (module or class) by one traced wrapper."""
        original = getattr(owners[0], attr)
        traced = self.wrap(name, original, count)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function being traced")
            self._patched.append((owner, attr, original))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        own = duration - children
        k = len(self.names)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        calls = np.bincount(name_id, minlength=k)
        return (
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: int(calls[i]) for i, n in enumerate(self.names)},
        )

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _history_stats(counts, args, kwargs, result) -> None:
    history = result.history
    drops = [w for w in range(1, len(history)) if history[w] < history[w - 1]]
    counts["lca.improvements"] += len(drops)
    counts["lca.last_improvement_week"] += drops[-1] + 1 if drops else 0
    counts["lca.evaluations"] += result.evaluations


def _draws(counts, args, kwargs, result) -> None:
    counts["rng.uniforms.draws"] += len(result)


def _assignments(counts, args, kwargs, result) -> None:
    instance = args[0] if args else kwargs["instance"]
    counts["oracle.assignments"] += len(instance.vms) ** len(instance.tasks)


def _tasks(counts, args, kwargs, result) -> None:
    counts["workload.load_trace.tasks"] += len(result)


def _csv_bytes(counts, args, kwargs, result) -> None:
    counts["experiment.emit_csv.bytes"] += result


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, in each module that calls it."""
    from leaguesched import baselines, cli, experiment, lca, model, oracle, rng, workload

    tracer.install("rng.uniform", [rng.SplitMix64], "uniform")
    tracer.install("rng.uniforms", [rng.SplitMix64], "uniforms", _draws)
    tracer.install("lca.init", [lca], "init_league")
    tracer.install("lca.propose", [lca], "update_formation")
    tracer.install("lca.evaluate", [lca._FitnessEvaluator], "__call__")
    tracer.install("lca.match", [lca], "play_match")
    tracer.install("lca.run", [lca, experiment, cli], "run", _history_stats)
    tracer.install("oracle", [oracle], "brute_force_optimum", _assignments)
    for name in ("fcfs", "ljf", "bef"):
        tracer.install("baselines", [baselines, lca, experiment, cli], name)
    tracer.install("model.makespan", [model, lca, oracle, experiment, cli], "makespan")
    tracer.install("workload.generate", [workload, experiment, cli], "generate_synthetic")
    tracer.install("workload.load_trace", [workload, cli], "load_trace", _tasks)
    tracer.install("experiment.grid", [experiment, cli], "run_experiment")
    tracer.install("experiment.emit_csv", [experiment, cli], "emit_csv", _csv_bytes)
    tracer.install("experiment.emit_svg", [experiment, cli], "emit_svg_chart")
    tracer.install("cli.dispatch", [cli], "dispatch")


def layer_metrics(tracer: Tracer, rounds: int, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer figures per traced round; the root spans are named "round"."""
    self_s, calls = tracer.totals()
    c = tracer.counts
    per = 1.0 / rounds
    traced_wall = sum(self_s.values()) * per
    runs = calls.get("lca.run", 0)
    out = {
        "rng.uniform.calls": calls.get("rng.uniform", 0) * per,
        "rng.uniform.self_s": self_s.get("rng.uniform", 0.0) * per,
        "rng.uniforms.calls": calls.get("rng.uniforms", 0) * per,
        "rng.uniforms.draws": c["rng.uniforms.draws"] * per,
        "rng.uniforms.self_s": self_s.get("rng.uniforms", 0.0) * per,
        "lca.init.self_s": self_s.get("lca.init", 0.0) * per,
        "lca.propose.calls": calls.get("lca.propose", 0) * per,
        "lca.propose.self_s": self_s.get("lca.propose", 0.0) * per,
        "lca.evaluate.calls": calls.get("lca.evaluate", 0) * per,
        "lca.evaluate.self_s": self_s.get("lca.evaluate", 0.0) * per,
        "lca.match.calls": calls.get("lca.match", 0) * per,
        "lca.match.self_s": self_s.get("lca.match", 0.0) * per,
        "lca.run.calls": runs * per,
        "lca.run.self_s": self_s.get("lca.run", 0.0) * per,
        "lca.improvements": c["lca.improvements"] / runs if runs else 0.0,
        "lca.last_improvement_week": c["lca.last_improvement_week"] / runs if runs else 0.0,
        "lca.improvements_per_kevals": (
            1000.0 * c["lca.improvements"] / c["lca.evaluations"] if runs else 0.0
        ),
        "oracle.calls": calls.get("oracle", 0) * per,
        "oracle.assignments": c["oracle.assignments"] * per,
        "oracle.self_s": self_s.get("oracle", 0.0) * per,
        "baselines.calls": calls.get("baselines", 0) * per,
        "baselines.self_s": self_s.get("baselines", 0.0) * per,
        "model.makespan.calls": calls.get("model.makespan", 0) * per,
        "model.makespan.self_s": self_s.get("model.makespan", 0.0) * per,
        "workload.generate.self_s": self_s.get("workload.generate", 0.0) * per,
        "workload.load_trace.self_s": self_s.get("workload.load_trace", 0.0) * per,
        "workload.load_trace.tasks": c["workload.load_trace.tasks"] * per,
        "experiment.grid.self_s": self_s.get("experiment.grid", 0.0) * per,
        "experiment.emit_csv.self_s": self_s.get("experiment.emit_csv", 0.0) * per,
        "experiment.emit_csv.bytes": c["experiment.emit_csv.bytes"] * per,
        "experiment.emit_svg.self_s": self_s.get("experiment.emit_svg", 0.0) * per,
        "cli.dispatch.self_s": self_s.get("cli.dispatch", 0.0) * per,
        "trace.wall_s": traced_wall,
        "trace.untraced_s": self_s.get("round", 0.0) * per,
        "trace.overhead_s": traced_wall - untraced_wall_s,
    }
    return out
