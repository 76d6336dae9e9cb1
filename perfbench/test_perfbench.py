"""Fast tests of the benchmark itself: PYTHONPATH=src python3 -m pytest perfbench -q

A smoke run of every workload at a tiny size, traced and untraced, and one
wrong makespan fed to each output check, which must catch it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "paper_grid": workloads.GridSpec(
        task_counts=(3, 6), n_vms=4, reps=2, grids=2, league_size=4, seasons=2
    ),
    "hetero_large": workloads.HeteroSpec(sizes=(30, 45), n_vms=4, league_size=4, seasons=2),
    "exact_small": workloads.ExactSpec(shapes=((2, 5, True), (3, 4, False), (4, 3, True))),
}


def _tiny(name: str, tmp_path: Path, seed: int = 7) -> workloads.Workload:
    return workloads.WORKLOADS[name](seed, tmp_path / name, TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_rounds_pass_their_checks(name, tmp_path):
    workload = _tiny(name, tmp_path)
    for r in range(2):
        results = workload.check(r, workload.run_round(r))
        assert results and not any(results), results
    side = _tiny("hetero_large" if name == "exact_small" else "exact_small", tmp_path / "side")
    assert not any(side.check(0, side.run_round(0)))
    figures = workloads.end_to_end(workload, side, [3.0, 1.0, 2.0])
    assert figures["wall_s"] == 2.0
    assert all(v > 0 for k, v in figures.items() if k != "lca_gap_to_lb")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_round_self_times_add_up_and_wrappers_come_off(name, tmp_path):
    from leaguesched import lca, rng

    originals = (rng.SplitMix64.uniform, lca._FitnessEvaluator.__call__, lca.run)
    workload = _tiny(name, tmp_path)
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        with tracer.span("round"):
            out = workload.run_round(0)
    finally:
        tracer.uninstall()
    assert not any(workload.check(0, out))
    assert (rng.SplitMix64.uniform, lca._FitnessEvaluator.__call__, lca.run) == originals
    layers = spans.layer_metrics(tracer, 1, 0.0)
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_sum + layers["trace.untraced_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-12)
    if name == "exact_small":
        assert layers["oracle.calls"] == 3 and layers["oracle.assignments"] == 2**5 + 3**4 + 4**3
    else:
        assert layers["lca.run.calls"] == (4 if name == "paper_grid" else 2)
        assert layers["lca.evaluate.calls"] > 0 and layers["rng.uniforms.draws"] > 0


def test_grid_check_catches_one_wrong_makespan(tmp_path):
    workload = _tiny("paper_grid", tmp_path)
    s = workload.spec
    assert workload.run_round(0) == 0
    text = workload.csv.read_text(encoding="utf-8")

    def problems(csv_text):
        found = checks.check_grid_csv(
            csv_text, workload.masters[0], s.task_counts, s.reps, s.n_vms, s.speed,
            s.length_range, s.league_size, s.seasons,
        )
        return {key for key, p in found.items() if p}

    assert problems(text) == set()
    lines = text.split("\n")
    # LJF is recomputed exactly; LCA is only bounded, so it is pushed below the bound.
    for kind, wrong_value in (("LJF", lambda x: x + 1e-6), ("LCA", lambda x: 1e-6)):
        i = next(k for k, line in enumerate(lines) if line.startswith(f"{kind},6,1,"))
        fields = lines[i].split(",")
        fields[4] = f"{wrong_value(float(fields[4])):.6f}"
        wrong = lines[:i] + [",".join(fields)] + lines[i + 1 :]
        assert problems("\n".join(wrong)) == {(kind, 6, 1)}


def test_lca_run_check_catches_one_wrong_makespan(tmp_path):
    workload = _tiny("hetero_large", tmp_path)
    _, result, _, greedy = workload.run_round(0)[0]
    _, lengths, speeds, _, params = workload.instances[0]
    greedy_s = [ms for _, ms in greedy.values()]

    def problems(best_s, history):
        return checks.check_lca_run(
            lengths, speeds, result.best_assignment.vm_of, best_s, history,
            result.evaluations, params.league_size, params.seasons, greedy_s,
        )

    assert problems(result.best_makespan_s, result.history) == []
    assert problems(result.best_makespan_s * (1 + 1e-15) + 1e-12, result.history)
    assert problems(result.best_makespan_s, [*result.history[:-1], result.history[0] * 2])


def test_greedy_and_oracle_checks_catch_one_wrong_makespan(tmp_path):
    workload = _tiny("exact_small", tmp_path)
    (lb, greedy, best, opt, _), *_ = workload.run_round(0)
    _, lengths, speeds = workload.instances[0]
    reference = checks.enumerate_optimum(lengths, speeds)
    greedy_s = {kind: ms for kind, (_, ms) in greedy.items()}
    assignment, ms = greedy["BEF"]
    assert checks.check_greedy("BEF", lengths, speeds, assignment.vm_of, ms) == []
    assert checks.check_greedy("BEF", lengths, speeds, assignment.vm_of, ms + 1e-9)
    assert checks.check_optimum(lengths, speeds, best.vm_of, opt, lb, greedy_s, reference) == []
    assert checks.check_optimum(lengths, speeds, best.vm_of, opt + 1e-9, lb, greedy_s, reference)
    assert checks.check_optimum(
        lengths, speeds, best.vm_of, opt, lb, {**greedy_s, "LJF": 2 * opt}, reference
    )


def test_reference_enumeration_agrees_across_block_sizes():
    lengths, speeds = [5.0, 3.0, 3.0, 2.0, 7.0], [1.0, 2.0, 1.5]
    assert checks.enumerate_optimum(lengths, speeds, block=7) == checks.enumerate_optimum(
        lengths, speeds
    )


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer()
    with tracer.span("round"):
        pass
    layers = spans.layer_metrics(tracer, 1, 0.0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    side = _tiny("exact_small", tmp_path)
    side.check(0, side.run_round(0))
    league = _tiny("hetero_large", tmp_path)
    league.check(0, league.run_round(0))
    e2e = set(workloads.end_to_end(league, side, [1.0])) | {"setup_s", "peak_rss_mb"}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
