"""The benchmark's three workloads, driven through leaguesched's public entry points.

Each workload builds its inputs from the seed when it is constructed (the
set-up), then runs rounds: a round is one fixed set of calls into the
program, the same in every round, and `check` compares its outputs with the
reference computations of `checks`. Check results are per operation, so a
wrong output counts as one failed operation out of those attempted.

Program functions are looked up on their modules at call time, so the span
wrappers of `spans.install_layers` see the benchmark's own calls too.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import checks


def derive(seed: int, *parts: int) -> int:
    """A 64-bit seed for one input, from the run seed and the input's coordinates."""
    h = seed & checks.MASK64
    for p in parts:
        h = checks.mix64(h ^ p)
    return h


@dataclass(frozen=True)
class GridSpec:
    task_counts: tuple[int, ...] = tuple(range(20, 181, 20))
    n_vms: int = 20
    speed: float = 1000.0
    length_range: tuple[float, float] = (200.0, 500.0)
    reps: int = 1
    grids: int = 3  # distinct master seeds, cycled over the rounds
    league_size: int = 20
    seasons: int = 50


@dataclass(frozen=True)
class HeteroSpec:
    sizes: tuple[int, ...] = (1000, 1500, 2000)
    n_vms: int = 40
    length_range: tuple[float, float] = (100.0, 1000.0)
    speed_range: tuple[float, float] = (500.0, 2000.0)
    league_size: int = 20
    seasons: int = 50


@dataclass(frozen=True)
class ExactSpec:
    # (VMs, tasks, equal speeds); m^n stays between 1.5e4 and 8e4.
    shapes: tuple[tuple[int, int, bool], ...] = (
        (2, 14, True), (2, 16, False), (3, 9, True), (3, 10, False),
        (4, 7, True), (4, 8, False), (5, 6, True), (5, 7, False),
        (6, 6, True), (6, 6, False), (7, 5, True), (8, 5, False),
    ) * 2
    length_range: tuple[float, float] = (100.0, 1000.0)
    speed_range: tuple[float, float] = (500.0, 2000.0)
    equal_speed: float = 1000.0


class Workload:
    """Shared tallies; subclasses fill them while checking rounds."""

    min_rounds = 1

    def __init__(self) -> None:
        self.lca_evals = 0
        self.lca_run_s: list[float] = []
        self.gap: dict[object, float] = {}  # best makespan / lower bound - 1, per LCA cell
        self.oracle_assignments = 0
        self.oracle_s = 0.0


class PaperGrid(Workload):
    """The paper's grid through `leaguesched bench`, one grid per round."""

    def __init__(self, seed: int, outdir: Path, spec: GridSpec = GridSpec()) -> None:
        super().__init__()
        from leaguesched import cli

        self.cli, self.spec, self.min_rounds = cli, spec, spec.grids
        self.masters = [derive(seed, 0, g) for g in range(spec.grids)]
        outdir.mkdir(parents=True, exist_ok=True)
        self.csv, self.svg = outdir / "grid.csv", outdir / "grid.svg"
        self.configs = []
        for g, master in enumerate(self.masters):
            path = outdir / f"grid{g}.json"
            config = {
                "task_counts": list(spec.task_counts),
                "n_vms": spec.n_vms,
                "vm_speed_mips": spec.speed,
                "length_range_mi": list(spec.length_range),
                "repetitions": spec.reps,
                "lca_params": {"league_size": spec.league_size, "seasons": spec.seasons},
                "master_seed": master,
            }
            path.write_text(json.dumps(config), encoding="utf-8")
            self.configs.append(str(path))

    def run_round(self, r: int) -> int:
        argv = ["bench", "--config", self.configs[r % self.spec.grids], "--out", str(self.csv),
                "--svg", str(self.svg), "--time"]
        return self.cli.dispatch(argv)

    def check(self, r: int, code: int) -> list[list[str]]:
        s, g = self.spec, r % self.spec.grids
        text = self.csv.read_text(encoding="utf-8") if code == 0 and self.csv.exists() else ""
        # wall_ms is the one column --time fills; the reference checks ignore it.
        by_record = checks.check_grid_csv(
            text, self.masters[g], s.task_counts, s.reps, s.n_vms, s.speed,
            s.length_range, s.league_size, s.seasons,
        )
        svg_ok = self.svg.exists() and self.svg.read_text(encoding="utf-8").startswith("<svg")
        results = list(by_record.values()) + [[] if svg_ok else ["chart missing"]]
        if code != 0:
            results = [[f"bench exited {code}"]] * len(results)
        elif not any(by_record.values()):
            rows = {tuple(line.split(",")[:3]): line.split(",") for line in text.split("\n")}
            for n in s.task_counts:
                for rep in range(s.reps):
                    row = rows[("LCA", str(n), str(rep))]
                    self.lca_evals += int(row[5])
                    self.lca_run_s.append(int(row[6]) / 1000.0)
                    lengths = checks.synthetic_lengths(
                        n, *s.length_range, checks.cell_seed(self.masters[g], n, rep)
                    )
                    lb = checks.lower_bound(lengths, [s.speed] * s.n_vms)
                    self.gap[(g, n, rep)] = float(row[4]) / lb - 1.0
        self.csv.unlink(missing_ok=True)
        self.svg.unlink(missing_ok=True)
        return results


class HeteroLarge(Workload):
    """`lca.run` and the three baselines on large traces over VMs of unequal speed."""

    def __init__(self, seed: int, outdir: Path, spec: HeteroSpec = HeteroSpec()) -> None:
        super().__init__()
        from leaguesched import baselines, lca, model, workload

        self.lca, self.model, self.baselines, self.workload = lca, model, baselines, workload
        self.spec = spec
        outdir.mkdir(parents=True, exist_ok=True)
        lo, hi = spec.length_range
        slo, shi = spec.speed_range
        self.instances = []
        for i, n in enumerate(spec.sizes):
            lengths = [lo + u * (hi - lo) for u in checks.uniforms(derive(seed, 1, i), n)]
            speeds = [slo + u * (shi - slo) for u in checks.uniforms(derive(seed, 2, i), spec.n_vms)]
            trace = outdir / f"trace{i}.csv"
            rows = "".join(f"{k},{x!r}\n" for k, x in enumerate(lengths))
            trace.write_text("task_id,length_mi\n" + rows, encoding="utf-8")
            vms = tuple(model.VirtualMachine(id=v, speed_mips=x) for v, x in enumerate(speeds))
            params = lca.LcaParams(
                league_size=spec.league_size, seasons=spec.seasons, seed=derive(seed, 3, i)
            )
            self.instances.append((trace, lengths, speeds, vms, params))

    def run_round(self, r: int) -> list:
        out = []
        for trace, _, _, vms, params in self.instances:
            with open(trace, encoding="utf-8") as f:
                tasks = self.workload.load_trace(f)
            instance = self.model.ProblemInstance(tuple(tasks), vms)
            started = time.perf_counter()
            result = self.lca.run(params, instance)
            run_s = time.perf_counter() - started
            greedy = {}
            for kind in checks.GREEDY:
                assignment = getattr(self.baselines, kind.lower())(instance)
                greedy[kind] = (assignment, self.model.makespan(instance, assignment).makespan_s)
            out.append((tasks, result, run_s, greedy))
        return out

    def check(self, r: int, out: list) -> list[list[str]]:
        results = []
        for i, (tasks, result, run_s, greedy) in enumerate(out):
            _, lengths, speeds, _, params = self.instances[i]
            loaded = [(t.id, t.length_mi, t.arrival_index) for t in tasks]
            results.append(
                [] if loaded == [(k, x, k) for k, x in enumerate(lengths)]
                else ["load_trace: tasks differ from the trace written"]
            )
            for kind, (assignment, ms) in greedy.items():
                results.append(checks.check_greedy(kind, lengths, speeds, assignment.vm_of, ms))
            lca_problems = checks.check_lca_run(
                lengths, speeds, result.best_assignment.vm_of, result.best_makespan_s,
                result.history, result.evaluations, params.league_size, params.seasons,
                [ms for _, ms in greedy.values()],
            )
            results.append(lca_problems)
            self.lca_evals += result.evaluations
            self.lca_run_s.append(run_s)
            if not lca_problems:
                self.gap[i] = result.best_makespan_s / checks.lower_bound(lengths, speeds) - 1.0
        return results


class ExactSmall(Workload):
    """`brute_force_optimum`, `lower_bound` and the baselines on instances small enough to enumerate."""

    def __init__(self, seed: int, outdir: Path, spec: ExactSpec = ExactSpec()) -> None:
        super().__init__()
        from leaguesched import baselines, model, oracle

        self.model, self.baselines, self.oracle = model, baselines, oracle
        lo, hi = spec.length_range
        slo, shi = spec.speed_range
        self.instances = []
        for i, (m, n, equal) in enumerate(spec.shapes):
            lengths = [lo + u * (hi - lo) for u in checks.uniforms(derive(seed, 4, i), n)]
            if equal:
                speeds = [spec.equal_speed] * m
            else:
                speeds = [slo + u * (shi - slo) for u in checks.uniforms(derive(seed, 5, i), m)]
            instance = model.ProblemInstance(
                tuple(model.Task(id=k, length_mi=x, arrival_index=k) for k, x in enumerate(lengths)),
                tuple(model.VirtualMachine(id=v, speed_mips=x) for v, x in enumerate(speeds)),
            )
            self.instances.append((instance, lengths, speeds))
        self._references: dict[int, tuple[tuple[int, ...], float]] = {}

    def run_round(self, r: int) -> list:
        out = []
        for instance, _, _ in self.instances:
            lb = self.oracle.lower_bound(instance)
            greedy = {}
            for kind in checks.GREEDY:
                assignment = getattr(self.baselines, kind.lower())(instance)
                greedy[kind] = (assignment, self.model.makespan(instance, assignment).makespan_s)
            started = time.perf_counter()
            best, opt = self.oracle.brute_force_optimum(instance)
            out.append((lb, greedy, best, opt, time.perf_counter() - started))
        return out

    def check(self, r: int, out: list) -> list[list[str]]:
        results = []
        for i, (lb, greedy, best, opt, oracle_s) in enumerate(out):
            _, lengths, speeds = self.instances[i]
            if i not in self._references:
                self._references[i] = checks.enumerate_optimum(lengths, speeds)
            for kind, (assignment, ms) in greedy.items():
                results.append(checks.check_greedy(kind, lengths, speeds, assignment.vm_of, ms))
            results.append(
                checks.check_optimum(
                    lengths, speeds, best.vm_of, opt, lb,
                    {kind: ms for kind, (_, ms) in greedy.items()}, self._references[i],
                )
            )
            self.oracle_assignments += len(speeds) ** len(lengths)
            self.oracle_s += oracle_s
        return results


WORKLOADS = {"paper_grid": PaperGrid, "hetero_large": HeteroLarge, "exact_small": ExactSmall}

# Inputs of the cross-probes do not depend on --seed.
PROBE_SEED = 0x5EED
# One paper-sized instance (100 tasks on 20 equal-speed VMs) for the league probe,
# with 10 seasons so that a run holds many short probe calls.
LCA_PROBE = HeteroSpec(sizes=(100,), n_vms=20, length_range=(200.0, 500.0),
                       speed_range=(1000.0, 1000.0), seasons=10)
ORACLE_PROBE = ExactSpec(shapes=ExactSpec().shapes[:12])


def cross_probe(workload: Workload, outdir: Path) -> Workload:
    """The workload that measures the end-to-end figures `workload`'s own rounds do not.

    Every end-to-end metric is reported on every workload: the league
    workloads get the exhaustive oracle, exact_small gets the league search,
    on fixed inputs and timed apart from the workload's rounds.
    """
    if isinstance(workload, ExactSmall):
        return HeteroLarge(PROBE_SEED, outdir, LCA_PROBE)
    return ExactSmall(PROBE_SEED, outdir, ORACLE_PROBE)


def end_to_end(workload: Workload, side: Workload, round_s: list[float]) -> dict[str, float]:
    """The figures a user sees, from a workload's rounds and its cross-probe."""
    league, exact = (side, workload) if isinstance(workload, ExactSmall) else (workload, side)
    league_s = sum(league.lca_run_s) if league is side else sum(round_s)
    return {
        "wall_s": statistics.median(round_s),
        "lca_evals_per_s": league.lca_evals / league_s,
        "lca_run_s": statistics.median(league.lca_run_s),
        "lca_gap_to_lb": statistics.fmean(league.gap.values()),
        "oracle_assignments_per_s": exact.oracle_assignments / exact.oracle_s,
    }
