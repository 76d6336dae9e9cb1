"""Reference computations made apart from leaguesched, and the output checks built on them.

Nothing here imports leaguesched. The SplitMix64 stream, the cell-seed
derivation, the earliest-idle-VM list scheduler, the makespan loop, the lower
bound and the exhaustive enumeration are written again from their
definitions, so a check can only pass when the program agrees with an
independent computation. Every reference accumulates a VM's load in arrival
order, as the program's model does, so equal schedules give bit-equal
makespans and the checks compare floats exactly. All inputs the benchmark
builds keep arrival order equal to list position.

Each check returns a list of problems; an empty list means the operation
passed.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

GREEDY = ("FCFS", "LJF", "BEF")
CSV_HEADER = "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms"


def mix64(x: int) -> int:
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def uniforms(seed: int, k: int) -> list[float]:
    """The first k draws of a SplitMix64 stream, each in [0, 1)."""
    state = seed & MASK64
    out = []
    for _ in range(k):
        state = (state + _GAMMA) & MASK64
        out.append(mix64(state) / float(2**64))
    return out


def cell_seed(master_seed: int, n_tasks: int, rep: int) -> int:
    """Workload seed of one grid cell, as the grid derives it."""
    return mix64((master_seed ^ (n_tasks << 20) ^ rep) & MASK64)


def synthetic_lengths(n: int, lo: float, hi: float, seed: int) -> list[float]:
    """Task lengths of a synthetic batch: lo + u * (hi - lo), one draw per task."""
    span = hi - lo
    return [lo + u * span for u in uniforms(seed, n)]


def greedy_order(kind: str, lengths: list[float]) -> list[int]:
    """Feed order of a greedy baseline; sorts are stable, so ties keep arrival order."""
    n = len(lengths)
    if kind == "FCFS":
        return list(range(n))
    if kind == "LJF":
        return sorted(range(n), key=lambda k: -lengths[k])
    return sorted(range(n), key=lambda k: lengths[k])


def list_schedule(lengths: list[float], speeds: list[float], order: list[int]) -> list[int]:
    """Earliest-idle-VM list scheduling; returns the VM of each task by position.

    Each task in `order` goes to the VM whose busy time is smallest so far,
    the lowest index on ties.
    """
    loads = [0.0] * len(speeds)
    vm_of = [0] * len(lengths)
    for k in order:
        best = 0
        for v in range(1, len(loads)):
            if loads[v] < loads[best]:
                best = v
        loads[best] += lengths[k] / speeds[best]
        vm_of[k] = best
    return vm_of


def plain_makespan(lengths: list[float], speeds: list[float], vm_of) -> float:
    """Largest VM busy time, summing each VM's tasks in arrival order."""
    loads = [0.0] * len(speeds)
    for k, v in enumerate(vm_of):
        loads[v] += lengths[k] / speeds[v]
    return max(loads)


def lower_bound(lengths: list[float], speeds: list[float]) -> float:
    """max(total work / total capacity, longest task / fastest VM)."""
    return max(sum(lengths) / sum(speeds), max(lengths) / max(speeds))


def enumerate_optimum(
    lengths: list[float], speeds: list[float], block: int = 8192
) -> tuple[tuple[int, ...], float]:
    """Exhaustive optimum over all m^n assignments, vectorised in blocks.

    Assignments are visited in lexicographic order (task 0 is the most
    significant digit) and the first minimal one is returned, the tie rule
    of an exhaustive search that keeps only strict improvements.
    """
    n, m = len(lengths), len(speeds)
    durations = np.array(lengths)[:, None] / np.array(speeds)[None, :]
    weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_value, best_index = float("inf"), -1
    total = m**n
    for lo in range(0, total, block):
        codes = np.arange(lo, min(lo + block, total), dtype=np.int64)
        digits = (codes[:, None] // weights[None, :]) % m
        rows = np.arange(codes.size)
        loads = np.zeros((codes.size, m))
        for k in range(n):
            loads[rows, digits[:, k]] += durations[k, digits[:, k]]
        spans = loads.max(axis=1)
        i = int(spans.argmin())
        if spans[i] < best_value:
            best_value, best_index = float(spans[i]), lo + i
    vm_of = tuple(int(d) for d in (best_index // weights) % m)
    return vm_of, best_value


def check_greedy(kind: str, lengths, speeds, vm_of, makespan_s: float) -> list[str]:
    """A baseline's assignment and makespan against the reference list scheduler."""
    expected = list_schedule(lengths, speeds, greedy_order(kind, lengths))
    problems = []
    if list(vm_of) != expected:
        problems.append(f"{kind}: assignment differs from the reference list scheduler")
    if makespan_s != plain_makespan(lengths, speeds, expected):
        problems.append(f"{kind}: makespan {makespan_s!r} differs from the reference")
    return problems


def check_lca_run(
    lengths, speeds, vm_of, best_s: float, history, evaluations: int,
    league_size: int, seasons: int, greedy_s: list[float],
) -> list[str]:
    """One league run: makespan recomputed, history shape and order, bounds."""
    problems = []
    if best_s != plain_makespan(lengths, speeds, vm_of):
        problems.append(f"LCA: best_makespan_s {best_s!r} differs from its assignment's makespan")
    weeks = seasons * (league_size - 1)
    if len(history) != weeks:
        problems.append(f"LCA: history has {len(history)} entries, expected {weeks}")
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("LCA: history increases")
    if history and history[-1] != best_s:
        problems.append(f"LCA: history ends at {history[-1]!r}, not at {best_s!r}")
    expected_evals = league_size + (weeks - 1) * league_size
    if evaluations != expected_evals:
        problems.append(f"LCA: {evaluations} evaluations, expected {expected_evals}")
    if not lower_bound(lengths, speeds) <= best_s <= min(greedy_s):
        problems.append("LCA: outside [lower bound, best greedy]")
    return problems


def check_optimum(
    lengths, speeds, vm_of, opt_s: float, lb_s: float, greedy_s: dict[str, float],
    reference: tuple[tuple[int, ...], float],
) -> list[str]:
    """The oracle against the reference enumeration, the lower bound and Graham's LJF bound."""
    problems = []
    ref_vm_of, ref_s = reference
    if opt_s != ref_s or tuple(vm_of) != ref_vm_of:
        problems.append(f"oracle: {opt_s!r} differs from the reference optimum {ref_s!r}")
    if lb_s != lower_bound(lengths, speeds):
        problems.append(f"oracle: lower_bound {lb_s!r} differs from the reference")
    if not lb_s <= opt_s <= min(greedy_s.values()):
        problems.append("oracle: optimum outside [lower bound, best greedy]")
    m = len(speeds)
    if len(set(speeds)) == 1:
        # Graham (1969): LJF <= (4/3 - 1/(3m)) OPT on identical machines; the
        # relative 1e-12 only absorbs rounding in the product.
        if greedy_s["LJF"] > (4 / 3 - 1 / (3 * m)) * opt_s * (1 + 1e-12):
            problems.append("LJF exceeds Graham's 4/3 bound")
    return problems


def check_grid_csv(
    text: str, master_seed: int, task_counts, reps: int, n_vms: int, speed: float,
    length_range: tuple[float, float], league_size: int, seasons: int,
) -> dict[tuple[str, int, int], list[str]]:
    """Every record of a `bench` CSV for equal-speed VMs, keyed by (scheduler, n, rep).

    Recomputes FCFS/LJF/BEF from the cell seeds and compares them at six
    decimals, checks lower bound <= LCA <= min(greedy) (equality with the bound
    where there are no more tasks than VMs), the evaluation count and the
    canonical row order. Every expected record has an entry; an empty list
    means it passed.
    """
    want = [(k, n, rep) for k in (*GREEDY, "LCA") for n in task_counts for rep in range(reps)]
    lines = text.split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows if len(r) == 7]
    if lines[0] != CSV_HEADER or lines[-1] != "" or keys != want:
        return {key: ["CSV header, final newline or canonical rows wrong"] for key in want}
    table = dict(zip(keys, rows))
    problems: dict[tuple[str, int, int], list[str]] = {key: [] for key in want}
    speeds = [speed] * n_vms
    lo, hi = length_range
    evals = league_size + (seasons * (league_size - 1) - 1) * league_size
    for n in task_counts:
        for rep in range(reps):
            seed = cell_seed(master_seed, n, rep)
            lengths = synthetic_lengths(n, lo, hi, seed)
            lb = lower_bound(lengths, speeds)
            for kind in (*GREEDY, "LCA"):
                row, found = table[(kind, n, rep)], problems[(kind, n, rep)]
                if int(row[3]) != seed:
                    found.append(f"seed {row[3]} != {seed}")
                if kind == "LCA":
                    continue
                ref = plain_makespan(
                    lengths, speeds, list_schedule(lengths, speeds, greedy_order(kind, lengths))
                )
                if row[4] != f"{ref:.6f}":
                    found.append(f"makespan {row[4]} != reference {ref:.6f}")
                if row[5] != "0":
                    found.append(f"evals {row[5]} != 0")
            row, found = table[("LCA", n, rep)], problems[("LCA", n, rep)]
            best_greedy = min(float(table[(k, n, rep)][4]) for k in GREEDY)
            # Six-decimal rounding is monotone, so comparing rounded values is exact.
            if not float(f"{lb:.6f}") <= float(row[4]) <= best_greedy:
                found.append(f"makespan {row[4]} outside [lower bound, best greedy]")
            if n <= n_vms and row[4] != f"{lb:.6f}":
                found.append(f"makespan {row[4]} != lower bound {lb:.6f}")
            if int(row[5]) != evals:
                found.append(f"evals {row[5]} != {evals}")
    return problems
