"""End-to-end acceptance gates for the scheduler toolkit.

Each test prints one PASS/FAIL line (visible with -s) so a full run reads as
a checklist. The default benchmark grid is executed once per session and
shared by the tests that consume it; a second full run backs the
byte-reproducibility gate.

The strict LCA-below-FCFS gate (criterion 6b) compares means strictly at
every task count where FCFS could be beaten. A task count is exempt only when
every repetition's FCFS makespan equals the analytic lower bound, which makes
FCFS provably optimal there (20 tasks on 20 equal-speed VMs: one task per
VM); in those repetitions LCA must reach the same optimum exactly.
"""

import hashlib
import io
import itertools
import time

import numpy as np
import pytest
from test_lca import reference_fixtures

from leaguesched import (
    ExperimentConfig,
    LcaParams,
    ProblemInstance,
    SchedulerKind,
    SplitMix64,
    Task,
    VirtualMachine,
    WorkloadSpec,
    aggregate,
    bef,
    brute_force_optimum,
    emit_csv,
    fcfs,
    generate_synthetic,
    ljf,
    lower_bound,
    makespan,
    mix64,
    run,
    run_experiment,
)
from leaguesched.lca import League, play_match, win_probability

K = SchedulerKind


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def bench():
    """One full default-grid benchmark run, with LCA histories captured."""
    config = ExperimentConfig()
    histories = []
    started = time.perf_counter()
    records = run_experiment(
        config, history_callback=lambda record, h: histories.append((record, h))
    )
    elapsed = time.perf_counter() - started
    return config, records, histories, elapsed


def test_probability_normalization():
    started = time.perf_counter()
    u = SplitMix64(20260809).uniforms(30_000).reshape(10_000, 3)
    f_hat = u[:, 0] * 100.0
    f_i, f_j = f_hat + u[:, 1] * 50.0, f_hat + u[:, 2] * 50.0
    p_i = win_probability(f_i, f_j, f_hat)
    p_j = win_probability(f_j, f_i, f_hat)
    assert np.all((0.0 <= p_i) & (p_i <= 1.0) & (0.0 <= p_j) & (p_j <= 1.0))
    worst = float(np.abs(p_i + p_j - 1.0).max())
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 1",
        ok,
        f"p_i + p_j = 1 within {worst:.2e} over 10^4 triples in {elapsed:.3f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_win_probability_spot_values():
    values = tuple(
        win_probability(np.array([6.0, 10.0, 4.0, 4.0]), np.array([10.0, 10.0, 10.0, 4.0]), 4.0).tolist()
    )
    ok = values == (0.75, 0.5, 1.0, 0.5)
    _report("criterion 2", ok, f"spot values {values} == (0.75, 0.5, 1.0, 0.5)")
    assert values == (0.75, 0.5, 1.0, 0.5)


def test_match_frequency():
    # 10^5 fixtures of fitness 6 against 10 in one week; the last team holds f_hat = 4, so p = 0.75
    k = 100_000
    x = np.full((2 * k + 1, 1), 0.5)
    fitness = np.array([6.0, 10.0] * k + [4.0])
    league = League(current=x, best=x, best_fitness=fitness, won=np.zeros(2 * k + 1, dtype=bool), champion=2 * k)
    home = np.arange(0, 2 * k, 2)
    play_match(league, fitness, home, home + 1, SplitMix64(777).uniforms(k))
    freq = float(np.mean(np.where(league.won[home], home, home + 1) == home))
    ok = abs(freq - 0.75) <= 0.01
    _report("criterion 3", ok, f"empirical win rate {freq:.4f} within 0.01 of 0.75")
    assert abs(freq - 0.75) <= 0.01


def test_fixture_validity():
    started = time.perf_counter()
    for league_size in (4, 6, 20):
        all_pairs = {frozenset(p) for p in itertools.combinations(range(league_size), 2)}
        for weeks in (
            reference_fixtures(league_size, season=1),
            reference_fixtures(league_size, season=2),
            reference_fixtures(league_size, season=5),
        ):
            seen = [frozenset(p) for week in weeks for p in week]
            assert len(seen) == len(set(seen)), "a pairing repeats within a season"
            assert set(seen) == all_pairs, "a season misses a pairing"
            for week in weeks:
                busy = [t for pair in week for t in pair]
                assert len(busy) == len(set(busy)), "a team plays twice in one week"
    elapsed = time.perf_counter() - started
    _report("criterion 4", True, f"round robins valid for L in (4, 6, 20) in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_search_matches_brute_force_oracle():
    vms = tuple(VirtualMachine(v, 1000.0) for v in range(2))
    exact = 0
    started = time.perf_counter()
    for i in range(50):
        seed = mix64(1000 + i)
        tasks = generate_synthetic(WorkloadSpec(6, seed=seed))
        instance = ProblemInstance(tuple(tasks), vms)
        _, optimum = brute_force_optimum(instance)
        result = run(
            LcaParams(league_size=12, seasons=60, seed=mix64(seed ^ K.LCA.value)),
            instance,
        )
        exact += result.best_makespan_s == optimum
        assert result.best_makespan_s <= 1.05 * optimum, (
            f"instance {i}: {result.best_makespan_s} outside 5% of optimum {optimum}"
        )
    elapsed = time.perf_counter() - started
    ok = exact >= 45 and elapsed < 30.0
    _report(
        "criterion 5",
        ok,
        f"exact optimum in {exact}/50 instances (need >= 45), {elapsed:.1f}s (< 30s)",
    )
    assert exact >= 45
    assert elapsed < 30.0


def test_search_against_the_true_optimum_on_three_and_four_vms():
    # Equal-speed VMs with more tasks than VMs, so FCFS is not certified optimal
    # and the exact optimum is the only reference that shows how close LCA gets.
    # lower_bound sums all lengths in one expression, so it gets a rounding slack.
    shapes = [(3, 12), (3, 12), (4, 10), (4, 10), (4, 11), (4, 11)]
    gaps = []
    started = time.perf_counter()
    for i, (n_vms, n_tasks) in enumerate(shapes):
        seed = mix64(2000 + i)
        tasks = generate_synthetic(WorkloadSpec(n_tasks, seed=seed))
        instance = ProblemInstance(tuple(tasks), tuple(VirtualMachine(v, 1000.0) for v in range(n_vms)))
        bound, (_, optimum) = lower_bound(instance), brute_force_optimum(instance)
        league_s = run(LcaParams(seed=mix64(seed ^ K.LCA.value)), instance).best_makespan_s
        greedy_s = [makespan(instance, scheduler(instance)).makespan_s for scheduler in (fcfs, ljf, bef)]
        assert greedy_s[0] != bound, f"instance {i}: FCFS is certified optimal"
        assert bound <= optimum * (1.0 + 1e-12) and optimum <= league_s <= min(greedy_s), f"instance {i}"
        gaps.append(league_s / optimum - 1.0)
    elapsed = time.perf_counter() - started
    exact = sum(gap == 0.0 for gap in gaps)
    _report(
        "LCA vs OPT",
        True,
        f"exact optimum in {exact}/{len(gaps)}, mean gap {sum(gaps) / len(gaps):.3%}, {elapsed:.1f}s",
    )


def test_grid_league_never_above_any_baseline(bench):
    _, records, _, _ = bench
    agg = aggregate(records)
    violations = [
        (kind.name, n)
        for n in agg.task_counts
        for kind in (K.FCFS, K.LJF, K.BEF)
        if agg.mean_s[(K.LCA, n)] > agg.mean_s[(kind, n)]
    ]
    _report("criterion 6a", not violations, f"LCA mean <= every baseline mean at all task counts {list(agg.task_counts)}")
    assert not violations, f"LCA mean above baseline at: {violations}"


def test_grid_league_strictly_below_fcfs_everywhere(bench):
    config, records, _, _ = bench
    agg = aggregate(records)
    vms = tuple(VirtualMachine(v, float(config.vm_speed_mips)) for v in range(config.n_vms))
    lca_of = {(r.n_tasks, r.rep): r.makespan_s for r in records if r.scheduler is K.LCA}
    # A repetition is certified when FCFS already meets the lower bound, so no
    # schedule can beat it; LCA must then hit that optimum exactly.
    certified: dict[int, list[bool]] = {}
    above_optimum = []
    for r in records:
        if r.scheduler is not K.FCFS:
            continue
        tasks = generate_synthetic(WorkloadSpec(r.n_tasks, *config.length_range_mi, seed=r.seed))
        optimum = lower_bound(ProblemInstance(tuple(tasks), vms))
        is_certified = r.makespan_s == optimum
        certified.setdefault(r.n_tasks, []).append(is_certified)
        if is_certified and lca_of[(r.n_tasks, r.rep)] != optimum:
            above_optimum.append((r.n_tasks, r.rep, lca_of[(r.n_tasks, r.rep)], optimum))
    exempt = [n for n in agg.task_counts if all(certified[n])]
    strict = [n for n in agg.task_counts if n not in exempt]
    ties = [n for n in strict if not agg.mean_s[(K.LCA, n)] < agg.mean_s[(K.FCFS, n)]]
    ok = bool(strict) and not ties and not above_optimum
    _report(
        "criterion 6b",
        ok,
        f"strict at {len(strict)} task counts; certified optimal (FCFS == lower bound) "
        f"at {exempt}; non-strict at {ties or 'none'}; LCA above a certified optimum "
        f"at {above_optimum or 'none'}",
    )
    assert strict, f"every task count {exempt} is certified optimal, so nothing was compared"
    assert not ties, f"LCA mean not strictly below FCFS mean at task counts {ties}"
    assert not above_optimum, (
        f"LCA above the certified optimum (n_tasks, rep, lca, optimum): {above_optimum}"
    )


def test_grid_league_wins_grand_means(bench):
    _, records, _, _ = bench
    grand = aggregate(records).grand_mean_s
    ok = all(grand[K.LCA] < grand[kind] for kind in (K.FCFS, K.LJF, K.BEF))
    detail = ", ".join(f"{kind.name}={grand[kind]:.5f}" for kind in K)
    _report("criterion 6c", ok, f"grand means: {detail}; LCA strictly smallest")
    assert ok, f"LCA grand mean not strictly smallest: {grand}"


def test_grid_fcfs_has_largest_grand_mean(bench):
    _, records, _, _ = bench
    grand = aggregate(records).grand_mean_s
    ok = all(grand[K.FCFS] >= grand[kind] for kind in grand)
    _report("criterion 6d", ok, f"FCFS grand mean {grand[K.FCFS]:.5f} is the largest")
    assert ok, f"FCFS grand mean is not the largest: {grand}"


def test_grid_runtime_budget(bench):
    _, records, _, elapsed = bench
    ok = elapsed < 300.0 and len(records) == 324
    _report("criterion 6", ok, f"default grid: {len(records)} records in {elapsed:.1f}s (< 300s)")
    assert len(records) == 324
    assert elapsed < 300.0


def test_makespan_homogeneity_across_schedulers():
    rng = SplitMix64(31337)
    lca_params = LcaParams(league_size=4, seasons=3, seed=2024)
    for case in range(20):
        n = 5 + int(rng.uniform() * 8)
        m = 2 + int(rng.uniform() * 3)
        tasks = generate_synthetic(WorkloadSpec(n, seed=rng.next_u64()))
        vms = tuple(VirtualMachine(v, 1000.0) for v in range(m))
        base = ProblemInstance(tuple(tasks), vms)
        scaled = ProblemInstance(
            tuple(Task(t.id, t.length_mi * 3.0, t.arrival_index) for t in tasks), vms
        )
        for name, solve in (
            ("fcfs", lambda inst: makespan(inst, fcfs(inst)).makespan_s),
            ("ljf", lambda inst: makespan(inst, ljf(inst)).makespan_s),
            ("bef", lambda inst: makespan(inst, bef(inst)).makespan_s),
            ("lca", lambda inst: run(lca_params, inst).best_makespan_s),
        ):
            before, after = solve(base), solve(scaled)
            assert abs(after - 3.0 * before) <= 1e-9 * abs(3.0 * before), (
                f"case {case}: {name} scaled {before} -> {after}"
            )
    _report("criterion 7", True, "tripling all lengths triples every scheduler's makespan (rel 1e-9, 20 instances)")


def test_benchmark_csv_is_byte_identical_across_runs(bench):
    config, records, _, _ = bench
    first = io.StringIO()
    emit_csv(records, first)
    second = io.StringIO()
    emit_csv(run_experiment(config), second)
    ok = first.getvalue() == second.getvalue()
    n_lines = len(first.getvalue().splitlines())
    _report("criterion 8", ok, f"two default runs emit identical CSV ({n_lines} lines)")
    assert ok


def test_default_grid_csv_is_pinned(bench):
    _, records, _, _ = bench
    sink = io.StringIO()
    emit_csv(records, sink)
    digest = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert digest == "94120841e188dd75f434639d64efb1793a34767dc9cee4ce2df166ba3e7e03d9"


def test_league_history_never_increases(bench):
    _, _, histories, _ = bench
    assert len(histories) == 81  # one per LCA cell
    for record, history in histories:
        rises = [
            (w, a, b) for w, (a, b) in enumerate(zip(history, history[1:])) if b > a
        ]
        assert not rises, f"history rises for n={record.n_tasks} rep={record.rep}: {rises[:3]}"
    _report("criterion 9", True, "all 81 league histories are nonincreasing week over week")
