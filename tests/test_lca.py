import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from leaguesched import (
    Assignment,
    LcaParams,
    ProblemInstance,
    SplitMix64,
    Task,
    VirtualMachine,
    WorkloadSpec,
    bef,
    brute_force_optimum,
    decode,
    encode,
    fcfs,
    generate_synthetic,
    ljf,
    makespan,
    mix64,
    run,
)
from leaguesched.lca import (
    League,
    init_league,
    play_match,
    season_fixtures,
    update_formation,
    win_probability,
)


class ScriptedRng:
    """Stand-in PRNG that replays scripted draws, for deterministic rule tests."""

    def __init__(self, singles=(), blocks=()):
        self._singles = list(singles)
        self._blocks = [np.asarray(b, dtype=float) for b in blocks]

    def uniform(self):
        return self._singles.pop(0)

    def uniforms(self, k):
        block = self._blocks.pop(0)
        assert len(block) == k
        return block


def _league(formations, fitness, rng, last_opponent=None, won=None):
    """A league whose teams hold the given formations as both current and best."""
    x = np.asarray(formations, dtype=float)
    f = np.asarray(fitness, dtype=float)
    size = len(f)
    return League(
        current=x,
        current_fitness=f,
        best=x.copy(),
        best_fitness=f.copy(),
        last_opponent=np.array(last_opponent if last_opponent is not None else [-1] * size),
        won=np.array(won if won is not None else [False] * size),
        champion=int(np.argmin(f)),
        rng=rng,
        evaluate=None,
    )


def _proposer(formation, previous, won, rng, upcoming=None, upcoming_won=True):
    """Team 0, last matched with team 1; team 2, if given, is its upcoming opponent."""
    rows = [formation, previous] + ([upcoming] if upcoming is not None else [])
    return _league(
        rows,
        [5.0, 6.0, 6.0][: len(rows)],
        rng,
        last_opponent=[1, 0, 1][: len(rows)],
        won=[won, not won, upcoming_won][: len(rows)],
    )


# ---------------------------------------------------------------- encoding


def test_encode_centers_buckets():
    assert list(encode(Assignment((0, 1, 2)))) == [0.5, 1.5, 2.5]
    assert list(encode(Assignment((0,)))) == [0.5]


def test_decode_floors():
    assert decode(np.array([1.9, 0.0, 2.7]), 3).vm_of == (1, 0, 2)


def test_decode_clamps_both_ends():
    assert decode(np.array([-0.3, 3.2]), 3).vm_of == (0, 2)
    assert decode(np.array([0.5]), 1).vm_of == (0,)


def test_decode_encode_round_trip():
    rng = SplitMix64(11)
    for _ in range(50):
        m = 1 + int(rng.uniform() * 6)
        vm_of = tuple(int(rng.uniform() * m) for _ in range(8))
        assert decode(encode(Assignment(vm_of)), m).vm_of == vm_of


# ---------------------------------------------------------------- fixtures


def test_round_robin_two_teams():
    assert season_fixtures(2, 1) == [[(0, 1)]]


def test_round_robin_four_teams_circle_method():
    assert season_fixtures(4, 1) == [
        [(0, 3), (1, 2)],
        [(0, 2), (3, 1)],
        [(0, 1), (2, 3)],
    ]


@pytest.mark.parametrize("league_size", [4, 6, 20])
def test_round_robin_covers_every_pair_once(league_size):
    weeks = season_fixtures(league_size, 1)
    assert len(weeks) == league_size - 1
    seen = []
    for week in weeks:
        assert len(week) == league_size // 2
        busy = [t for pair in week for t in pair]
        assert len(busy) == len(set(busy))
        seen += [frozenset(p) for p in week]
    assert sorted(seen, key=sorted) == sorted(
        (frozenset(p) for p in itertools.combinations(range(league_size), 2)),
        key=sorted,
    )


@pytest.mark.parametrize("n_teams,season", [(4, 1), (4, 3), (6, 2), (5, 1), (7, 4)])
def test_season_fixtures_are_valid_round_robins(n_teams, season):
    weeks = season_fixtures(n_teams, season)
    pairs = [frozenset(p) for week in weeks for p in week]
    assert len(pairs) == len(set(pairs)) == n_teams * (n_teams - 1) // 2
    for week in weeks:
        busy = [t for pair in week for t in pair]
        assert len(busy) == len(set(busy))
        assert all(0 <= t < n_teams for t in busy)


def test_season_rotation_changes_pairing_order():
    assert season_fixtures(6, 1) != season_fixtures(6, 2)


# ---------------------------------------------------------------- match math


def test_win_probability_spot_values():
    assert win_probability(10.0, 10.0, 4.0) == 0.5
    assert win_probability(4.0, 10.0, 4.0) == 1.0
    assert win_probability(6.0, 10.0, 4.0) == 0.75
    assert win_probability(4.0, 4.0, 4.0) == 0.5


def test_win_probability_rejects_stale_ideal_value():
    with pytest.raises(ValueError):
        win_probability(3.0, 10.0, 4.0)
    with pytest.raises(ValueError):
        win_probability(10.0, 3.0, 4.0)


def test_win_probabilities_sum_to_one():
    rng = SplitMix64(8)
    for _ in range(2000):
        f_hat = rng.uniform() * 100.0
        f_i = f_hat + rng.uniform() * 50.0
        f_j = f_hat + rng.uniform() * 50.0
        p_i = win_probability(f_i, f_j, f_hat)
        p_j = win_probability(f_j, f_i, f_hat)
        assert 0.0 <= p_i <= 1.0
        assert abs(p_i + p_j - 1.0) <= 1e-12


def test_win_probability_decreases_as_fitness_worsens():
    probs = [win_probability(f_i, 10.0, 0.0) for f_i in (1.0, 2.0, 5.0, 10.0, 40.0)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_win_probability_approaches_one_against_hopeless_opponent():
    assert win_probability(6.0, 1e15, 4.0) >= 1.0 - 1e-9


def test_play_match_certain_win():
    for seed in range(5):
        league = _league([[0.5], [1.5]], [4.0, 10.0], SplitMix64(seed))  # team 0 at f_hat: p_i = 1
        winner, loser = play_match(league, 0, 1)
        assert (winner, loser) == (0, 1)
        assert league.won.tolist() == [True, False]
        assert league.last_opponent.tolist() == [1, 0]


def test_play_match_certain_loss():
    league = _league([[0.5], [1.5]], [10.0, 4.0], ScriptedRng(singles=[0.0]))
    winner, _ = play_match(league, 0, 1)  # p_i = 0: team 1 must win even on a zero draw
    assert winner == 1


def test_play_match_frequency_tracks_probability():
    # f_i=6, f_j=10 and team 2 holding f_hat=4 give p_i = 0.75
    league = _league([[0.5], [1.5], [2.5]], [6.0, 10.0, 4.0], SplitMix64(424242))
    wins = sum(play_match(league, 0, 1)[0] == 0 for _ in range(20_000))
    assert abs(wins / 20_000 - 0.75) < 0.02


# ---------------------------------------------------------------- update rule


def _params(**kw):
    defaults = dict(league_size=4, seasons=1, seed=0)
    defaults.update(kw)
    return LcaParams(**defaults)


def test_update_zero_weights_returns_best_exactly():
    rng = ScriptedRng(singles=[0.99], blocks=[[0.0, 0.0, 0.0], [0.3] * 6])
    league = _proposer([1.2, 0.4, 2.8], [0.1, 0.1, 0.1], True, rng)
    # LcaParams refuses zero weights; the update rule reads only these four fields.
    params = SimpleNamespace(change_probability=1.0, w1=0.0, w2=0.0, swap_probability=0.0)
    out = update_formation(league, 0, -1, params, 3)
    assert list(out) == [1.2, 0.4, 2.8]


def test_update_hand_example():
    # B=[1.0], previous opponent at [2.0], upcoming opponent at [0.0], both
    # sides won last week, unit weights, r1=r2=1, mask on, 3 VMs:
    # 1 + (1*(1-2) + 1*(1-0)) = 1.0
    rng = ScriptedRng(singles=[0.99], blocks=[[0.0], [1.0, 1.0]])
    league = _proposer([1.0], [2.0], True, rng, upcoming=[0.0], upcoming_won=True)
    out = update_formation(league, 0, 2, _params(), 3)
    assert list(out) == [1.0]


def test_update_loss_flips_step_direction():
    # Same setup but the team lost: 1 + (-1*(1-2) + 1*(1-0)) = 3.0, clamped < 3
    rng = ScriptedRng(singles=[0.99], blocks=[[0.0], [1.0, 1.0]])
    league = _proposer([1.0], [2.0], False, rng, upcoming=[0.0], upcoming_won=True)
    out = update_formation(league, 0, 2, _params(), 3)
    assert out[0] == pytest.approx(3.0 - 1e-9)


def test_update_mask_redrawn_until_nonempty():
    rng = ScriptedRng(singles=[0.99], blocks=[[0.9], [0.9], [0.1], [1.0, 1.0]])
    league = _proposer([1.0], [2.0], True, rng)
    out = update_formation(league, 0, -1, _params(change_probability=0.5), 3)
    assert list(out) == [0.0]  # only the retrospective step: 1 + (1-2) = 0


def test_update_swap_branch_exchanges_two_positions():
    rng = ScriptedRng(singles=[0.0, 0.0, 0.9])  # take swap; i=0; j=1 -> bumped to 2
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True, rng)
    out = update_formation(league, 0, -1, _params(), 3)
    assert list(out) == [2.5, 1.5, 0.5]


def test_update_swap_clamps_a_draw_of_exactly_one():
    rng = ScriptedRng(singles=[0.0, 1.0, 0.0])  # take swap; i=min(3, 2)=2; j=0
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True, rng)
    out = update_formation(league, 0, -1, _params(), 3)
    assert list(out) == [2.5, 1.5, 0.5]


def test_update_swap_probability_one_swaps_on_a_draw_of_one():
    rng = ScriptedRng(singles=[1.0, 0.0, 0.9])  # take swap even at u = 1; i=0; j=1 -> bumped to 2
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True, rng)
    out = update_formation(league, 0, -1, _params(swap_probability=1.0), 3)
    assert list(out) == [2.5, 1.5, 0.5]


def test_update_swap_probability_zero_never_swaps_on_a_draw_of_zero():
    rng = ScriptedRng(singles=[0.0], blocks=[[0.0, 0.0, 0.0], [1.0] * 6])
    league = _proposer([0.5, 1.0, 1.25], [0.0, 0.0, 0.0], True, rng)
    out = update_formation(league, 0, -1, _params(swap_probability=0.0), 3)
    assert list(out) == [1.0, 2.0, 2.5]  # the masked step: B + (B - 0)


def test_update_change_probability_one_masks_a_draw_of_one():
    rng = ScriptedRng(singles=[0.99], blocks=[[0.2, 1.0, 0.2], [1.0] * 6])
    league = _proposer([0.5, 1.0, 1.25], [0.0, 0.0, 0.0], True, rng)
    out = update_formation(league, 0, -1, _params(change_probability=1.0), 3)
    assert list(out) == [1.0, 2.0, 2.5]  # all three coordinates move


def test_update_swap_preserves_coordinate_multiset():
    league = _proposer([0.5, 1.5, 2.5, 0.5], np.zeros(4), False, SplitMix64(5))
    params = _params(swap_probability=1.0)
    out = update_formation(league, 0, -1, params, 3)
    assert sorted(out) == sorted(league.best[0])


def test_update_requires_match_history():
    league = _league([[1.0], [2.0]], [5.0, 6.0], SplitMix64(1))  # nobody has played yet
    with pytest.raises(RuntimeError):
        update_formation(league, 0, 1, _params(), 3)


def test_update_always_stays_in_vm_range():
    rng = SplitMix64(2)
    params = _params(w1=50.0, w2=50.0, swap_probability=0.2)
    for trial in range(200):
        m = 1 + int(rng.uniform() * 5)
        n = 1 + int(rng.uniform() * 9)
        rows = [rng.uniforms(n) * m for _ in range(3)]
        league = _proposer(*rows[:2], trial % 2 == 1, rng, upcoming=rows[2], upcoming_won=False)
        out = update_formation(league, 0, 2, params, m)
        assert np.all(out >= 0.0) and np.all(out < m)


# ---------------------------------------------------------------- league init


def _instance(n=6, m=2, seed=17, speed=1000.0):
    tasks = generate_synthetic(WorkloadSpec(n, seed=seed))
    vms = tuple(VirtualMachine(v, speed) for v in range(m))
    return ProblemInstance(tuple(tasks), vms)


def test_init_league_seeds_baseline_schedules():
    inst = _instance(n=8, m=3)
    league = init_league(LcaParams(league_size=6, seed=1), inst)
    assert decode(league.current[0], 3) == fcfs(inst)
    assert decode(league.current[1], 3) == ljf(inst)
    assert decode(league.current[2], 3) == bef(inst)


def test_init_league_global_best_is_min_fitness():
    inst = _instance(n=8, m=3)
    league = init_league(LcaParams(league_size=6, seed=1), inst)
    assert league.f_hat == league.current_fitness.min() == league.best_fitness.min()
    assert league.champion == int(np.argmin(league.current_fitness))
    assert np.array_equal(league.best, league.current)
    assert league.last_opponent.tolist() == [-1] * 6
    assert league.evaluations == 6


def test_init_league_is_deterministic():
    inst = _instance(n=8, m=3)
    a = init_league(LcaParams(league_size=6, seed=9), inst)
    b = init_league(LcaParams(league_size=6, seed=9), inst)
    assert np.array_equal(a.current, b.current)
    assert np.array_equal(a.current_fitness, b.current_fitness)


def test_init_league_random_formations_in_range():
    inst = _instance(n=10, m=4)
    league = init_league(
        LcaParams(league_size=8, seed=3, seed_with_baselines=False), inst
    )
    assert league.current.shape == (8, 10)
    assert np.all(league.current >= 0.0) and np.all(league.current < 4.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(league_size=3),
        dict(seasons=0),
        dict(change_probability=0.0),
        dict(change_probability=1.5),
        dict(swap_probability=-0.1),
        dict(w1=0.0),
        dict(seed=-1),
        dict(league_size="x"),
        dict(seasons=2.5),
        dict(change_probability=math.nan),
        dict(w2=math.inf),
        dict(seed=2**64),
        dict(seed_with_baselines="yes"),
    ],
)
def test_invalid_params_rejected(bad):
    (field,) = bad
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        LcaParams(**bad)


# ---------------------------------------------------------------- full runs


def test_run_degenerate_single_task_single_vm():
    inst = ProblemInstance((Task(0, 300.0, 0),), (VirtualMachine(0, 100.0),))
    result = run(LcaParams(league_size=4, seasons=1, seed=5), inst)
    assert result.best_makespan_s == 3.0
    assert result.best_assignment.vm_of == (0,)


def test_run_never_worse_than_best_baseline():
    for seed in range(5):
        inst = _instance(n=12, m=3, seed=seed)
        result = run(LcaParams(league_size=6, seasons=4, seed=seed), inst)
        floor = min(
            makespan(inst, scheduler(inst)).makespan_s
            for scheduler in (fcfs, ljf, bef)
        )
        assert result.best_makespan_s <= floor


def test_run_matches_brute_force_on_small_instances():
    # 30 paired seeds at n=6/m=2: the search should land on the true optimum
    # nearly always and never stray beyond 5 percent.
    exact = 0
    for i in range(30):
        seed = mix64(1000 + i)
        inst = _instance(n=6, m=2, seed=seed)
        _, optimum = brute_force_optimum(inst)
        result = run(LcaParams(league_size=12, seasons=60, seed=mix64(seed ^ 3)), inst)
        exact += result.best_makespan_s == optimum
        assert result.best_makespan_s <= 1.05 * optimum
    assert exact >= 27  # >= 90 percent


def test_run_is_deterministic():
    inst = _instance(n=10, m=3, seed=4)
    params = LcaParams(league_size=6, seasons=5, seed=99)
    a = run(params, inst)
    b = run(params, inst)
    assert a.history == b.history
    assert a.best_assignment == b.best_assignment
    assert a.best_makespan_s == b.best_makespan_s
    assert a.evaluations == b.evaluations


def test_run_history_is_nonincreasing_and_weekly():
    params = LcaParams(league_size=6, seasons=7, seed=12)
    result = run(params, _instance(n=10, m=3, seed=2))
    assert len(result.history) == 7 * 5  # seasons * (league_size - 1)
    assert all(b <= a for a, b in zip(result.history, result.history[1:]))


def test_run_reported_makespan_matches_final_history_entry():
    result = run(LcaParams(league_size=6, seasons=4, seed=8), _instance(n=9, m=3))
    assert result.best_makespan_s == result.history[-1]


def test_run_counts_evaluations():
    params = LcaParams(league_size=4, seasons=3, seed=6)
    result = run(params, _instance(n=5, m=2))
    weeks = 3 * 3
    assert result.evaluations == 4 + (weeks - 1) * 4


def test_run_handles_odd_league_with_byes():
    params = LcaParams(league_size=5, seasons=4, seed=21)
    result = run(params, _instance(n=8, m=3, seed=5))
    assert len(result.history) == 4 * 5  # padded to 6 slots: 5 weeks per season
    assert all(b <= a for a, b in zip(result.history, result.history[1:]))
    assert all(0 <= v < 3 for v in result.best_assignment.vm_of)


def test_run_without_baseline_seeding_still_valid():
    inst = _instance(n=6, m=2, seed=31)
    result = run(
        LcaParams(league_size=6, seasons=10, seed=7, seed_with_baselines=False), inst
    )
    _, optimum = brute_force_optimum(inst)
    assert result.best_makespan_s >= optimum
