import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rng import _seed_for_next_output

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
    _vm_index,
    init_league,
    play_match,
    season_fixtures,
    update_formation,
    win_probability,
)
from leaguesched.rng import _GAMMA, MASK64

_BYE = -1
TOP = 2**64 - 1  # a SplitMix64 output that draws exactly 1.0


# ---------------------------------------------------------------- the per-team reference
#
# The engine as it was written before weeks were batched: one Python call per
# team, each making its own draws, and one scalar draw per match. The batched
# update_formation and play_match must agree with it bit for bit.


def reference_win_probability(f_i, f_j, f_hat):
    if f_i < f_hat or f_j < f_hat:
        raise ValueError(f"stale ideal value: f_hat={f_hat} exceeds a fitness ({f_i}, {f_j})")
    denom = (f_i - f_hat) + (f_j - f_hat)
    if denom == 0.0:
        return 0.5
    return (f_j - f_hat) / denom


def reference_play_match(league, i, j):
    p_i = reference_win_probability(league.current_fitness[i], league.current_fitness[j], league.f_hat)
    u = league.rng.uniform()
    winner, loser = (i, j) if p_i > 0.0 and u <= p_i else (j, i)
    league.last_opponent[i], league.last_opponent[j] = j, i
    league.won[winner], league.won[loser] = True, False
    return winner, loser


def reference_update_formation(league, team, upcoming, params, n_vms):
    previous = league.last_opponent[team]
    if previous == _BYE:
        raise RuntimeError(f"team {team} has no match history to update from")
    rng, p = league.rng, params.swap_probability
    best = league.best[team]
    n = best.shape[0]
    if rng.uniform() <= p and p > 0.0:
        new_x = best.copy()
        if n >= 2:
            i = min(int(rng.uniform() * n), n - 1)
            j = min(int(rng.uniform() * (n - 1)), n - 2)
            j += j >= i
            new_x[i], new_x[j] = new_x[j], new_x[i]
        return new_x
    while True:
        mask = rng.uniforms(n) <= params.change_probability
        if mask.any():
            break
    r = rng.uniforms(2 * n)
    s_own = 1.0 if league.won[team] else -1.0
    step = params.w1 * s_own * r[:n] * (best - league.current[previous])
    if upcoming != _BYE and league.last_opponent[upcoming] != _BYE:
        s_next = 1.0 if league.won[upcoming] else -1.0
        step = step + params.w2 * s_next * r[n:] * (best - league.current[upcoming])
    return np.clip(best + mask * step, 0.0, n_vms - 1e-9)


def _rng_drawing(t, output):
    """A fresh stream whose t-th draw (t >= 1) is the 64-bit `output`."""
    return SplitMix64((_seed_for_next_output(output) - (t - 1) * _GAMMA) & MASK64)


def _advanced(rng, draws):
    """The state `rng` reaches after `draws` more draws."""
    return (rng.state + draws * _GAMMA) & MASK64


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


def _propose(league, params, n_vms, upcoming=_BYE):
    """Team 0's proposal when its opponent this week is `upcoming`."""
    opponents = np.full(len(league.best), _BYE)
    if upcoming != _BYE:
        opponents[0], opponents[upcoming] = upcoming, 0
    return update_formation(league, np.array([0]), opponents, params, n_vms)[0]

# ---------------------------------------------------------------- encoding


def test_encode_centers_buckets():
    assert list(encode(Assignment((0, 1, 2)))) == [0.5, 1.5, 2.5]
    assert list(encode(Assignment((0,)))) == [0.5]


def test_decode_floors():
    assert decode(np.array([1.9, 0.0, 2.7]), 3).vm_of == (1, 0, 2)


def test_decode_clamps_both_ends():
    assert decode(np.array([-0.3, 3.2]), 3).vm_of == (0, 2)
    assert decode(np.array([0.5]), 1).vm_of == (0,)
    # Past 2**63 an int64 cast of the coordinate itself would overflow; the clamp comes first.
    assert decode(np.array([1e300, -1e300, 0.5]), 3).vm_of == (2, 0, 0)
    assert decode(np.array([1e20]), 2**53).vm_of == (2**53 - 1,)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 64),
    xs=st.lists(st.floats(-(2.0**63), 2.0**63, exclude_min=True, exclude_max=True), max_size=20),
)
def test_vm_index_is_floor_then_clip_below_two_to_the_63(m, xs):
    x = np.array(xs + [0.0, -0.0, m - 1, m - 1e-9, m], dtype=np.float64)
    assert np.array_equal(_vm_index(x, m), np.clip(np.floor(x).astype(np.int64), 0, m - 1))


@pytest.mark.parametrize("formation", [[0.5, np.nan], [np.inf], [-np.inf, 0.5], [[0.5]], 0.5, ["a"]])
def test_decode_refuses_a_formation_that_is_not_a_finite_vector(formation):
    with pytest.raises(ValueError, match="formation must be a vector of finite coordinates"):
        decode(np.array(formation), 2)


# Past 2**53, n_vms - 1 is not exact in float64, so the clamp bound could leave the int64 range.
@pytest.mark.parametrize("n_vms", [True, 0, -1, 2.0, "2", None, 2**53 + 1, 10**30])
def test_decode_refuses_a_bad_vm_count(n_vms):
    with pytest.raises(ValueError, match="n_vms must be an integer >= 1"):
        decode(np.array([0.5]), n_vms)


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
    f_i, f_j = np.array([10.0, 4.0, 6.0, 4.0]), np.array([10.0, 10.0, 10.0, 4.0])
    assert win_probability(f_i, f_j, 4.0).tolist() == [0.5, 1.0, 0.75, 0.5]


def test_win_probability_rejects_stale_ideal_value():
    with pytest.raises(ValueError, match="stale ideal value"):
        win_probability(np.array([5.0, 3.0]), np.array([10.0, 10.0]), 4.0)
    with pytest.raises(ValueError, match="stale ideal value"):
        win_probability(np.array([10.0]), np.array([3.0]), 4.0)


def _triples(seed, k):
    f_hat, gap_i, gap_j = SplitMix64(seed).uniforms(3 * k).reshape(k, 3).T
    return f_hat * 100.0 + gap_i * 50.0, f_hat * 100.0 + gap_j * 50.0, f_hat * 100.0


def test_win_probabilities_sum_to_one():
    f_i, f_j, f_hat = _triples(8, 2000)
    p_i, p_j = win_probability(f_i, f_j, f_hat), win_probability(f_j, f_i, f_hat)
    assert np.all((0.0 <= p_i) & (p_i <= 1.0))
    assert np.all(np.abs(p_i + p_j - 1.0) <= 1e-12)


def test_win_probability_matches_the_scalar_formula_bit_for_bit():
    f_i, f_j, f_hat = _triples(9, 500)
    f_i[:50] = f_j[:50] = f_hat[:50]  # both sides at the ideal value
    expected = [reference_win_probability(*triple) for triple in zip(f_i, f_j, f_hat)]
    assert win_probability(f_i, f_j, f_hat).tolist() == expected


def test_win_probability_decreases_as_fitness_worsens():
    probs = win_probability(np.array([1.0, 2.0, 5.0, 10.0, 40.0]), np.full(5, 10.0), 0.0)
    assert np.all(probs[:-1] > probs[1:])


def test_win_probability_approaches_one_against_hopeless_opponent():
    assert win_probability(np.array([6.0]), np.array([1e15]), 4.0)[0] >= 1.0 - 1e-9


def test_play_match_certain_win():
    for seed in range(5):
        league = _league([[0.5], [1.5]], [4.0, 10.0], SplitMix64(seed))  # team 0 at f_hat: p_i = 1
        winners = play_match(league, np.array([0]), np.array([1]))
        assert winners.tolist() == [0]
        assert league.won.tolist() == [True, False]
        assert league.last_opponent.tolist() == [1, 0]


def test_play_match_certain_loss():
    league = _league([[0.5], [1.5]], [10.0, 4.0], _rng_drawing(1, 0))
    assert league.rng.peek(1) == 0.0
    winners = play_match(league, np.array([0]), np.array([1]))  # p_i = 0: team 1 must win
    assert winners.tolist() == [1]
    assert league.won.tolist() == [False, True]


def test_play_match_frequency_tracks_probability():
    # 20,000 fixtures of f=6 against f=10 in one week; the last team holds f_hat=4, so p = 0.75
    k = 20_000
    fitness = [6.0, 10.0] * k + [4.0]
    league = _league(np.full((2 * k + 1, 1), 0.5), fitness, SplitMix64(424242))
    home = np.arange(0, 2 * k, 2)
    winners = play_match(league, home, home + 1)
    assert abs(np.mean(winners == home) - 0.75) < 0.02


# ---------------------------------------------------------------- update rule


def _params(**kw):
    defaults = dict(league_size=4, seasons=1, seed=0)
    defaults.update(kw)
    return LcaParams(**defaults)


def test_update_zero_weights_returns_best_exactly():
    league = _proposer([1.2, 0.4, 2.8], [0.1, 0.1, 0.1], True, SplitMix64(3))
    # LcaParams refuses zero weights; the update rule reads only these four fields.
    params = SimpleNamespace(change_probability=1.0, w1=0.0, w2=0.0, swap_probability=0.0)
    assert list(_propose(league, params, 3)) == [1.2, 0.4, 2.8]


def _hand_example(won):
    # B=[1.0], previous opponent at [2.0], upcoming opponent at [0.0], which won
    # last week; unit weights, mask certain, no swap, 3 VMs. Draws: decision,
    # mask, r1, r2. Returns the proposal with r1 and r2.
    rng = SplitMix64(5)
    r1, r2 = rng.peek(3), rng.peek(4)
    league = _proposer([1.0], [2.0], won, rng, upcoming=[0.0], upcoming_won=True)
    out = _propose(league, _params(change_probability=1.0, swap_probability=0.0), 3, upcoming=2)
    assert league.rng.state == _advanced(SplitMix64(5), 4)
    return out.tolist(), r1, r2


def test_update_hand_example():
    # A win steps away from the previous opponent: 1 + (r1 * (1 - 2) + r2 * (1 - 0)).
    out, r1, r2 = _hand_example(won=True)
    assert out == [1.0 + (r1 * -1.0 + r2 * 1.0)]


def test_update_loss_flips_step_direction():
    # A loss steps toward the previous opponent: 1 + (-r1 * (1 - 2) + r2 * (1 - 0)).
    out, r1, r2 = _hand_example(won=False)
    assert out == [1.0 + (-r1 * -1.0 + r2 * 1.0)]


def test_update_mask_redrawn_until_nonempty():
    # One coordinate and change_probability 0.05: a mask draw of 1.0 is empty,
    # so the mask is drawn again until a draw is <= 0.05, then r1 and r2 follow.
    rng = _rng_drawing(2, TOP)
    start = SplitMix64(rng.state)
    k = next(t for t in itertools.count(3) if rng.peek(t) <= 0.05) - 1  # mask draws made
    r1 = rng.peek(k + 2)
    league = _proposer([1.0], [2.0], True, rng)
    out = _propose(league, _params(change_probability=0.05, swap_probability=0.0), 3)
    assert k >= 2
    assert out.tolist() == [max(0.0, 1.0 + r1 * -1.0)]  # only the retrospective step
    assert league.rng.state == _advanced(start, 1 + k + 2)


def _swapped(values, i, j):
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return out


def test_update_swap_branch_exchanges_two_positions():
    rng = SplitMix64(17)
    u1, u2 = rng.peek(2), rng.peek(3)
    i = min(int(u1 * 4), 3)
    j = min(int(u2 * 3), 2)
    j += j >= i
    league = _proposer([0.5, 1.5, 2.5, 3.0], [0.0] * 4, True, rng)
    out = _propose(league, _params(swap_probability=1.0), 4)
    assert out.tolist() == _swapped([0.5, 1.5, 2.5, 3.0], i, j)
    assert league.rng.state == _advanced(SplitMix64(17), 3)


def test_update_swap_clamps_a_draw_of_exactly_one():
    rng = _rng_drawing(2, TOP)  # the first swap index draw is 1.0: i = min(3, 2) = 2
    j = min(int(rng.peek(3) * 2), 1)  # never bumped, since j <= 1 < i
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True, rng)
    out = _propose(league, _params(swap_probability=1.0), 3)
    assert out.tolist() == _swapped([0.5, 1.5, 2.5], 2, j)


def test_update_swap_probability_one_swaps_on_a_draw_of_one():
    rng = _rng_drawing(1, TOP)
    start = SplitMix64(rng.state)
    assert rng.peek(1) == 1.0
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True, rng)
    out = _propose(league, _params(swap_probability=1.0), 3)
    assert sorted(out.tolist()) == [0.5, 1.5, 2.5] and out.tolist() != [0.5, 1.5, 2.5]
    assert league.rng.state == _advanced(start, 3)  # the decision and two index draws


def test_update_swap_probability_zero_never_swaps_on_a_draw_of_zero():
    rng = _rng_drawing(1, 0)
    start = SplitMix64(rng.state)
    assert rng.peek(1) == 0.0
    r1 = [rng.peek(t) for t in (5, 6, 7)]
    league = _proposer([0.5, 1.0, 1.25], [0.0, 0.0, 0.0], True, rng)
    out = _propose(league, _params(swap_probability=0.0, change_probability=1.0), 3)
    assert out.tolist() == [b + r * b for b, r in zip([0.5, 1.0, 1.25], r1)]  # the masked step: B + r1 (B - 0)
    assert league.rng.state == _advanced(start, 1 + 3 * 3)


def test_update_change_probability_one_masks_a_draw_of_one():
    rng = _rng_drawing(3, TOP)  # the second coordinate's mask draw is 1.0
    start = SplitMix64(rng.state)
    assert rng.peek(3) == 1.0
    r1 = [rng.peek(t) for t in (5, 6, 7)]
    league = _proposer([0.5, 1.0, 1.25], [0.0, 0.0, 0.0], True, rng)
    out = _propose(league, _params(swap_probability=0.0, change_probability=1.0), 3)
    assert out.tolist() == [b + r * b for b, r in zip([0.5, 1.0, 1.25], r1)]  # all three coordinates move
    assert league.rng.state == _advanced(start, 1 + 3 * 3)


def test_update_swap_preserves_coordinate_multiset():
    league = _proposer([0.5, 1.5, 2.5, 0.5], np.zeros(4), False, SplitMix64(5))
    out = _propose(league, _params(swap_probability=1.0), 3)
    assert sorted(out) == sorted(league.best[0])


def test_update_requires_match_history():
    league = _league([[1.0], [2.0]], [5.0, 6.0], SplitMix64(1))  # nobody has played yet
    with pytest.raises(RuntimeError):
        _propose(league, _params(), 3, upcoming=1)


def test_update_always_stays_in_vm_range():
    rng = SplitMix64(2)
    params = _params(w1=50.0, w2=50.0, swap_probability=0.2)
    for trial in range(200):
        m = 1 + int(rng.uniform() * 5)
        n = 1 + int(rng.uniform() * 9)
        rows = [rng.uniforms(n) * m for _ in range(3)]
        league = _proposer(*rows[:2], trial % 2 == 1, rng, upcoming=rows[2], upcoming_won=False)
        out = _propose(league, params, m, upcoming=2)
        assert np.all(out >= 0.0) and np.all(out < m)


def _random_league(size, n, m, seed):
    """A league mid-run: random formations and fitness, some teams not yet played."""
    rng = SplitMix64(seed)
    best_fitness = 1.0 + rng.uniforms(size) * 10.0
    current_fitness = best_fitness + rng.uniforms(size) * 5.0
    history = rng.uniforms(size)
    last_opponent = np.where(history < 0.2, _BYE, (np.arange(size) + 1 + (history * (size - 1)).astype(int)) % size)
    return League(
        current=rng.uniforms(size * n).reshape(size, n) * m,
        current_fitness=current_fitness,
        best=rng.uniforms(size * n).reshape(size, n) * m,
        best_fitness=best_fitness,
        last_opponent=last_opponent,
        won=rng.uniforms(size) < 0.5,
        champion=int(np.argmin(best_fitness)),
        rng=SplitMix64(mix64(seed)),
        evaluate=None,
    )


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(4, 9),
    n=st.sampled_from([1, 2, 3, 5, 12, 40]),
    m=st.integers(1, 4),
    week=st.integers(0, 17),
    swap=st.sampled_from([0.0, 0.5, 1.0]),
    change=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_week_equals_the_per_team_reference(size, n, m, week, swap, change, seed):
    # The week's proposals, the RNG state after them, and the fixtures' results
    # agree bit for bit with proposing and playing team by team.
    params = LcaParams(league_size=size, swap_probability=swap, change_probability=change,
                       w1=1.5, w2=0.75)
    batched, reference = _random_league(size, n, m, seed), _random_league(size, n, m, seed)
    weeks = season_fixtures(size, 1 + week // size)
    pairs = weeks[week % len(weeks)]
    home, away = np.array(pairs).T
    upcoming = np.full(size, _BYE)
    upcoming[home], upcoming[away] = away, home
    teams = np.flatnonzero(batched.last_opponent != _BYE)
    proposed = update_formation(batched, teams, upcoming, params, m)
    expected = [reference_update_formation(reference, t, upcoming[t], params, m) for t in teams]
    assert proposed.shape == (teams.size, n)
    assert proposed.tobytes() == np.array(expected).reshape(teams.size, n).tobytes()
    assert batched.rng.state == reference.rng.state
    winners = play_match(batched, home, away)
    assert winners.tolist() == [reference_play_match(reference, i, j)[0] for i, j in pairs]
    assert batched.won.tolist() == reference.won.tolist()
    assert batched.last_opponent.tolist() == reference.last_opponent.tolist()
    assert batched.rng.state == reference.rng.state


def test_a_large_week_is_drawn_as_one_span():
    # Six masked steps of 1 + 3 * 3,000 draws each: the whole week of 54,006 draws is
    # one uniforms() call, with the same proposals and RNG state as proposing team by team.
    size, n, m = 6, 3_000, 4
    params = LcaParams(league_size=size, swap_probability=0.0)
    batched, reference = _random_league(size, n, m, 5), _random_league(size, n, m, 5)
    for league in (batched, reference):
        league.last_opponent = np.array([1, 0, 3, 2, 5, 4])
    teams, upcoming = np.arange(size), np.array([5, 4, 3, 2, 1, 0])
    with mock.patch.object(SplitMix64, "uniforms", autospec=True, side_effect=SplitMix64.uniforms) as blocks:
        proposed = update_formation(batched, teams, upcoming, params, m)
    assert [call.args[1] for call in blocks.call_args_list] == [size * (1 + 3 * n)]
    expected = [reference_update_formation(reference, t, upcoming[t], params, m) for t in teams]
    assert proposed.tobytes() == np.array(expected).tobytes()
    assert batched.rng.state == reference.rng.state


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


@pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5)])
def test_run_with_a_numpy_seed_equals_the_int_seed(seed):
    # A numpy scalar seed makes no overflow (pyproject turns warnings into errors).
    inst = _instance(n=12, m=3)
    assert run(LcaParams(league_size=6, seasons=3, seed=seed), inst) == run(
        LcaParams(league_size=6, seasons=3, seed=5), inst)


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


def test_a_default_run_draws_each_week_in_at_most_two_blocks():
    # One uniforms() span for the week's proposals and one for its fixtures; no scalar draws.
    params, instance = LcaParams(), _instance(n=100, m=20)
    with mock.patch.object(SplitMix64, "uniforms", autospec=True, side_effect=SplitMix64.uniforms) as blocks, \
            mock.patch.object(SplitMix64, "uniform", autospec=True, side_effect=SplitMix64.uniform) as scalars:
        run(params, instance)
    weeks = params.seasons * (params.league_size - 1)
    # init_league draws every random start as one block, and week 1 plays the initial formations without
    # proposing: 1 + 1 + 2 * (weeks - 1) blocks.
    assert scalars.call_count == 0
    assert blocks.call_count == 2 * weeks == 1900
