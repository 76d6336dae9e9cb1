import decimal
import itertools
import math
import tracemalloc
from collections import Counter
from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from leaguesched import lca
from leaguesched.lca import (
    League,
    _change_count,
    _change_thresholds,
    _draw_plan,
    _fixtures,
    _FitnessEvaluator,
    _plan_rows,
    _positions,
    _vm_index,
    init_league,
    play_match,
    update_formation,
    win_probability,
)
from leaguesched.rng import _GAMMA, MASK64

_BYE = -1
TOP = 2**64 - 1  # a SplitMix64 output that draws exactly 1.0


# ---------------------------------------------------------------- the per-team reference
#
# The engine written team by team: season by season of scalar circle-method
# fixtures, one Python call per team, each making its own draws (a step's
# change count by a scan of Kashan's thresholds, its positions by Floyd's
# algorithm) and then moving the stream to the end of its slot of 2 + 3n
# draws, and one scalar draw per match after the week's rows, each team's last
# opponent kept in its own array as it plays. The planned fixtures,
# update_formation and play_match, and whole runs, must agree with it bit for
# bit.


def reference_fixtures(n_teams, season):
    """One season's fixtures as lists of (home, away) pairs: a single round robin by the circle method.

    The slots start as the team order rotated by season - 1, with a bye slot appended when the league is odd.
    Week w pairs slot i with slot -1-i, then every slot but the first rotates one step, so every pair of teams
    meets exactly once. A team drawn against the bye plays no match that week.
    """
    rotation = (season - 1) % n_teams
    slots = [(i + rotation) % n_teams for i in range(n_teams)] + [_BYE] * (n_teams % 2)
    weeks = []
    for _ in range(len(slots) - 1):
        pairs = zip(slots[: len(slots) // 2], reversed(slots))
        weeks.append([(i, j) for i, j in pairs if _BYE not in (i, j)])
        slots[1:] = [slots[-1]] + slots[1:-1]
    return weeks


def reference_win_probability(f_i, f_j, f_hat):
    if f_i < f_hat or f_j < f_hat:
        raise ValueError(f"stale ideal value: f_hat={f_hat} exceeds a fitness ({f_i}, {f_j})")
    denom = (f_i - f_hat) + (f_j - f_hat)
    if denom == 0.0:
        return 0.5
    return (f_j - f_hat) / denom


def reference_play_match(league, fitness, rng, last_opponent, i, j):
    p_i = reference_win_probability(fitness[i], fitness[j], league.best_fitness[league.champion])
    u = rng.uniform()
    winner, loser = (i, j) if p_i > 0.0 and u <= p_i else (j, i)
    last_opponent[i], last_opponent[j] = j, i
    league.won[winner], league.won[loser] = True, False
    return winner, loser


def reference_change_count(r, p, n):
    """Kashan's change count in threshold form, by a linear scan: the least Q >= 1 with r <= P(q <= Q)."""
    rate = math.log1p(-p) if p < 1.0 else -math.inf
    q = 1
    while q < n and r > math.expm1(q * rate) / math.expm1(n * rate):
        q += 1
    return q


def reference_positions(draws, n):
    """Floyd's algorithm, one scalar draw per position: t uniform in [0, j], else j when t is already held."""
    held = []
    for k, u in enumerate(draws):
        j = n - len(draws) + k
        t = min(int(u * (j + 1)), j)
        held.append(j if t in held else t)
    return held


def reference_update_formation(league, rng, last_opponent, team, upcoming, params, n_vms):
    previous = last_opponent[team]
    if previous == _BYE:
        raise RuntimeError(f"team {team} has no match history to update from")
    p = params.swap_probability
    best = league.best[team]
    n = best.shape[0]
    end = _advanced(rng, _slot(n))
    new_x = best.copy()
    if rng.uniform() <= p and p > 0.0:
        if n >= 2:
            i = min(int(rng.uniform() * n), n - 1)
            j = min(int(rng.uniform() * (n - 1)), n - 2)
            j += j >= i
            new_x[i], new_x[j] = new_x[j], new_x[i]
    else:
        q = reference_change_count(rng.uniform(), params.change_probability, n)
        at = reference_positions([rng.uniform() for _ in range(q)], n)
        r1, r2 = rng.uniforms(q), rng.uniforms(q)
        s_own = 1.0 if league.won[team] else -1.0
        step = params.w1 * s_own * r1 * (best[at] - league.current[previous][at])
        if upcoming != _BYE and last_opponent[upcoming] != _BYE:
            s_next = 1.0 if league.won[upcoming] else -1.0
            step = step + params.w2 * s_next * r2 * (best[at] - league.current[upcoming][at])
        new_x[at] = np.clip(best[at] + step, 0.0, n_vms - 1e-9)
    rng.state = end
    return new_x


def reference_run(params, instance):
    """A whole championship team by team: proposals first, then their commit, then one draw per fixture. It keeps
    its own stream, its teams' fitness this week and its evaluation count."""
    rng = SplitMix64(params.seed)
    league = init_league(params, instance, rng, _FitnessEvaluator(instance))
    fitness, evaluations = league.best_fitness.copy(), params.league_size
    m = len(instance.vms)
    last_opponent = np.full(params.league_size, _BYE)
    history = []
    for season in range(1, params.seasons + 1):
        for pairs in reference_fixtures(params.league_size, season):
            if history:
                upcoming = dict(pairs) | {j: i for i, j in pairs}
                teams = [t for t in range(params.league_size) if last_opponent[t] != _BYE]
                proposed = [reference_update_formation(league, rng, last_opponent, t, upcoming.get(t, _BYE), params,
                                                       m) for t in teams]
                evaluations += len(teams)
                for t, x in zip(teams, proposed):
                    f = makespan(instance, decode(x, m)).makespan_s
                    if f < league.best_fitness[league.champion]:
                        league.champion = t
                    league.current[t], fitness[t] = x, f
                    if f < league.best_fitness[t]:
                        league.best[t], league.best_fitness[t] = x, f
            for i, j in pairs:
                reference_play_match(league, fitness, rng, last_opponent, i, j)
            history.append(float(league.best_fitness[league.champion]))
    return history, decode(league.best[league.champion], m), evaluations


def _rng_drawing(t, output):
    """A fresh stream whose t-th draw (t >= 1) is the 64-bit `output`."""
    return SplitMix64((_seed_for_next_output(output) - (t - 1) * _GAMMA) & MASK64)


def _advanced(rng, draws):
    """The state `rng` reaches after `draws` more draws."""
    return (rng.state + draws * _GAMMA) & MASK64


def _season(size, season):
    """The (weeks, 2, pairs) fixtures of one season, counted from 1: a round robin, padded with a bye slot when
    the league is odd."""
    weeks = size - 1 + size % 2
    return _fixtures(size, range((season - 1) * weeks, season * weeks))


def _pairs(fixtures):
    """A (weeks, 2, pairs) fixture array as lists of (home, away) pairs, week by week."""
    return [list(zip(*week)) for week in fixtures.tolist()]


def _slot(n):
    """The draws every proposing row owns in the stream for n tasks, whatever it uses of them."""
    return 2 + 3 * n


def _league(formations, fitness, won=None):
    """A league whose teams hold the given formations as both current and best, and the given fitness as best."""
    x = np.asarray(formations, dtype=float)
    f = np.asarray(fitness, dtype=float)
    size = len(f)
    return League(
        current=x,
        best=x.copy(),
        best_fitness=f,
        won=np.array(won if won is not None else [False] * size),
        champion=int(np.argmin(f)),
    )


def _proposer(formation, previous, won, upcoming=None, upcoming_won=True):
    """Team 0, last matched with team 1; team 2, if given, is its upcoming opponent and has played too."""
    rows = [formation, previous] + ([upcoming] if upcoming is not None else [])
    return _league(
        rows,
        [5.0, 6.0, 6.0][: len(rows)],
        won=[won, not won, upcoming_won][: len(rows)],
    )


_NO_CARRY = np.zeros(0, dtype=np.int64)  # no cells carried from a plan before


def _cells(n, m):
    """A scoring workspace for n tasks on m VMs, which places a plan's moved cells."""
    return _FitnessEvaluator(_instance(n=n, m=m))


def _propose(league, rng, params, n_vms, upcoming=_BYE):
    """Team 0's proposal (_proposer) when its opponent this week is `upcoming`: a plan of one week drawn from
    rng, its one row, no fixture."""
    rows = tuple(np.array([x]) for x in (0, 1, upcoming, upcoming != _BYE))
    thresholds = _change_thresholds(params.change_probability, league.best.shape[1])
    (week,) = _draw_plan(rng, params, thresholds, rows, np.array([0, 1]), 0, _NO_CARRY,
                         _cells(len(thresholds), n_vms))
    assert week.draws.size == 0 and week.proposals == 1
    return update_formation(league, week, n_vms)[0]

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
    assert _pairs(_season(2, 1)) == [[(0, 1)]]


def test_round_robin_four_teams_circle_method():
    assert _pairs(_season(4, 1)) == [
        [(0, 3), (1, 2)],
        [(0, 2), (3, 1)],
        [(0, 1), (2, 3)],
    ]


@pytest.mark.parametrize("league_size", [4, 6, 20])
def test_round_robin_covers_every_pair_once(league_size):
    weeks = _pairs(_season(league_size, 1))
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
    weeks = _pairs(_season(n_teams, season))
    pairs = [frozenset(p) for week in weeks for p in week]
    assert len(pairs) == len(set(pairs)) == n_teams * (n_teams - 1) // 2
    for week in weeks:
        busy = [t for pair in week for t in pair]
        assert len(busy) == len(set(busy))
        assert all(0 <= t < n_teams for t in busy)


def test_season_rotation_changes_pairing_order():
    assert _season(6, 1).tolist() != _season(6, 2).tolist()


@pytest.mark.parametrize("n_teams", range(2, 26))
def test_each_season_is_the_first_with_its_teams_relabelled(n_teams):
    # _fixtures builds every season from season 1's circle as (fixtures + s - 1) % L; the scalar circle
    # method, which rotates the starting slots instead, agrees.
    opening = np.array(reference_fixtures(n_teams, 1))
    for season in range(1, 3 * n_teams + 1):
        relabelled = (opening + season - 1) % n_teams
        assert relabelled.tolist() == np.array(reference_fixtures(n_teams, season)).tolist()


@pytest.mark.parametrize("n_teams", range(2, 41))
def test_fixtures_are_the_scalar_circle_method_week_by_week(n_teams):
    # Any run of weeks, across seasons too: 2L + 2 seasons in one call, and again one week at a time.
    seasons = 2 * n_teams + 2
    expected = [week for season in range(1, seasons + 1) for week in reference_fixtures(n_teams, season)]
    assert _pairs(_fixtures(n_teams, range(len(expected)))) == expected
    assert [_pairs(_fixtures(n_teams, range(w, w + 1)))[0] for w in range(len(expected))] == expected


# ---------------------------------------------------------------- match math


def test_win_probability_spot_values():
    f_i, f_j = np.array([10.0, 4.0, 6.0, 4.0]), np.array([10.0, 10.0, 10.0, 4.0])
    assert win_probability(f_i, f_j, 4.0).tolist() == [0.5, 1.0, 0.75, 0.5]


@pytest.mark.parametrize("swap", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("size", [5, 6])
def test_every_match_of_a_run_is_played_above_the_ideal_value(size, swap):
    # win_probability takes f̂ as a lower bound on both sides unchecked: every week of a run, odd league or even,
    # by steps, swaps or both, both sides of every fixture are at or above the champion's fitness.
    gaps = []

    def match(league, fitness, home, away, draws):
        gaps.append(np.concatenate([fitness[home], fitness[away]]) - league.best_fitness[league.champion])
        return play_match(league, fitness, home, away, draws)

    params = LcaParams(league_size=size, seasons=3, swap_probability=swap, seed=11, seed_with_baselines=False)
    with mock.patch.object(lca, "play_match", side_effect=match):
        result = run(params, _instance(n=20, m=4))
    assert len(gaps) == len(result.history) and result.history[-1] < result.history[0]  # f̂ moved mid-run
    assert all((gap >= 0.0).all() for gap in gaps)


@pytest.mark.parametrize("swap, weight", [(1.0, 1.0), (0.0, 1.0), (0.5, 1.0), (0.0, lca._WEIGHT_LIMIT),
                                          (0.5, lca._WEIGHT_LIMIT)])
def test_no_coordinate_of_a_run_is_negative_zero(swap, weight):
    # The step clamp and _vm_index clamp with np.maximum, which turns a -0.0 into +0.0 where np.clip kept it: the
    # same bits only while no coordinate is -0.0. A starting coordinate is u·m >= +0.0 or k + 0.5, and a step sums
    # to -0.0 only from a -0.0 best, so every week of a run, by swaps, steps or steps at the weight limit, holds
    # none in current or best; at the weight limit the clamp puts coordinates at 0.0 itself.
    negative, zero = [], []

    def match(league, fitness, home, away, draws):
        negative.append(np.signbit(league.current).any() or np.signbit(league.best).any())
        zero.append((league.current == 0.0).any())
        return play_match(league, fitness, home, away, draws)

    params = LcaParams(league_size=6, seasons=3, swap_probability=swap, w1=weight, w2=weight, seed=11,
                       seed_with_baselines=False)
    with mock.patch.object(lca, "play_match", side_effect=match):
        result = run(params, _instance(n=20, m=4))
    assert len(negative) == len(result.history) and not any(negative)
    assert any(zero) or weight < lca._WEIGHT_LIMIT


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
    home, away = np.array([0]), np.array([1])
    for seed in range(5):
        league = _league([[0.5], [1.5]], [4.0, 10.0])  # team 0 at f_hat: p_i = 1
        assert play_match(league, league.best_fitness, home, away, SplitMix64(seed).uniforms(1)) is None
        assert np.where(league.won[home], home, away).tolist() == [0]
        assert league.won.tolist() == [True, False]


def test_play_match_certain_loss():
    league, rng = _league([[0.5], [1.5]], [10.0, 4.0]), _rng_drawing(1, 0)
    home, away = np.array([0]), np.array([1])
    assert rng.peek([1])[0] == 0.0
    play_match(league, league.best_fitness, home, away, rng.uniforms(1))  # p_i = 0: team 1 must win
    assert np.where(league.won[home], home, away).tolist() == [1]
    assert league.won.tolist() == [False, True]


def test_play_match_frequency_tracks_probability():
    # 20,000 fixtures of f=6 against f=10 in one week; the last team holds f_hat=4, so p = 0.75
    k = 20_000
    fitness = [6.0, 10.0] * k + [4.0]
    league = _league(np.full((2 * k + 1, 1), 0.5), fitness)
    home = np.arange(0, 2 * k, 2)
    play_match(league, league.best_fitness, home, home + 1, SplitMix64(424242).uniforms(k))
    winners = np.where(league.won[home], home, home + 1)
    assert abs(np.mean(winners == home) - 0.75) < 0.02


# ---------------------------------------------------------------- update rule


def _params(**kw):
    defaults = dict(league_size=4, seasons=1, seed=0)
    defaults.update(kw)
    return LcaParams(**defaults)


def test_update_zero_weights_returns_best_exactly():
    league = _proposer([1.2, 0.4, 2.8], [0.1, 0.1, 0.1], True)
    # LcaParams refuses zero weights; the update rule reads only these four fields.
    params = SimpleNamespace(change_probability=1.0, w1=0.0, w2=0.0, swap_probability=0.0)
    assert list(_propose(league, SplitMix64(3), params, 3)) == [1.2, 0.4, 2.8]


def _hand_example(won):
    # B=[1.0], previous opponent at [2.0], upcoming opponent at [0.0], which won
    # last week; unit weights, no swap, 3 VMs, one coordinate, so q = 1 and its
    # position is 0. Draws: decision, count, position, r1, r2. Returns the
    # proposal with r1 and r2.
    rng = SplitMix64(5)
    r1, r2 = rng.peek([4, 5])
    league = _proposer([1.0], [2.0], won, upcoming=[0.0], upcoming_won=True)
    out = _propose(league, rng, _params(change_probability=0.3, swap_probability=0.0), 3, upcoming=2)
    assert rng.state == _advanced(SplitMix64(5), _slot(1))
    return out.tolist(), r1, r2


def test_update_hand_example():
    # A win steps away from the previous opponent: 1 + (r1 * (1 - 2) + r2 * (1 - 0)).
    out, r1, r2 = _hand_example(won=True)
    assert out == [1.0 + (r1 * -1.0 + r2 * 1.0)]


def test_update_loss_flips_step_direction():
    # A loss steps toward the previous opponent: 1 + (-r1 * (1 - 2) + r2 * (1 - 0)).
    out, r1, r2 = _hand_example(won=False)
    assert out == [1.0 + (-r1 * -1.0 + r2 * 1.0)]


def _moved(out, best):
    return [k for k, (x, b) in enumerate(zip(out, best)) if x != b]


def test_update_change_count_draw_of_zero_moves_one_coordinate():
    # A count draw of 0.0 gives q = 1 (the closed form would give 0): one position draw, then r1 and r2.
    rng = _rng_drawing(2, 0)
    start = SplitMix64(rng.state)
    assert rng.peek([2])[0] == 0.0
    t, r1 = min(int(rng.peek([3])[0] * 5), 4), rng.peek([4])[0]
    best = [0.2, 0.4, 0.6, 0.8, 1.0]
    league = _proposer(best, [0.0] * 5, True)
    out = _propose(league, rng, _params(change_probability=0.3, swap_probability=0.0), 3)
    assert _moved(out, best) == [t] and out[t] == best[t] + r1 * best[t]  # away from 0: B + r1 (B - 0)
    assert rng.state == _advanced(start, _slot(5))  # the row's slot and no fixture


def test_update_change_count_draw_of_one_moves_every_coordinate_of_a_short_row():
    # A count draw of 1.0 reaches the last threshold, exactly 1, so q = n when n is small: every
    # coordinate moves, and the row uses every draw of its slot.
    rng = _rng_drawing(2, TOP)
    start = SplitMix64(rng.state)
    best = [0.5, 1.0, 1.5, 2.0, 2.5]
    league = _proposer(best, [0.0] * 5, True)
    out = _propose(league, rng, _params(change_probability=0.3, swap_probability=0.0), 3)
    assert _moved(out, best) == [0, 1, 2, 3, 4]
    assert rng.state == _advanced(start, _slot(5))


def _swapped(values, i, j):
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return out


def test_update_swap_branch_exchanges_two_positions():
    rng = SplitMix64(17)
    u1, u2 = rng.peek([2, 3])
    i = min(int(u1 * 4), 3)
    j = min(int(u2 * 3), 2)
    j += j >= i
    league = _proposer([0.5, 1.5, 2.5, 3.0], [0.0] * 4, True)
    out = _propose(league, rng, _params(swap_probability=1.0), 4)
    assert out.tolist() == _swapped([0.5, 1.5, 2.5, 3.0], i, j)
    assert rng.state == _advanced(SplitMix64(17), _slot(4))  # a swap uses 3 draws of its slot


def test_update_swap_clamps_a_draw_of_exactly_one():
    rng = _rng_drawing(2, TOP)  # the first swap index draw is 1.0: i = min(3, 2) = 2
    j = min(int(rng.peek([3])[0] * 2), 1)  # never bumped, since j <= 1 < i
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True)
    out = _propose(league, rng, _params(swap_probability=1.0), 3)
    assert out.tolist() == _swapped([0.5, 1.5, 2.5], 2, j)


def test_update_swap_probability_one_swaps_on_a_draw_of_one():
    rng = _rng_drawing(1, TOP)
    start = SplitMix64(rng.state)
    assert rng.peek([1])[0] == 1.0
    league = _proposer([0.5, 1.5, 2.5], [0.0, 0.0, 0.0], True)
    out = _propose(league, rng, _params(swap_probability=1.0), 3)
    assert sorted(out.tolist()) == [0.5, 1.5, 2.5] and out.tolist() != [0.5, 1.5, 2.5]
    assert rng.state == _advanced(start, _slot(3))  # the decision and two index draws, in the slot


def test_update_swap_probability_zero_never_swaps_on_a_draw_of_zero():
    rng = _rng_drawing(1, 0)
    start = SplitMix64(rng.state)
    assert rng.peek([1])[0] == 0.0
    t, r1 = min(int(rng.peek([3])[0] * 3), 2), rng.peek([4])[0]
    best = [0.5, 1.0, 1.25]
    league = _proposer(best, [0.0, 0.0, 0.0], True)
    out = _propose(league, rng, _params(swap_probability=0.0, change_probability=1.0), 3)
    assert _moved(out, best) == [t] and out[t] == best[t] + r1 * best[t]  # the step: B + r1 (B - 0)
    assert rng.state == _advanced(start, _slot(3))


def test_update_change_probability_one_moves_one_coordinate_on_a_draw_of_one():
    # p_c = 1 puts every threshold at 1, so q = 1 even on a count draw of 1.0, with no ln 0 taken.
    rng = _rng_drawing(2, TOP)
    start = SplitMix64(rng.state)
    assert rng.peek([2])[0] == 1.0
    t, r1 = min(int(rng.peek([3])[0] * 3), 2), rng.peek([4])[0]
    best = [0.5, 1.0, 1.25]
    league = _proposer(best, [0.0, 0.0, 0.0], True)
    out = _propose(league, rng, _params(swap_probability=0.0, change_probability=1.0), 3)
    assert _moved(out, best) == [t] and out[t] == best[t] + r1 * best[t]
    assert rng.state == _advanced(start, _slot(3))


def test_update_swap_preserves_coordinate_multiset():
    league = _proposer([0.5, 1.5, 2.5, 0.5], np.zeros(4), False)
    out = _propose(league, SplitMix64(5), _params(swap_probability=1.0), 3)
    assert sorted(out) == sorted(league.best[0])


def test_update_requires_match_history():
    # A team proposes only once it has played: nobody in week 1 of a league of five, then every team that has
    # played, so the team with a bye in week 1 waits for its first match. A week nobody proposes in has 0
    # proposals and no step or swap rows.
    fixtures = _season(5, 1)
    starts, rows, _ = _plan_rows(np.full(5, _BYE), fixtures)
    for w in range(len(fixtures)):
        assert rows[0][starts[w] : starts[w + 1]].tolist() == sorted(set(fixtures[:w].ravel().tolist()))
    (week,) = _draw_plan(SplitMix64(1), _params(league_size=5), _change_thresholds(0.3, 3), rows,
                         np.array([0, 0]), 2, _NO_CARRY, _cells(3, 2))
    columns = (week.sides, week.cells, week.r, week.swaps, *week.moved)
    assert week.proposals == 0 and all(column.size == 0 for column in columns) and week.draws.size == 2


@pytest.mark.parametrize("size", [4, 5, 6, 7])
def test_the_carried_last_opponents_are_the_references_after_each_season(size):
    # The run keeps no last opponents: each plan's follow from the fixtures and the plan before.
    instance, rng = _instance(), SplitMix64(0)
    league = init_league(_params(league_size=size), instance, rng, _FitnessEvaluator(instance))
    before, last_opponent = np.full(size, _BYE), np.full(size, _BYE)
    for season in range(1, 2 * size + 1):
        _, _, before = _plan_rows(before, _season(size, season))
        for pairs in reference_fixtures(size, season):
            for i, j in pairs:
                reference_play_match(league, league.best_fitness, rng, last_opponent, i, j)
        assert before.tolist() == last_opponent.tolist()


def test_update_always_stays_in_vm_range():
    rng = SplitMix64(2)
    params = _params(w1=50.0, w2=50.0, swap_probability=0.2)
    for trial in range(200):
        m = 1 + int(rng.uniform() * 5)
        n = 1 + int(rng.uniform() * 9)
        rows = [rng.uniforms(n) * m for _ in range(3)]
        league = _proposer(*rows[:2], trial % 2 == 1, upcoming=rows[2], upcoming_won=False)
        out = _propose(league, rng, params, m, upcoming=2)
        assert np.all(out >= 0.0) and np.all(out < m)


def _random_league(size, n, m, seed):
    """A league mid-run, its teams' fitness this week, the run's stream and each team's last opponent: random
    formations and fitness, some teams not yet played."""
    rng = SplitMix64(seed)
    best_fitness = 1.0 + rng.uniforms(size) * 10.0
    fitness = best_fitness + rng.uniforms(size) * 5.0
    history = rng.uniforms(size)
    last_opponent = np.where(history < 0.2, _BYE, (np.arange(size) + 1 + (history * (size - 1)).astype(int)) % size)
    league = League(
        current=rng.uniforms(size * n).reshape(size, n) * m,
        best=rng.uniforms(size * n).reshape(size, n) * m,
        best_fitness=best_fitness,
        won=rng.uniforms(size) < 0.5,
        champion=int(np.argmin(best_fitness)),
    )
    return league, fitness, SplitMix64(mix64(seed)), last_opponent


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(4, 9),
    n=st.sampled_from([1, 2, 3, 5, 12, 40]),
    m=st.integers(1, 4),
    first=st.integers(0, 80),
    weeks=st.integers(1, 9),
    swap=st.sampled_from([0.0, 0.5, 1.0]),
    change=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_week_equals_the_per_team_reference(size, n, m, first, weeks, swap, change, seed):
    # A plan of several weeks of the run drawn at once, across a season's end too: each week's proposals and
    # fixture results, the last opponents after the plan, and the RNG state after it agree bit for bit with
    # proposing and playing team by team. A team that has not played keeps its best. Each week's proposals
    # become the current formations, so the next week reads them.
    params = LcaParams(league_size=size, swap_probability=swap, change_probability=change,
                       w1=1.5, w2=0.75)
    batched, fitness, stream, before = _random_league(size, n, m, seed)
    reference, _, rng, last_opponent = _random_league(size, n, m, seed)
    fixtures = _fixtures(size, range(first, first + weeks))
    starts, rows, after = _plan_rows(before, fixtures)
    plan = _draw_plan(stream, params, _change_thresholds(change, n), rows, starts, fixtures.shape[2], _NO_CARRY,
                      _cells(n, m))
    assert len(plan) == len(fixtures)
    for (home, away), week in zip(fixtures, plan):
        upcoming = np.full(size, _BYE)
        upcoming[home], upcoming[away] = away, home
        teams = np.flatnonzero(last_opponent != _BYE)
        expected = [reference_update_formation(reference, rng, last_opponent, t, upcoming[t], params, m)
                    for t in teams]
        assert week.proposals == teams.size
        proposed = update_formation(batched, week, m)
        assert proposed[teams].tobytes() == np.array(expected).reshape(teams.size, n).tobytes()
        assert np.delete(proposed, teams, axis=0).tobytes() == np.delete(batched.best, teams, axis=0).tobytes()
        batched.current[teams] = reference.current[teams] = proposed[teams]
        play_match(batched, fitness, home, away, week.draws)
        assert np.where(batched.won[home], home, away).tolist() == [
            reference_play_match(reference, fitness, rng, last_opponent, i, j)[0] for i, j in zip(home, away)]
        assert batched.won.tolist() == reference.won.tolist()
    assert after.tolist() == last_opponent.tolist()
    assert stream.state == rng.state


def test_update_formation_writes_only_its_own_block():
    # The week's gathers and scatters go through flat views: each returned block is a fresh array, and the
    # league's best and current formations keep their bytes, over a plan with steps and swaps both.
    size, n, m = 6, 40, 4
    params = LcaParams(league_size=size, swap_probability=0.5, w1=1.5, w2=0.75)
    league, _, stream, before = _random_league(size, n, m, 3)
    fixtures = _fixtures(size, range(5, 9))
    starts, rows, _ = _plan_rows(before, fixtures)
    plan = _draw_plan(stream, params, _change_thresholds(0.3, n), rows, starts, fixtures.shape[2], _NO_CARRY,
                      _cells(n, m))
    best, current = league.best.tobytes(), league.current.tobytes()
    for week in plan:
        block = update_formation(league, week, m)
        assert league.best.tobytes() == best and league.current.tobytes() == current
        assert not np.shares_memory(block, league.best) and not np.shares_memory(block, league.current)
        assert block.tobytes() != best
    assert sum(week.cells.shape[1] for week in plan) > 0 and sum(week.swaps.shape[1] for week in plan) > 0


def test_a_large_week_is_drawn_as_one_span():
    # Six steps over 3,000 coordinates at change_probability 0.001, so each moves hundreds of coordinates, then
    # three match draws: the week is the plan's three vector reads, each row in its slot of 2 + 3n draws, with
    # the same proposals, results and RNG state as proposing and playing team by team.
    size, n, m = 6, 3_000, 4
    params = LcaParams(league_size=size, swap_probability=0.0, change_probability=0.001)
    batched, fitness, stream, _ = _random_league(size, n, m, 5)
    reference, _, rng, _ = _random_league(size, n, m, 5)
    last_opponent = np.array([1, 0, 3, 2, 5, 4])
    home, away = np.array([0, 1, 2]), np.array([5, 4, 3])
    starts, rows, _ = _plan_rows(last_opponent, np.array([[home, away]]))
    start, cells = stream.state, _cells(n, m)
    with mock.patch.object(SplitMix64, "peek", autospec=True, side_effect=SplitMix64.peek) as reads, \
            mock.patch.object(SplitMix64, "uniforms", autospec=True, side_effect=SplitMix64.uniforms) as blocks:
        (week,) = _draw_plan(stream, params, _change_thresholds(0.001, n), rows, starts, 3, _NO_CARRY, cells)
    assert blocks.call_count == 0
    assert [call.args[1].shape for call in reads.call_args_list] == [(size, 3), (3, week.cells.shape[1]), (1, 3)]
    assert stream.state == _advanced(SplitMix64(start), size * _slot(n) + 3)
    proposed = update_formation(batched, week, m)
    upcoming = np.array([5, 4, 3, 2, 1, 0])
    expected = [reference_update_formation(reference, rng, last_opponent, t, upcoming[t], params, m)
                for t in range(size)]
    assert proposed.tobytes() == np.array(expected).tobytes()
    assert week.cells.shape[1] > size * 100
    play_match(batched, fitness, home, away, week.draws)
    assert np.where(batched.won[home], home, away).tolist() == [
        reference_play_match(reference, fitness, rng, last_opponent, i, j)[0] for i, j in zip(home, away)]
    assert stream.state == rng.state


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(4, 9),
    n=st.sampled_from([1, 2, 3, 40]),
    first=st.integers(0, 80),
    weeks=st.integers(1, 9),
    swap=st.sampled_from([0.0, 0.5, 1.0]),
    change=st.sampled_from([1e-3, 0.3, 1.0]),
    seed=st.integers(0, 2**64 - 1),
)
def test_no_row_reads_outside_its_slot(size, n, first, weeks, swap, change, seed):
    # Lay the plan's stream out as week 0's rows, a slot of 2 + 3n draws each, then its fixtures' draws, then
    # week 1's, and so on: every draw a row reads lies in its own slot, every match draw in its week's
    # fixtures, and the plan moves the stream past rows·slot + weeks·pairs draws.
    params = LcaParams(league_size=size, swap_probability=swap, change_probability=change)
    _, _, rng, before = _random_league(size, n, 2, seed)
    fixtures = _fixtures(size, range(first, first + weeks))
    starts, rows, _ = _plan_rows(before, fixtures)
    pairs, start, cells = fixtures.shape[2], rng.state, _cells(n, 2)
    owner = np.concatenate([x for w in range(len(fixtures))
                            for x in (np.repeat(np.arange(starts[w], starts[w + 1]), _slot(n)),
                                      np.full(pairs, -1 - w))])  # owner[t - 1]: the row or ~week of draw t
    with mock.patch.object(SplitMix64, "peek", autospec=True, side_effect=SplitMix64.peek) as reads:
        plan = _draw_plan(rng, params, _change_thresholds(change, n), rows, starts, pairs, _NO_CARRY, cells)
    assert rng.state == _advanced(SplitMix64(start), owner.size)
    (_, head), (_, coordinates), (_, matches) = (call.args for call in reads.call_args_list)
    assert (owner[head - 1] == np.arange(starts[-1])[:, None]).all()
    step_rows = [starts[w] + np.searchsorted(rows[0][starts[w] : starts[w + 1]], week.sides[0])
                 for w, week in enumerate(plan)]
    assert (owner[coordinates - 1] == np.concatenate(step_rows)).all()
    assert (owner[matches - 1] == -1 - np.arange(len(fixtures))[:, None]).all()


# ---------------------------------------------------------------- change count and positions


@settings(max_examples=300, deadline=None)
@given(p=st.floats(0.0, 1.0, exclude_min=True), n=st.integers(1, 3000), r=st.floats(0.0, 1.0))
@example(p=1.0, n=1500, r=1.0)
@example(p=1.0, n=1500, r=0.0)
@example(p=0.3, n=1500, r=1.0)
@example(p=5e-324, n=3000, r=1.0)
@example(p=0.3, n=1, r=0.5)
def test_change_count_stays_between_one_and_n(p, n, r):
    thresholds = _change_thresholds(p, n)
    assert all(0.0 < t <= 1.0 for t in thresholds) and thresholds[-1] == 1.0
    assert (np.diff(thresholds) >= 0.0).all()
    q = _change_count(thresholds, r)
    assert 1 <= q <= n
    assert q == reference_change_count(r, p, n)
    if p == 1.0 or r == 0.0 or n == 1:
        assert q == 1


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1e-6, 1.0, exclude_max=True), n=st.integers(1, 2000), r=st.floats(0.0, 1.0, exclude_min=True))
@example(p=0.3, n=1500, r=1.0 - 2.0**-53)
@example(p=0.3, n=20, r=1.0)
def test_change_count_is_kashans_closed_form_away_from_thresholds(p, n, r):
    # q = ceil(ln(1 - (1 - (1 - p)^n) r) / ln(1 - p)), q0 = 1, worked to 60 digits more than r's exponent; the
    # float thresholds may only disagree with it where r lies within a few ulps of the threshold between the two.
    with decimal.localcontext(decimal.Context(prec=60 - min(0, Decimal(r).adjusted()))):
        keep = 1 - Decimal(p)
        scale = 1 - keep**n
        kashan = math.ceil((1 - Decimal(r) + Decimal(r) * keep**n).ln() / keep.ln())  # 1 - scale r, no cancelling
        q = _change_count(_change_thresholds(p, n), r)
        if q != kashan:
            threshold = (1 - keep ** min(q, kashan)) / scale
            assert abs(Decimal(r) - threshold) <= 8 * Decimal(math.ulp(r))


@pytest.mark.parametrize("p, n", [(0.3, 1500), (0.3, 5), (0.05, 100), (0.9, 2), (0.001, 50), (1.0, 40)])
def test_change_count_mean_is_the_truncated_geometric_mean(p, n):
    # 40,000 counts from one stream: their mean is within 4 standard errors of the law's mean.
    keep = 1.0 - p
    mass = [p * keep ** (q - 1) / (1.0 - keep**n) for q in range(1, n + 1)]
    mean = sum(q * w for q, w in enumerate(mass, 1))
    sd = math.sqrt(sum((q - mean) ** 2 * w for q, w in enumerate(mass, 1)))
    thresholds = _change_thresholds(p, n)
    draws = SplitMix64(2026).uniforms(40_000).tolist()
    counts = [_change_count(thresholds, r) for r in draws]
    assert abs(np.mean(counts) - mean) <= 4 * sd / math.sqrt(len(counts)) + 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_positions_are_floyds_distinct_positions_in_range(n, data):
    # Steps side by side, each of its own count: the same positions as Floyd's algorithm step by step.
    counts = data.draw(st.lists(st.integers(1, n), max_size=8))
    u = data.draw(st.lists(st.floats(0.0, 1.0), min_size=sum(counts), max_size=sum(counts)))
    got = _positions(np.array(u, dtype=np.float64), np.array(counts, dtype=np.int64), n).tolist()
    edges = np.cumsum([0] + counts).tolist()
    for a, b in zip(edges, edges[1:]):
        step = got[a:b]
        assert len(set(step)) == len(step) and all(0 <= x < n for x in step)
        assert step == reference_positions(u[a:b], n)


@pytest.mark.parametrize("n, q", [(4, 2), (5, 3), (3, 3), (6, 1)])
def test_positions_make_every_subset_equally_likely(n, q):
    # Every combination of Floyd's integer picks (t uniform in [0, j] at rank k, j = n - q + k), fed as draws
    # at the middle of each pick's interval, as one call: each q-subset comes out equally often.
    picks = list(itertools.product(*(range(n - q + k + 1) for k in range(q))))
    u = [(t + 0.5) / (n - q + k + 1) for combo in picks for k, t in enumerate(combo)]
    got = _positions(np.array(u), np.full(len(picks), q), n).reshape(-1, q)
    subsets = Counter(frozenset(row) for row in got.tolist())
    assert set(subsets) == {frozenset(c) for c in itertools.combinations(range(n), q)}
    assert len(set(subsets.values())) == 1


def test_positions_hold_nothing_that_grows_with_n():
    # Sixteen steps of three positions among a million: the picks are resolved among themselves, so the peak
    # does not grow with n.
    tracemalloc.start()
    try:
        picked = _positions(np.linspace(0, 1, 48), np.full(16, 3), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert all(len(set(step)) == 3 for step in picked.reshape(16, 3).tolist())


# ---------------------------------------------------------------- league init


def _instance(n=6, m=2, seed=17, speed=1000.0):
    tasks = generate_synthetic(WorkloadSpec(n, seed=seed))
    vms = tuple(VirtualMachine(v, speed) for v in range(m))
    return ProblemInstance(tuple(tasks), vms)


def _init(params, instance, evaluate=None):
    """A starting league as run builds it: its stream SplitMix64(params.seed), scored by a fresh workspace."""
    return init_league(params, instance, SplitMix64(params.seed), evaluate or _FitnessEvaluator(instance))


def test_init_league_seeds_baseline_schedules():
    inst = _instance(n=8, m=3)
    league = _init(LcaParams(league_size=6, seed=1), inst)
    assert decode(league.current[0], 3) == fcfs(inst)
    assert decode(league.current[1], 3) == ljf(inst)
    assert decode(league.current[2], 3) == bef(inst)


def test_init_league_global_best_is_min_fitness():
    inst = _instance(n=8, m=3)
    evaluate = mock.Mock(wraps=_FitnessEvaluator(inst))
    league = _init(LcaParams(league_size=6, seed=1), inst, evaluate)
    assert league.best_fitness.tobytes() == _FitnessEvaluator(inst)(league.current).tobytes()
    assert league.best_fitness[league.champion] == league.best_fitness.min()
    assert league.champion == int(np.argmin(league.best_fitness))
    assert np.array_equal(league.best, league.current)
    ((block,), _), = evaluate.call_args_list  # the 6 starting formations, scored as one block
    assert block.shape == (6, 8)


def test_init_league_is_deterministic():
    inst = _instance(n=8, m=3)
    a = _init(LcaParams(league_size=6, seed=9), inst)
    b = _init(LcaParams(league_size=6, seed=9), inst)
    assert np.array_equal(a.current, b.current)
    assert np.array_equal(a.best_fitness, b.best_fitness)


def test_init_league_random_formations_in_range():
    inst = _instance(n=10, m=4)
    league = _init(LcaParams(league_size=8, seed=3, seed_with_baselines=False), inst)
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
        dict(league_size=4097),
        dict(league_size=10**12),
        dict(w1=math.nextafter(lca._WEIGHT_LIMIT, math.inf)),
        dict(w2=math.nextafter(lca._WEIGHT_LIMIT, math.inf)),
        dict(w1=1e308),
        dict(w2=1.7976931348623157e308),
    ],
)
def test_invalid_params_rejected(bad):
    (field,) = bad
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        LcaParams(**bad)


def test_a_run_with_both_weights_at_their_bound_stays_finite():
    # Every step overshoots to a clamped end; no step term may overflow to inf or its sum to nan.
    params = LcaParams(league_size=6, seasons=3, w1=lca._WEIGHT_LIMIT, w2=lca._WEIGHT_LIMIT, swap_probability=0.0)
    assert lca._WEIGHT_LIMIT == 1e290
    inst = _instance(n=30, m=5, seed=2)
    result = run(params, inst)
    assert math.isfinite(result.best_makespan_s) and result.best_makespan_s == result.history[-1]
    assert all(0 <= v < 5 for v in result.best_assignment.vm_of)


def test_the_largest_league_is_one_plan():
    # A plan holds at most _PLAN_ROWS rows, so a league of 4,096 teams is one week a plan; no league is built.
    assert LcaParams(league_size=4096).league_size == lca._PLAN_ROWS == 4096


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


@pytest.mark.parametrize("size", [5, 7])
def test_a_team_that_has_not_played_fields_its_unchanged_best(size):
    # Every week scores the whole league; a team that has not played yet (all in week 1, then the team with
    # a bye in week 1) holds its starting formation as current and best, its row of the block is that, and it
    # plays its first match at its best fitness.
    played, waiting = set(), []

    def propose(league, week, n_vms):
        block = update_formation(league, week, n_vms)
        for t in sorted(set(range(size)) - played):
            assert league.current[t].tobytes() == league.best[t].tobytes() == block[t].tobytes()
            waiting.append(t)
        return block

    def match(league, fitness, home, away, draws):
        for t in sorted(set(range(size)) - played):
            assert league.current[t].tobytes() == league.best[t].tobytes() and fitness[t] == league.best_fitness[t]
        played.update(home.tolist() + away.tolist())
        return play_match(league, fitness, home, away, draws)

    with mock.patch.object(lca, "update_formation", side_effect=propose), \
            mock.patch.object(lca, "play_match", side_effect=match):
        run(LcaParams(league_size=size, seasons=2, seed=3), _instance(n=8, m=3))
    assert len(waiting) == size + 1  # week 1's teams, then week 2's team that had a bye


def test_run_without_baseline_seeding_still_valid():
    inst = _instance(n=6, m=2, seed=31)
    result = run(
        LcaParams(league_size=6, seasons=10, seed=7, seed_with_baselines=False), inst
    )
    _, optimum = brute_force_optimum(inst)
    assert result.best_makespan_s >= optimum


def test_a_default_run_draws_in_five_plans_of_three_reads():
    # init_league draws every random start as one uniforms() block; then each plan of whole weeks, its
    # fixtures included, is three vector reads. No scalar draws.
    params, instance = LcaParams(), _instance(n=100, m=20)
    with mock.patch.object(SplitMix64, "uniforms", autospec=True, side_effect=SplitMix64.uniforms) as blocks, \
            mock.patch.object(SplitMix64, "peek", autospec=True, side_effect=SplitMix64.peek) as reads, \
            mock.patch.object(SplitMix64, "uniform", autospec=True, side_effect=SplitMix64.uniform) as scalars:
        run(params, instance)
    weeks = params.seasons * (params.league_size - 1)
    # A plan is _PLAN_ROWS // 20 = 204 weeks of the run, whatever season they fall in, so the 950 weeks are 5
    # plans of three reads.
    assert scalars.call_count == 0 and blocks.call_count == 1
    assert all(isinstance(call.args[1], np.ndarray) for call in reads.call_args_list)
    assert reads.call_count == 3 * math.ceil(weeks / 204) == 15 < 2 * weeks


_REFERENCE_RUNS = dict(
    size=st.integers(4, 9),
    seasons=st.integers(1, 3),
    n=st.sampled_from([1, 2, 3, 12, 40]),
    m=st.integers(1, 4),
    swap=st.sampled_from([0.0, 0.5, 1.0]),
    change=st.sampled_from([0.05, 0.3, 1.0]),
    seeded=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)


def _reference_case(size, seasons, n, m, swap, change, seeded, seed):
    params = LcaParams(league_size=size, seasons=seasons, swap_probability=swap, change_probability=change,
                       seed_with_baselines=seeded, seed=seed)
    return params, _instance(n=n, m=m, seed=mix64(seed))


@settings(max_examples=100, deadline=None)
@given(**_REFERENCE_RUNS)
def test_a_whole_run_equals_the_per_team_reference(**case):
    params, instance = _reference_case(**case)
    result = run(params, instance)
    assert (result.history, result.best_assignment, result.evaluations) == reference_run(params, instance)


@settings(max_examples=100, deadline=None)
@given(**_REFERENCE_RUNS)
def test_the_plan_budget_is_unobservable(**case):
    # One week per plan; three weeks per plan, so plans end mid-season and cross a season's end; or the whole
    # run as one plan: the same runs.
    params, instance = _reference_case(**case)
    with mock.patch.object(lca, "_PLAN_ROWS", params.league_size):
        weekly = run(params, instance)
    with mock.patch.object(lca, "_PLAN_ROWS", 3 * params.league_size):
        three_weekly = run(params, instance)
    with mock.patch.object(lca, "_PLAN_ROWS", 2**40):
        whole = run(params, instance)
    assert weekly == three_weekly == whole == run(params, instance)
