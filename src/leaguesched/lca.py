"""League-championship search engine for VM assignment.

A league of teams holds candidate schedules as continuous "formations", one
coordinate per task in [0, m) where m is the VM count (truncation decodes a
coordinate to a VM index). Every artificial week each team reshapes its
formation around the best schedule it has found so far, pushed by the outcome
of its previous match and by the current form of its upcoming opponent; the
week's fixtures are then resolved stochastically, with win probability driven
by the two sides' fitness relative to the best value found anywhere in the
league. Fitness is makespan, so lower means stronger. The run is one stream
of weeks; a season, one full round robin, is only how the fixtures repeat
(_fixtures). The league is held as arrays, one row per team, and every
update reads only last week's league, so every week is one (L, n) block. A
week's block differs from last week's only where either week's proposals
moved a coordinate, about 3 per step and 2 per swap: a team that improved
keeps its proposal and the rest go back to their bests. So it is scored by
rewriting those cells of the last block scored and tallying them once
(_FitnessEvaluator), bit-identical to a fresh call of the loads kernel on
the whole block. Where each draw of the stream falls,
and what it is, depends only on the seed, the fixtures and n, never on the
league: SplitMix64 is a counter, and every proposing row owns a slot of
2 + 3n draws whatever it uses of them, so a plan of whole weeks reads all
its draws at computed offsets (_draw_plan), and each week is a record (_Week).
In its slot a swap takes its decision draw and two position draws; a step
takes its decision draw, one draw for its change count q (Kashan's truncated
geometric law), then q position, q r1 and q r2 draws. A week's fixtures take
one draw each after its rows.

Win probability for the side with fitness f_i against f_j, given the
league-wide best f̂ (a lower bound on both):

    p_i = (f_j - f̂) / (f_i + f_j - 2·f̂)

which normalizes to p_i + p_j = 1, tends to 1 as the opponent gets much
weaker, and is 1/2 for equally fit sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import bef, fcfs, ljf
from .model import SEED, Assignment, ProblemInstance, check_fields, count, is_finite, makespan
from .rng import SplitMix64

# A step's proposed coordinates are clamped to [0, m - _CLAMP_EPS]. A random starting coordinate reaches m on a
# draw of 1.0, so _vm_index clamps again when it decodes.
_CLAMP_EPS = 1e-9

# No team: a bye slot in the fixtures, or no opponent yet for a team that has not played.
_BYE = -1

# A plan (_draw_plan) is _PLAN_ROWS // L whole weeks of the run, so it holds at most this many rows (LcaParams
# caps L at it). A cap, not the whole run: a plan's moved cells and step draws grow with its rows, not with n,
# and a 4,080-row plan (L = 20) peaks at 1.6 MB under tracemalloc at n = 100 and at n = 2,000 alike.
_PLAN_ROWS = 1 << 12

# The largest step weight w1 or w2. Before the clip a step is below (w1 + w2 + 1)·m, and decode caps m at 2**53, so
# at this bound no step term overflows to inf, and no step to nan (inf - inf) that _vm_index would cast to INT64_MIN.
_WEIGHT_LIMIT = 1e290


@dataclass(frozen=True)
class LcaParams:
    """League search parameters; construction raises ValueError naming every bad field."""

    league_size: int = 20  # L: number of teams
    seasons: int = 50  # S: each season is one full round robin
    change_probability: float = 0.3  # p_c of a step's change count q, truncated geometric on [1, n]: mean ~1/p_c
    w1: float = 1.0  # step weight for the previous-opponent term
    w2: float = 1.0  # step weight for the upcoming-opponent term
    swap_probability: float = 0.5  # chance a week's proposal swaps two positions instead
    seed: int = 0
    seed_with_baselines: bool = True  # start teams 0-2 from FCFS/LJF/BEF

    def __post_init__(self) -> None:
        p = self
        check_fields(
            count(4, _PLAN_ROWS).row("league_size", p.league_size),
            count(1).row("seasons", p.seasons),
            ("change_probability", is_finite(p.change_probability) and 0.0 < p.change_probability <= 1.0,
             "a number in (0, 1]", p.change_probability),
            ("swap_probability", is_finite(p.swap_probability) and 0.0 <= p.swap_probability <= 1.0,
             "a number in [0, 1]", p.swap_probability),
            ("w1", is_finite(p.w1) and 0 < p.w1 <= _WEIGHT_LIMIT, f"a positive number <= {_WEIGHT_LIMIT:g}", p.w1),
            ("w2", is_finite(p.w2) and 0 < p.w2 <= _WEIGHT_LIMIT, f"a positive number <= {_WEIGHT_LIMIT:g}", p.w2),
            SEED.row("seed", p.seed),
            ("seed_with_baselines", isinstance(p.seed_with_baselines, bool), "true or false",
             p.seed_with_baselines),
        )


@dataclass
class League:
    """What carries from one week to the next, as arrays: row or entry i belongs to team i."""

    current: np.ndarray  # (L, n) formation each team fielded in the latest week played
    best: np.ndarray  # (L, n) best formation each team has ever held
    best_fitness: np.ndarray  # (L,)
    won: np.ndarray  # (L,) bool, outcome of each team's last match
    champion: int  # first team to reach the best fitness found so far


@dataclass
class RunResult:
    best_assignment: Assignment
    best_makespan_s: float
    history: list[float]  # f̂ after each week, nonincreasing
    evaluations: int  # proposals scored: L starting formations, then one per team that has played, each week


def encode(assignment: Assignment) -> np.ndarray:
    """Continuous formation for a schedule: the center of each VM bucket."""
    return np.asarray(assignment.vm_of, dtype=np.float64) + 0.5


def _vm_index(formation: np.ndarray, n_vms: int) -> np.ndarray:
    """Clamp coordinates into [0, n_vms - 1], then truncate: clamped first, the int64 cast cannot overflow.

    np.maximum gives +0.0 for a -0.0 where np.clip kept -0.0; no formation coordinate is -0.0, and either is VM 0.
    """
    return np.minimum(np.maximum(formation, 0), n_vms - 1).astype(np.int64)


def decode(formation: np.ndarray, n_vms: int) -> Assignment:
    """The schedule a formation stands for: each coordinate clamped into [0, n_vms - 1], then truncated.

    Clamped first, a coordinate of any size decodes to its nearest end VM. Raises ValueError naming formation
    unless a vector of finite coordinates, and n_vms unless an integer in [1, 2**53], where n_vms - 1 is exact.
    """
    try:
        x = np.asarray(formation, dtype=np.float64)
    except (TypeError, ValueError):  # not numeric: a 2-d stand-in, so check_fields refuses it by name
        x = np.empty((0, 0))
    check_fields(("formation", x.ndim == 1 and bool(np.isfinite(x).all()), "a vector of finite coordinates",
                  formation),
                 ("n_vms", count(1, 2**53).ok(n_vms), "an integer >= 1 and <= 2**53", n_vms))
    return Assignment(tuple(_vm_index(x, n_vms).tolist()))


def _fixtures(n_teams: int, weeks: range) -> np.ndarray:
    """Home and away sides of the given 0-based weeks of the run, (len(weeks), 2, n_teams // 2).

    A season is one round robin of W weeks by the circle method, with a bye slot (team n_teams) when the league
    is odd: in week w of season 0 slot i meets slot -1-i, slot 0 holding team 0 and slot i > 0 team
    1 + (i - 1 - w) % W, and the bye's pair plays no match. Season s relabels season 0's team t (t + s) % n_teams.
    """
    slots = n_teams + n_teams % 2
    season, week = np.divmod(np.asarray(weeks)[:, None, None], slots - 1)
    side = np.vstack([np.arange(slots), np.arange(slots)[::-1]])[:, : slots // 2]
    team = np.where(side > 0, (side - 1 - week) % (slots - 1) + 1, 0)
    plays = np.broadcast_to((team < n_teams).all(axis=1, keepdims=True), team.shape)
    return (team[plays].reshape(len(team), 2, -1) + season) % n_teams


def win_probability(f_i: np.ndarray, f_j: np.ndarray, f_hat: np.ndarray | float) -> np.ndarray:
    """Probability that each side with fitness f_i beats the side with f_j, elementwise.

    Minimization orientation: fitness is makespan, so the SMALLER fitness gets
    the larger probability. f_hat (one value, or one per pair) must be a lower
    bound on both fitnesses, unchecked: the run keeps it so. A zero denominator
    (both sides at the ideal value) is an even match. f_i and f_j are numpy
    arrays of float64; a list is not converted.
    """
    gap_j = f_j - f_hat
    denom = (f_i - f_hat) + gap_j
    p = np.empty_like(denom)
    p.fill(0.5)  # np.full costs about twice as much a call
    return np.divide(gap_j, denom, out=p, where=denom != 0.0)


def play_match(league: League, fitness: np.ndarray, home: np.ndarray, away: np.ndarray, draws: np.ndarray) -> None:
    """Resolve the week's fixtures (home[k], away[k]) between sides of the given fitness, one uniform draw each.

    Records won for both sides of every fixture. There are
    no ties: the home side wins iff its draw u = draws[k] satisfies u <= p
    (and p > 0, so a hopeless side cannot win on the measure-zero draw
    u = 0). The draws are the week's match draws of its plan, in fixture order.
    """
    p = win_probability(fitness[home], fitness[away], league.best_fitness[league.champion])
    home_won = (p > 0.0) & (draws <= p)
    league.won[home], league.won[away] = home_won, ~home_won


class _Week(NamedTuple):
    """One week of a plan (_draw_plan): everything the run reads to propose, score and play it.

    The week's steps move k coordinates in all, one column each of sides, cells and r. Where a coordinate has no
    upcoming opponent its third cell is negative and reads the last team's row, as _BYE does; its r there is 0.
    """

    draws: np.ndarray  # one match draw per fixture, in fixture order
    proposals: int  # how many teams propose: every team that has played
    sides: np.ndarray  # (2, k): each moved coordinate's team and its upcoming opponent (_BYE for none)
    cells: np.ndarray  # (3, k): its flat cell (team * n + position) in its team's, last and upcoming opponent's rows
    r: np.ndarray  # (2, k): its two step draws times w1 and w2, the second zero where the second step is dropped
    swaps: np.ndarray  # (2, s): each swap's two cells in the flattened block
    moved: tuple  # where the cells moved in the week before and in this week fall (_FitnessEvaluator.moved_cells)


def update_formation(league: League, week: _Week, n_vms: int) -> np.ndarray:
    """Next week's (L, n) block from the week's record: a proposal from each team that has played, else B.

    Both move classes anchor at the team's best formation B. With probability
    swap_probability the proposal is a fine rearrangement: two uniformly
    chosen coordinates of B exchange values (two players trade positions),
    which rebalances a schedule without disturbing anything else. Otherwise
    a step changes q distinct coordinates, q drawn from Kashan's truncated
    geometric law with rate change_probability and the coordinates uniformly
    at random. Each takes two random steps, weighted w1 and w2: away from the
    previous opponent's formation after a win, toward it after a loss (a win
    confirms B's strengths; a loss exposes weaknesses), and likewise relative
    to the upcoming opponent's current formation depending on that opponent's
    last result. A team with a bye this week, or whose upcoming opponent has
    not played yet, drops the second step. A team that has not played keeps
    B, still its starting formation. The caller evaluates the rows and commits
    them. Only B, the formations and the signs come from the league; the rest
    is the week's record, its cells flat indices into the (L, n) blocks.
    """
    proposed = league.best.copy()
    flat = proposed.reshape(-1)
    best = flat[week.cells[0]]
    terms = np.where(league.won[week.sides], week.r, -week.r)  # (-w)·r is -(w·r) exactly
    terms *= best - league.current.reshape(-1)[week.cells[1:]]
    step = terms[0] + terms[1]
    step += best
    np.maximum(step, 0.0, out=step)  # np.clip, bit for bit, as no step is -0.0: that needs a -0.0 in best
    flat[week.cells[0]] = np.minimum(step, n_vms - _CLAMP_EPS, out=step)
    flat[week.swaps] = flat[week.swaps[::-1]]
    return proposed


def _plan_rows(before: np.ndarray, fixtures: np.ndarray) -> tuple[np.ndarray, tuple, np.ndarray]:
    """A plan's proposing rows in stream order: (starts, (team, previous, ahead, second), after).

    fixtures is a (weeks, 2, pairs) array of home and away sides, and before and after hold each team's last
    opponent (_BYE for none yet) before and after the plan. A team proposes once it has played; week w's
    rows are starts[w]..starts[w+1]-1 by team, and second says whether the second step applies.
    """
    weeks = len(fixtures)
    opponent = np.vstack([before, np.full((weeks, before.size), _BYE)])  # row 0: before the plan
    opponent[np.arange(1, weeks + 1)[:, None, None], fixtures] = fixtures[:, ::-1]
    seen = np.maximum.accumulate(np.where(opponent != _BYE, np.arange(weeks + 1)[:, None], 0))
    last = np.take_along_axis(opponent, seen, axis=0)  # last[w]: each team's last opponent before week w
    week, team = np.nonzero(last[:-1] != _BYE)
    starts = np.append(0, np.cumsum(np.bincount(week, minlength=weeks)))
    ahead = opponent[week + 1, team]
    second = (ahead != _BYE) & (last[week, ahead] != _BYE)
    return starts, (team, last[week, team], ahead, second), last[-1]


def _change_thresholds(p: float, n: int) -> np.ndarray:
    """P(q <= Q) for Q = 1..n, q a step's change count: (1 - (1 - p)^Q) / (1 - (1 - p)^n), truncated geometric.

    Computed through expm1 and log1p, so a tiny p keeps its precision and p = 1 puts every entry at 1 (q = 1)
    without taking ln 0. The entries never decrease, and the last is exactly 1.
    """
    rate = math.log1p(-p) if p < 1.0 else -math.inf  # ln(1 - p)
    tail = [math.expm1(q * rate) for q in range(1, n + 1)]
    return np.array([t / tail[-1] for t in tail])


def _change_count(thresholds: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A step's change count for each draw r in [0, 1]: the least Q >= 1 with r <= P(q <= Q), so 1 <= q <= n.

    This is Kashan's q = ceil(ln(1 - (1 - (1 - p)^n) r) / ln(1 - p)) (with q0 = 1) in threshold form, which
    needs no ln 0 at p = 1 and gives 1, not 0, on r = 0.
    """
    return np.searchsorted(thresholds, r) + 1


def _positions(u: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Floyd's sample of counts[s] distinct positions in [0, n) for each step s, from one draw per position.

    u holds each step's draws in turn, as many as its count q. Its k-th draw picks t uniformly in [0, j],
    j = n - q + k (a draw of 1.0 gives j, as in the swap), and the step takes t unless it already holds it,
    then j, which it cannot hold yet; every q-subset is equally likely. A rank holds its t or its j, and j
    rises with rank, so rank k takes j iff t is j, t repeats an earlier rank's t, or t is the j of an earlier
    rank that took it: a chain down the ranks, which pointer doubling follows for every step in log2
    max(counts) passes. Nothing here grows with n.
    """
    at = np.arange(u.size)
    step = np.repeat(np.arange(counts.size), counts)
    first = (np.cumsum(counts) - counts)[step]
    top = n - counts[step] + at - first
    picked = np.minimum((u * (top + 1)).astype(np.int64), top)
    key = step * n + picked
    order = np.argsort(key, kind="stable")  # a step's equal picks in rank order
    took_top = picked == top
    took_top[order[1:]] |= key[order[1:]] == key[order[:-1]]
    chain = np.where(at + picked - top >= first, at + picked - top, at)  # where picked is an earlier rank's j
    for _ in range(int(counts.max(initial=0)).bit_length()):
        took_top |= took_top[chain]
        chain = chain[chain]
    return np.where(took_top, top, picked)


def _draw_plan(rng: SplitMix64, params: LcaParams, thresholds: np.ndarray, rows: tuple, starts: np.ndarray,
               pairs: int, carried: np.ndarray, evaluate: _FitnessEvaluator) -> list[_Week]:
    """Read a plan of whole weeks, week w's rows (_plan_rows) being starts[w]..starts[w+1]-1: one _Week each.

    Each row owns slot = 2 + 3n draws and each fixture one. Row r of week w starts after r·slot + w·pairs draws
    and the week's match draws after starts[w+1]·slot + w·pairs; the plan moves the stream past rows·slot +
    weeks·pairs. So it is three vector reads whatever its size: each row's first three draws, every moved
    coordinate's position, r1 and r2 draws, and the fixtures'. A row swaps iff its decision draw is <=
    swap_probability > 0 (a probability of 1 is exact even on a draw of 1.0), at positions from its next two draws
    (none when n < 2); else it steps, its count q (_change_count) from its second draw, r1 and r2 times w1 and w2,
    r2 zero where the second step is dropped. Each week's moved cells (a step's coordinates and a swap's two) are
    those of the week before and of this week, placed by evaluate.moved_cells once for the whole plan: one slice
    of them in row order, carried (the flat cells of the week before the plan) first.
    """
    n, p, slot = thresholds.size, params.swap_probability, 2 + 3 * thresholds.size
    weeks = np.arange(starts.size - 1)
    team, _, ahead, second = rows
    before = np.arange(starts[-1]) * slot + np.repeat(weeks, np.diff(starts)) * pairs  # draws before each row
    head = rng.peek(before[:, None] + [1, 2, 3])
    swapping = (head[:, 0] <= p) & (p > 0.0)
    steps = (~swapping).nonzero()[0]
    q = _change_count(thresholds, head[steps, 1])
    first = np.cumsum(q) - q  # each step's first moved coordinate
    # each moved coordinate's position draw, then its r1 draw q after it and its r2 draw 2q after it
    coordinate = rng.peek(np.repeat(before[steps] + 3 - first, q) + np.arange(q.sum())
                          + np.repeat(q, q) * [[0], [1], [2]])
    r = coordinate[1:]
    r[1, ~np.repeat(second[steps], q)] = 0.0
    r *= [[params.w1], [params.w2]]
    sides = np.repeat(np.stack([team, ahead])[:, steps], q, axis=1)
    cells = np.repeat(np.stack(rows[:3])[:, steps], q, axis=1) * n + _positions(coordinate[0], q, n)
    swaps = swapping.nonzero()[0] if n >= 2 else steps[:0]
    i, j = ij = np.minimum((head[swaps, 1:] * [n, n - 1]).astype(np.int64), [n - 1, n - 2]).T
    j += j >= i
    draws = rng.peek((starts[1:] * slot + weeks * pairs)[:, None] + np.arange(1, pairs + 1))
    rng.skip(starts[-1] * slot + weeks.size * pairs)
    swap_cells = team[swaps] * n + ij
    moved_row = np.concatenate([np.full(carried.size, -1), np.repeat(steps, q), swaps, swaps])  # carried: row -1
    by_row = np.argsort(moved_row, kind="stable")
    cell, slot, offset, length = evaluate.moved_cells(np.concatenate([carried, cells[0], *swap_cells])[by_row])
    bounds = starts.tolist()
    step_at = np.append(first, q.sum())[np.searchsorted(steps, bounds)].tolist()  # where each week starts among
    swap_at = np.searchsorted(swaps, bounds).tolist()  # the moved coordinates, the swaps and the moved cells from
    moved_at = [0, *np.searchsorted(moved_row[by_row], bounds).tolist()]  # the week before on
    return [_Week(draws[w], b - a, sides[..., s:t], cells[..., s:t], r[..., s:t], swap_cells[..., u:v],
                  (cell[c:d], slot[c:d], offset[c:d], length[c:d]))
            for w, (a, b, s, t, u, v, c, d) in enumerate(zip(bounds, bounds[1:], step_at, step_at[1:], swap_at,
                                                               swap_at[1:], moved_at, moved_at[2:]))]


def _weeks(rng: SplitMix64, evaluate: _FitnessEvaluator, params: LcaParams, n: int):
    """Every week of the run in stream order, drawn a plan at a time: (home, away, its _Week).

    Each team's last opponent follows from the fixtures alone, and the cells moved in a plan's last week are
    carried into the next plan, whose first week's moved cells name them."""
    size = params.league_size
    thresholds = _change_thresholds(params.change_probability, n)
    weeks, per_plan = params.seasons * (size - 1 + size % 2), _PLAN_ROWS // size
    last_opponent, carried = np.full(size, _BYE), np.zeros(0, dtype=np.int64)
    for first in range(0, weeks, per_plan):
        fixtures = _fixtures(size, range(first, min(first + per_plan, weeks)))
        starts, rows, last_opponent = _plan_rows(last_opponent, fixtures)
        plan = _draw_plan(rng, params, thresholds, rows, starts, fixtures.shape[2], carried, evaluate)
        carried = np.concatenate([plan[-1].cells[0], *plan[-1].swaps])
        yield from zip(fixtures[:, 0], fixtures[:, 1], plan)
        del plan  # not held while the next plan is drawn


class _FitnessEvaluator:
    """The run's scoring workspace: each formation's makespan, by the instance's loads kernel in two steps.

    It keeps the cells (ProblemInstance.cells) of the last block it scored. A dense call, evaluate(formations),
    scores one (n,) formation or an (rows, n) block whole. A week call, evaluate(proposed, moved), scores a
    block that differs from the last one only at the moved cells (moved_cells): it rewrites those cells from
    the new block and tallies. A cell named that did not change is rewritten with what it held. Either way each
    makespan is bit-identical to model.makespan of the decoded assignment: a duration is one exactly rounded
    quotient wherever it is computed, and the cells stay in arrival order, so every bin adds the same values in
    the same sequence.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self._instance = instance
        self._m = len(instance.vms)
        self._slot = np.argsort(instance.arrival)  # each position's slot in arrival order

    def __call__(self, formations: np.ndarray, moved: tuple | None = None) -> np.ndarray:
        if moved is None:
            self._keys, self._durations = self._instance.cells(_vm_index(formations, self._m))
        else:
            cell, slot, offset, length = moved
            vm = _vm_index(formations.reshape(-1)[cell], self._m)
            self._keys.reshape(-1)[slot] = vm + offset
            self._durations.reshape(-1)[slot] = length / self._instance.speeds[vm]
        return self._instance.tally(self._keys, self._durations).max(axis=-1).reshape(formations.shape[:-1])

    def moved_cells(self, cell: np.ndarray) -> tuple[np.ndarray, ...]:
        """Where the moved coordinates fall, given as flat cells team * n + position: (cell, slot, offset, length).

        slot is the cell's place in the flattened arrival-ordered cells, offset its team's key offset and length
        its task's length.
        """
        team, position = np.divmod(cell, self._slot.size)
        return cell, team * self._slot.size + self._slot[position], team * self._m, self._instance.lengths[position]


def init_league(params: LcaParams, instance: ProblemInstance, rng: SplitMix64,
                evaluate: _FitnessEvaluator) -> League:
    """Build the starting league: seeded and/or random formations, all scored by the run's evaluate.

    With seed_with_baselines, teams 0-2 start from the FCFS, LJF and BEF
    schedules, so the league never regresses below the strongest baseline.
    The random formations are one block of uniforms from the run's rng.
    """
    size, n, m = params.league_size, len(instance.tasks), len(instance.vms)
    seeds = [fcfs(instance), ljf(instance), bef(instance)] if params.seed_with_baselines else []
    current = np.vstack([*map(encode, seeds), rng.uniforms((size - len(seeds)) * n).reshape(-1, n) * m])
    fitness = evaluate(current)
    return League(current=current, best=current.copy(), best_fitness=fitness, won=np.zeros(size, dtype=bool),
                  champion=int(fitness.argmin()))


def run(params: LcaParams, instance: ProblemInstance) -> RunResult:
    """Full championship: seasons of weekly update-then-play rounds.

    The run owns its machinery: the stream SplitMix64(seed), the scoring
    workspace and the evaluation count; the league holds only what carries
    to next week. Each week, by one path, every team with match history
    proposes a new formation from last week's league, the rest keep their
    best, and the whole league is scored as one block before the week's
    fixtures are resolved together on that block's fitness. A team's best
    and the champion move only on a strictly lower fitness, the first team
    in index order winning ties, so the history of f̂ is nonincreasing."""
    rng, evaluate = SplitMix64(params.seed), _FitnessEvaluator(instance)
    league = init_league(params, instance, rng, evaluate)
    m, evaluations = len(instance.vms), params.league_size
    history: list[float] = []
    for home, away, week in _weeks(rng, evaluate, params, len(instance.tasks)):
        proposed = update_formation(league, week, m)
        fitness = evaluate(proposed, week.moved)
        evaluations += week.proposals
        f_hat, first = league.best_fitness[league.champion], fitness.argmin()  # the lowest team index wins ties
        if fitness[first] < f_hat:
            league.champion, f_hat = int(first), fitness[first]
        improved = (fitness < league.best_fitness).nonzero()[0].tolist()  # a team or two a week, often none
        league.current = proposed
        for team in improved:
            league.best[team], league.best_fitness[team] = proposed[team], fitness[team]
        play_match(league, fitness, home, away, week.draws)
        history.append(float(f_hat))
        del week  # views of the plan's columns: not held while the next plan is drawn
    best_assignment = decode(league.best[league.champion], m)
    return RunResult(
        best_assignment=best_assignment,
        best_makespan_s=makespan(instance, best_assignment).makespan_s,
        history=history,
        evaluations=evaluations,
    )
