"""League-championship search engine for VM assignment.

A league of teams holds candidate schedules as continuous "formations", one
coordinate per task in [0, m) where m is the VM count (truncation decodes a
coordinate to a VM index). Every artificial week each team reshapes its
formation around the best schedule it has found so far, pushed by the outcome
of its previous match and by the current form of its upcoming opponent; the
week's fixtures are then resolved stochastically, with win probability driven
by the two sides' fitness relative to the best value found anywhere in the
league. Fitness is makespan, so lower means stronger, and a season is one
full round robin. The league is held as arrays, one row per team, and every
update reads only last week's league, so a week is computed as a batch: its
proposals from one span of the random stream, scored together by one call of
the loads kernel, and its fixtures resolved from one more draw.

Win probability for the side with fitness f_i against f_j, given the
league-wide best f̂ (a lower bound on both):

    p_i = (f_j - f̂) / (f_i + f_j - 2·f̂)

which normalizes to p_i + p_j = 1, tends to 1 as the opponent gets much
weaker, and is 1/2 for equally fit sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import bef, fcfs, ljf
from .model import Assignment, ProblemInstance, check_fields, is_finite, is_integer, makespan
from .rng import SplitMix64

# Formations are clamped to [0, m - _CLAMP_EPS] so truncation never reaches m.
_CLAMP_EPS = 1e-9

# No team: a bye slot in the fixtures, or no opponent yet for a team that has not played.
_BYE = -1


@dataclass(frozen=True)
class LcaParams:
    """League search parameters; construction raises ValueError naming every bad field."""

    league_size: int = 20  # L: number of teams
    seasons: int = 50  # S: each season is one full round robin
    change_probability: float = 0.3  # per-coordinate Bernoulli mask rate
    w1: float = 1.0  # step weight for the previous-opponent term
    w2: float = 1.0  # step weight for the upcoming-opponent term
    swap_probability: float = 0.5  # chance a week's proposal swaps two positions instead
    seed: int = 0
    seed_with_baselines: bool = True  # start teams 0-2 from FCFS/LJF/BEF

    def __post_init__(self) -> None:
        p = self
        check_fields(
            ("league_size", is_integer(p.league_size) and p.league_size >= 4, "an integer >= 4",
             p.league_size),
            ("seasons", is_integer(p.seasons) and p.seasons >= 1, "an integer >= 1", p.seasons),
            ("change_probability", is_finite(p.change_probability) and 0.0 < p.change_probability <= 1.0,
             "a number in (0, 1]", p.change_probability),
            ("swap_probability", is_finite(p.swap_probability) and 0.0 <= p.swap_probability <= 1.0,
             "a number in [0, 1]", p.swap_probability),
            ("w1", is_finite(p.w1) and p.w1 > 0, "a finite positive number", p.w1),
            ("w2", is_finite(p.w2) and p.w2 > 0, "a finite positive number", p.w2),
            ("seed", is_integer(p.seed) and 0 <= p.seed < 2**64, "a 64-bit unsigned integer", p.seed),
            ("seed_with_baselines", isinstance(p.seed_with_baselines, bool), "true or false",
             p.seed_with_baselines),
        )


@dataclass
class League:
    """The whole league as arrays: row or entry i belongs to team i."""

    current: np.ndarray  # (L, n) formation each team fielded this week
    current_fitness: np.ndarray  # (L,)
    best: np.ndarray  # (L, n) best formation each team has ever held
    best_fitness: np.ndarray  # (L,)
    last_opponent: np.ndarray  # (L,) team index, _BYE before a team's first match
    won: np.ndarray  # (L,) bool, outcome of each team's last match
    champion: int  # first team to reach the best fitness found so far
    rng: SplitMix64
    evaluate: _FitnessEvaluator  # fitness of each row of a formation block
    evaluations: int = 0

    @property
    def f_hat(self) -> float:
        """Best fitness found so far (the ideal value); every team best is >= it."""
        return float(self.best_fitness[self.champion])


@dataclass
class RunResult:
    best_assignment: Assignment
    best_makespan_s: float
    history: list[float]  # f̂ after each week, nonincreasing
    evaluations: int


def encode(assignment: Assignment) -> np.ndarray:
    """Continuous formation for a schedule: the center of each VM bucket."""
    return np.asarray(assignment.vm_of, dtype=np.float64) + 0.5


def _vm_index(formation: np.ndarray, n_vms: int) -> np.ndarray:
    """Clamp coordinates into [0, n_vms - 1], then truncate: clamped first, the int64 cast cannot overflow."""
    return np.clip(formation, 0, n_vms - 1).astype(np.int64)


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
                 ("n_vms", is_integer(n_vms) and 1 <= n_vms <= 2**53, "an integer >= 1 and <= 2**53", n_vms))
    return Assignment(tuple(_vm_index(x, n_vms).tolist()))


def season_fixtures(n_teams: int, season: int) -> list[list[tuple[int, int]]]:
    """Fixtures for one season: a single round robin by the circle method.

    The slots start as the team order rotated by season - 1, with a bye slot
    appended when the league is odd. Week w pairs slot i with slot -1-i, then
    every slot but the first rotates one step, so every pair of teams meets
    exactly once. A team drawn against the bye plays no match that week.
    """
    rotation = (season - 1) % n_teams
    slots = [(i + rotation) % n_teams for i in range(n_teams)] + [_BYE] * (n_teams % 2)
    weeks = []
    for _ in range(len(slots) - 1):
        pairs = zip(slots[: len(slots) // 2], reversed(slots))
        weeks.append([(i, j) for i, j in pairs if _BYE not in (i, j)])
        slots[1:] = [slots[-1]] + slots[1:-1]
    return weeks


def win_probability(f_i: np.ndarray, f_j: np.ndarray, f_hat: np.ndarray | float) -> np.ndarray:
    """Probability that each side with fitness f_i beats the side with f_j, elementwise.

    Minimization orientation: fitness is makespan, so the SMALLER fitness gets
    the larger probability. f_hat (one value, or one per pair) must be a lower
    bound on both fitnesses; a zero denominator (both sides at the ideal
    value) is an even match.
    """
    f_i, f_j = np.asarray(f_i, dtype=np.float64), np.asarray(f_j, dtype=np.float64)
    if (f_i < f_hat).any() or (f_j < f_hat).any():
        raise ValueError(f"stale ideal value: f_hat={f_hat} exceeds a fitness ({f_i}, {f_j})")
    gap_j = f_j - f_hat
    denom = (f_i - f_hat) + gap_j
    return np.divide(gap_j, denom, out=np.full(denom.shape, 0.5), where=denom != 0.0)


def play_match(league: League, home: np.ndarray, away: np.ndarray) -> np.ndarray:
    """Resolve the week's fixtures (home[k], away[k]) with one uniform draw each; returns the winners.

    Records last_opponent and won for both sides of every fixture. There are
    no ties: the home side wins iff its draw u satisfies u <= p (and p > 0, so
    a hopeless side cannot win on the measure-zero draw u = 0). The draws are
    made in fixture order, one uniforms() call for the week.
    """
    fitness = league.current_fitness
    p = win_probability(fitness[home], fitness[away], league.f_hat)
    home_won = (p > 0.0) & (league.rng.uniforms(home.size) <= p)
    league.last_opponent[home], league.last_opponent[away] = away, home
    league.won[home], league.won[away] = home_won, ~home_won
    return np.where(home_won, home, away)


def update_formation(
    league: League, teams: np.ndarray, upcoming: np.ndarray, params: LcaParams, n_vms: int
) -> np.ndarray:
    """Propose next week's formation for each of `teams` (ascending), one row each.

    upcoming[t] is team t's opponent this week (_BYE for a bye). Both move
    classes anchor at the team's best formation B. With probability
    swap_probability the proposal is a fine rearrangement: two uniformly
    chosen coordinates of B exchange values (two players trade positions),
    which rebalances a schedule without disturbing anything else. Otherwise a
    Bernoulli(change_probability) mask picks which coordinates move (redrawn
    until at least one is set) and the masked coordinates take two random
    steps: away from the previous opponent's formation after a win, toward it
    after a loss (a win confirms B's strengths; a loss exposes weaknesses),
    and likewise relative to the upcoming opponent's current formation
    depending on that opponent's last result. A team with a bye this week, or
    whose upcoming opponent has not played yet, drops the second step; its
    draws are made all the same. The caller evaluates the rows and commits them.

    Both draws follow play_match's rule, so a probability of 1 is exact even
    on a draw of 1.0: the swap is taken iff the first draw u satisfies
    u <= swap_probability and swap_probability > 0 (the draw is made either
    way), and a coordinate is masked iff its draw is <= change_probability.

    Every proposal reads only last week's league, so the week is computed as a
    batch with the same draws, in the same order, as proposing team by team.
    The draws form one contiguous span of the stream, drawn by one uniforms()
    call: each team's decision draw is read ahead with peek(), then a swap
    takes 2 draws (none when n < 2) and a masked step k·n mask draws and 2n
    step draws, where k - 1 is the number of empty masks redrawn. If a mask
    comes up empty, the week is drawn again with that team's k one higher.
    """
    previous, nxt = league.last_opponent[teams], upcoming[teams]
    if (previous == _BYE).any():
        raise RuntimeError(f"team {teams[previous == _BYE][0]} has no match history to update from")
    rng, n = league.rng, league.best.shape[1]
    p, swap_draws = params.swap_probability, 2 if n >= 2 else 0
    mask_draws = [1] * teams.size  # k for each row: 1 + the empty masks redrawn so far
    start = rng.state
    while True:
        cursor, swap_rows, swap_at, step_rows, step_at = 0, [], [], [], []
        for row, k in enumerate(mask_draws):
            if p > 0.0 and rng.peek(cursor + 1) <= p:
                if swap_draws:
                    swap_rows.append(row)
                    swap_at.append(cursor + 1)
                cursor += 1 + swap_draws
            else:
                step_rows.append(row)
                step_at.append(cursor + 1 + (k - 1) * n)  # the last mask, then r1 and r2
                cursor += 1 + (k + 2) * n
        span = rng.uniforms(cursor)
        window = np.array([span[at : at + 3 * n] for at in step_at]).reshape(-1, 3 * n)
        mask = window[:, :n] <= params.change_probability
        empty = np.flatnonzero(~mask.any(axis=1))
        if not empty.size:
            break
        mask_draws[step_rows[empty[0]]] += 1
        rng.state = start
    proposed = league.best[teams]
    best, prev, ahead = proposed[step_rows], previous[step_rows], nxt[step_rows]
    step = np.where(league.won[teams[step_rows]], params.w1, -params.w1)[:, None] * window[:, n : 2 * n]
    step *= best - league.current[prev]
    toward_next = np.where(league.won[ahead], params.w2, -params.w2)[:, None] * window[:, 2 * n :]
    toward_next *= best - league.current[ahead]
    second = (ahead != _BYE) & (league.last_opponent[ahead] != _BYE)
    np.add(step, toward_next, out=step, where=second[:, None])
    step *= mask
    step += best
    proposed[step_rows] = np.clip(step, 0.0, n_vms - _CLAMP_EPS)
    at = np.array(swap_at, dtype=np.int64)
    i = np.minimum((span[at] * n).astype(np.int64), n - 1)
    j = np.minimum((span[at + 1] * (n - 1)).astype(np.int64), n - 2)
    j += j >= i
    proposed[swap_rows, i], proposed[swap_rows, j] = proposed[swap_rows, j], proposed[swap_rows, i]
    return proposed


class _FitnessEvaluator:
    """Makespan of each formation: the instance's loads kernel on its decoded VM indices.

    Takes one (n,) formation or an (rows, n) block, one makespan per row, each
    bit-identical to model.makespan for the decoded assignment.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self._loads = instance.loads
        self._m = len(instance.vms)

    def __call__(self, formations: np.ndarray) -> np.ndarray:
        return self._loads(_vm_index(formations, self._m)).max(axis=-1)


def init_league(params: LcaParams, instance: ProblemInstance) -> League:
    """Build the starting league: seeded and/or random formations, all evaluated.

    With seed_with_baselines, teams 0-2 start from the FCFS, LJF and BEF
    schedules, so the league never regresses below the strongest baseline.
    """
    rng = SplitMix64(params.seed)
    evaluate = _FitnessEvaluator(instance)
    size, n, m = params.league_size, len(instance.tasks), len(instance.vms)
    seeds = [fcfs(instance), ljf(instance), bef(instance)] if params.seed_with_baselines else []
    current = np.vstack([*map(encode, seeds), rng.uniforms((size - len(seeds)) * n).reshape(-1, n) * m])
    fitness = evaluate(current)
    return League(
        current=current,
        current_fitness=fitness,
        best=current.copy(),
        best_fitness=fitness.copy(),
        last_opponent=np.full(size, _BYE),
        won=np.zeros(size, dtype=bool),
        champion=int(np.argmin(fitness)),
        rng=rng,
        evaluate=evaluate,
        evaluations=size,
    )


def run(params: LcaParams, instance: ProblemInstance) -> RunResult:
    """Full championship: seasons of weekly update-then-play rounds.

    Week 1 is played with the initial formations; from week 2 on, every team
    with match history proposes a new formation from last week's league
    (two-phase commit), and the week's proposals are scored in one block
    before the week's fixtures are resolved together. A team's best and the champion move
    only on a strictly lower fitness, the first team in index order winning
    ties, so the history of f̂ is nonincreasing.
    """
    league = init_league(params, instance)
    m = len(instance.vms)
    history: list[float] = []
    for season in range(1, params.seasons + 1):
        for home, away in np.array(season_fixtures(params.league_size, season)).transpose(0, 2, 1):
            if history:  # from week 2 on; week 1 is played with the initial formations
                upcoming = np.full(params.league_size, _BYE)
                upcoming[home], upcoming[away] = away, home
                teams = np.flatnonzero(league.last_opponent != _BYE)  # byes may leave some unplayed
                proposed = update_formation(league, teams, upcoming, params, m)
                fitness = league.evaluate(proposed)
                league.evaluations += teams.size
                first = int(np.argmin(fitness))  # the first minimum: the lowest team index wins ties
                if fitness[first] < league.f_hat:
                    league.champion = int(teams[first])
                better = fitness < league.best_fitness[teams]
                league.current[teams], league.current_fitness[teams] = proposed, fitness
                league.best[teams[better]] = proposed[better]
                league.best_fitness[teams[better]] = fitness[better]
            play_match(league, home, away)
            history.append(league.f_hat)
    best_assignment = decode(league.best[league.champion], m)
    return RunResult(
        best_assignment=best_assignment,
        best_makespan_s=makespan(instance, best_assignment).makespan_s,
        history=history,
        evaluations=league.evaluations,
    )
