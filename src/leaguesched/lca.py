"""League-championship search engine for VM assignment.

A league of teams holds candidate schedules as continuous "formations", one
coordinate per task in [0, m) where m is the VM count (truncation decodes a
coordinate to a VM index). Every artificial week each team reshapes its
formation around the best schedule it has found so far, pushed by the outcome
of its previous match and by the current form of its upcoming opponent; the
week's fixtures are then resolved stochastically, with win probability driven
by the two sides' fitness relative to the best value found anywhere in the
league. Fitness is makespan, so lower means stronger, and a season is one
full round robin. The league is held as arrays, one row per team, so a
week's proposals are scored together by one call of the loads kernel.

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

# Formations are clamped to [0, m - _CLAMP_EPS] so floor() never reaches m.
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
    """Truncate each coordinate to a VM index, clamping strays into [0, n_vms)."""
    return np.clip(np.floor(formation).astype(np.int64), 0, n_vms - 1)


def decode(formation: np.ndarray, n_vms: int) -> Assignment:
    """The schedule a formation stands for: each coordinate truncated to a VM index."""
    if n_vms < 1:
        raise ValueError(f"n_vms must be >= 1, got {n_vms}")
    return Assignment(tuple(_vm_index(np.asarray(formation, dtype=np.float64), n_vms).tolist()))


def round_robin(league_size: int) -> list[list[tuple[int, int]]]:
    """Single round robin by the circle method.

    Week w pairs slot i with slot L-1-i; all slots but the first rotate one
    step between weeks. L-1 weeks of L/2 matches; every unordered pair of
    teams meets exactly once.
    """
    if league_size < 2 or league_size % 2:
        raise ValueError(f"round robin needs an even league of >= 2 teams, got {league_size}")
    arr = list(range(league_size))
    weeks = []
    for _ in range(league_size - 1):
        weeks.append([(arr[i], arr[league_size - 1 - i]) for i in range(league_size // 2)])
        arr[1:] = [arr[-1]] + arr[1:-1]
    return weeks


def season_fixtures(n_teams: int, season: int) -> list[list[tuple[int, int]]]:
    """Fixtures for one season, with team order rotated per season.

    Odd leagues are padded with an internal bye slot; a team drawn against the
    bye simply plays no match that week.
    """
    rotation = (season - 1) % n_teams
    order = [(i + rotation) % n_teams for i in range(n_teams)]
    if n_teams % 2:
        order.append(_BYE)
    weeks = []
    for pairs in round_robin(len(order)):
        weeks.append(
            [(order[i], order[j]) for i, j in pairs if _BYE not in (order[i], order[j])]
        )
    return weeks


def win_probability(f_i: float, f_j: float, f_hat: float) -> float:
    """Probability that the side with fitness f_i beats the side with f_j.

    Minimization orientation: fitness is makespan, so the SMALLER fitness gets
    the larger probability. f_hat must be a lower bound on both fitnesses; a
    zero denominator (both sides at the ideal value) is an even match.
    """
    if f_i < f_hat or f_j < f_hat:
        raise ValueError(
            f"stale ideal value: f_hat={f_hat} exceeds a fitness ({f_i}, {f_j})"
        )
    denom = (f_i - f_hat) + (f_j - f_hat)
    if denom == 0.0:
        return 0.5
    return (f_j - f_hat) / denom


def play_match(league: League, i: int, j: int) -> tuple[int, int]:
    """Resolve fixture (i, j) with a single uniform draw; returns (winner, loser).

    Records last_opponent and won for both teams. There are no ties: team i
    wins iff the draw u satisfies u <= p_i (and p_i > 0, so a hopeless side
    cannot win on the measure-zero draw u = 0).
    """
    p_i = win_probability(league.current_fitness[i], league.current_fitness[j], league.f_hat)
    u = league.rng.uniform()
    winner, loser = (i, j) if p_i > 0.0 and u <= p_i else (j, i)
    league.last_opponent[i], league.last_opponent[j] = j, i
    league.won[winner], league.won[loser] = True, False
    return winner, loser


def update_formation(
    league: League, team: int, upcoming: int, params: LcaParams, n_vms: int
) -> np.ndarray:
    """Propose next week's formation for `team`, whose upcoming opponent is `upcoming`.

    Both move classes anchor at the team's best formation B. With probability
    swap_probability the proposal is a fine rearrangement: two uniformly
    chosen coordinates of B exchange values (two players trade positions),
    which rebalances a schedule without disturbing anything else. Otherwise a
    Bernoulli(change_probability) mask picks which coordinates move (redrawn
    until at least one is set) and the masked coordinates take two random
    steps: away from the previous opponent's formation after a win, toward it
    after a loss (a win confirms B's strengths; a loss exposes weaknesses),
    and likewise relative to the upcoming opponent's current formation
    depending on that opponent's last result. The caller evaluates the
    returned formation and commits it.

    A team with a bye this week (upcoming == _BYE), or whose upcoming opponent
    has not played yet, drops the second step; the draw pattern stays
    identical so streams remain aligned.
    """
    previous = league.last_opponent[team]
    if previous == _BYE:
        raise RuntimeError(f"team {team} has no match history to update from")
    rng = league.rng
    best = league.best[team]
    n = best.shape[0]
    if rng.uniform() < params.swap_probability:
        new_x = best.copy()
        if n >= 2:
            i = min(int(rng.uniform() * n), n - 1)
            j = min(int(rng.uniform() * (n - 1)), n - 2)
            j += j >= i
            new_x[i], new_x[j] = new_x[j], new_x[i]
        return new_x
    while True:
        mask = rng.uniforms(n) < params.change_probability
        if mask.any():
            break
    r = rng.uniforms(2 * n)
    s_own = 1.0 if league.won[team] else -1.0
    step = params.w1 * s_own * r[:n] * (best - league.current[previous])
    if upcoming != _BYE and league.last_opponent[upcoming] != _BYE:
        s_next = 1.0 if league.won[upcoming] else -1.0
        step = step + params.w2 * s_next * r[n:] * (best - league.current[upcoming])
    return np.clip(best + mask * step, 0.0, n_vms - _CLAMP_EPS)


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
    current = np.empty((size, n))
    for i in range(size):
        current[i] = encode(seeds[i]) if i < len(seeds) else rng.uniforms(n) * m
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
    before the fixtures are resolved. A team's best and the champion move
    only on a strictly lower fitness, the first team in index order winning
    ties, so the history of f̂ is nonincreasing.
    """
    league = init_league(params, instance)
    n, m = len(instance.tasks), len(instance.vms)
    history: list[float] = []
    for season in range(1, params.seasons + 1):
        for week, pairs in enumerate(season_fixtures(params.league_size, season)):
            if season > 1 or week > 0:
                upcoming = np.full(params.league_size, _BYE)
                home, away = np.array(pairs).T
                upcoming[home], upcoming[away] = away, home
                teams = np.flatnonzero(league.last_opponent != _BYE)  # byes may leave some unplayed
                proposed = np.empty((teams.size, n))
                for row, team in enumerate(teams):
                    proposed[row] = update_formation(league, team, upcoming[team], params, m)
                fitness = league.evaluate(proposed)
                league.evaluations += teams.size
                first = int(np.argmin(fitness))  # the first minimum: the lowest team index wins ties
                if fitness[first] < league.f_hat:
                    league.champion = int(teams[first])
                better = fitness < league.best_fitness[teams]
                league.current[teams], league.current_fitness[teams] = proposed, fitness
                league.best[teams[better]] = proposed[better]
                league.best_fitness[teams[better]] = fitness[better]
            for i, j in pairs:
                play_match(league, i, j)
            history.append(league.f_hat)
    best_assignment = decode(league.best[league.champion], m)
    return RunResult(
        best_assignment=best_assignment,
        best_makespan_s=makespan(instance, best_assignment).makespan_s,
        history=history,
        evaluations=league.evaluations,
    )
