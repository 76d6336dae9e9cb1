"""League-championship search engine for VM assignment.

A league of teams holds candidate schedules as continuous "formations", one
coordinate per task in [0, m) where m is the VM count (truncation decodes a
coordinate to a VM index). Every artificial week each team reshapes its
formation around the best schedule it has found so far, pushed by the outcome
of its previous match and by the current form of its upcoming opponent; the
week's fixtures are then resolved stochastically, with win probability driven
by the two sides' fitness relative to the best value found anywhere in the
league. Fitness is makespan, so lower means stronger, and a season is one
full round robin.

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
from .model import Assignment, ProblemInstance, is_finite, is_integer, makespan
from .rng import SplitMix64

OUTCOME_WIN = "win"
OUTCOME_LOSS = "loss"

# Formations are clamped to [0, m - _CLAMP_EPS] so floor() never reaches m.
_CLAMP_EPS = 1e-9

_BYE = -1


@dataclass
class LcaParams:
    league_size: int = 20  # L: number of teams
    seasons: int = 50  # S: each season is one full round robin
    change_probability: float = 0.3  # per-coordinate Bernoulli mask rate
    w1: float = 1.0  # step weight for the previous-opponent term
    w2: float = 1.0  # step weight for the upcoming-opponent term
    swap_probability: float = 0.5  # chance a week's proposal swaps two positions instead
    seed: int = 0
    seed_with_baselines: bool = True  # start teams 0-2 from FCFS/LJF/BEF


@dataclass
class Team:
    index: int
    current: np.ndarray  # formation fielded this week
    current_fitness: float
    best: np.ndarray  # best formation this team has ever held
    best_fitness: float
    last_opponent: int | None = None
    last_outcome: str | None = None  # OUTCOME_WIN / OUTCOME_LOSS, None before first match


@dataclass
class League:
    teams: list[Team]
    fixtures: list[list[tuple[int, int]]]  # current season: one pair list per week
    week: int
    season: int
    f_hat: float  # best fitness found so far (ideal value)
    global_best: np.ndarray
    global_best_fitness: float
    rng: SplitMix64
    evaluate: _FitnessEvaluator  # fitness of a formation
    evaluations: int = 0


@dataclass
class RunResult:
    best_assignment: Assignment
    best_makespan_s: float
    history: list[float]  # global best fitness after each week, nonincreasing
    evaluations: int


def validate_params(params: LcaParams) -> None:
    """Raise ValueError naming every mistyped, non-finite or out-of-range field."""
    p = params
    checks = [
        ("league_size", is_integer(p.league_size) and p.league_size >= 4, "an integer >= 4"),
        ("seasons", is_integer(p.seasons) and p.seasons >= 1, "an integer >= 1"),
        ("change_probability", is_finite(p.change_probability)
         and 0.0 < p.change_probability <= 1.0, "a number in (0, 1]"),
        ("swap_probability", is_finite(p.swap_probability)
         and 0.0 <= p.swap_probability <= 1.0, "a number in [0, 1]"),
        ("w1", is_finite(p.w1) and p.w1 > 0, "a finite positive number"),
        ("w2", is_finite(p.w2) and p.w2 > 0, "a finite positive number"),
        ("seed", is_integer(p.seed) and 0 <= p.seed < 2**64, "a 64-bit unsigned integer"),
        ("seed_with_baselines", isinstance(p.seed_with_baselines, bool), "true or false"),
    ]
    problems = [f"{name} must be {want}, got {getattr(p, name)!r}" for name, ok, want in checks if not ok]
    if problems:
        raise ValueError("; ".join(problems))


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


def play_match(team_i: Team, team_j: Team, f_hat: float, rng: SplitMix64) -> tuple[int, int]:
    """Resolve one fixture with a single uniform draw; returns (winner, loser) indices.

    Records last_opponent and last_outcome on both teams. There are no ties:
    team_i wins iff the draw u satisfies u <= p_i (and p_i > 0, so a hopeless
    side cannot win on the measure-zero draw u = 0).
    """
    p_i = win_probability(team_i.current_fitness, team_j.current_fitness, f_hat)
    u = rng.uniform()
    i_wins = p_i > 0.0 and u <= p_i
    winner, loser = (team_i, team_j) if i_wins else (team_j, team_i)
    team_i.last_opponent = team_j.index
    team_j.last_opponent = team_i.index
    winner.last_outcome = OUTCOME_WIN
    loser.last_outcome = OUTCOME_LOSS
    return winner.index, loser.index


def update_formation(
    team: Team,
    prev_opp_formation: np.ndarray,
    upcoming_opp: Team | None,
    params: LcaParams,
    rng: SplitMix64,
    n_vms: int,
) -> np.ndarray:
    """Propose next week's formation for `team`.

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

    A team with a bye this week has no upcoming opponent; the second step is
    dropped (the draw pattern stays identical so streams remain aligned).
    """
    if team.last_outcome is None:
        raise RuntimeError(f"team {team.index} has no match history to update from")
    best = team.best
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
    s_own = 1.0 if team.last_outcome == OUTCOME_WIN else -1.0
    step = params.w1 * s_own * r[:n] * (best - prev_opp_formation)
    if upcoming_opp is not None and upcoming_opp.last_outcome is not None:
        s_next = 1.0 if upcoming_opp.last_outcome == OUTCOME_WIN else -1.0
        step = step + params.w2 * s_next * r[n:] * (best - upcoming_opp.current)
    return np.clip(best + mask * step, 0.0, n_vms - _CLAMP_EPS)


class _FitnessEvaluator:
    """Makespan of a formation: the instance's loads kernel on its decoded VM indices.

    Bit-identical to model.makespan for the decoded assignment.
    """

    def __init__(self, instance: ProblemInstance) -> None:
        self._loads = instance.loads
        self._m = len(instance.vms)

    def __call__(self, formation: np.ndarray) -> float:
        return float(self._loads(_vm_index(formation, self._m)).max())


def init_league(params: LcaParams, instance: ProblemInstance) -> League:
    """Build the starting league: seeded and/or random formations, all evaluated.

    With seed_with_baselines, teams 0-2 start from the FCFS, LJF and BEF
    schedules, so the league never regresses below the strongest baseline.
    """
    validate_params(params)
    rng = SplitMix64(params.seed)
    evaluator = _FitnessEvaluator(instance)
    n, m = len(instance.tasks), len(instance.vms)

    formations: list[np.ndarray] = []
    if params.seed_with_baselines:
        formations += [encode(fcfs(instance)), encode(ljf(instance)), encode(bef(instance))]
    while len(formations) < params.league_size:
        formations.append(rng.uniforms(n) * m)

    teams = []
    for i, x in enumerate(formations):
        fit = evaluator(x)
        teams.append(Team(index=i, current=x, current_fitness=fit, best=x, best_fitness=fit))
    champion = min(teams, key=lambda t: t.best_fitness)
    return League(
        teams=teams,
        fixtures=season_fixtures(params.league_size, season=1),
        week=1,
        season=1,
        f_hat=champion.best_fitness,
        global_best=champion.best.copy(),
        global_best_fitness=champion.best_fitness,
        rng=rng,
        evaluate=evaluator,
        evaluations=len(teams),
    )


def run(params: LcaParams, instance: ProblemInstance) -> RunResult:
    """Full championship: seasons of weekly update-then-play rounds.

    Week 1 is played with the initial formations; from week 2 on, every team
    with match history proposes a new formation before the fixtures are
    resolved. All proposals in a week are generated from the previous week's
    formations (two-phase commit), the ideal value f̂ is refreshed from team
    bests right before each week's matches, and the global best only ever
    improves, so the history is nonincreasing.
    """
    league = init_league(params, instance)
    teams = league.teams
    m = len(instance.vms)
    history: list[float] = []
    overall_week = 0
    for season in range(1, params.seasons + 1):
        league.season = season
        if season > 1:
            league.fixtures = season_fixtures(params.league_size, season)
        for week_no, pairs in enumerate(league.fixtures, start=1):
            league.week = week_no
            overall_week += 1
            if overall_week > 1:
                upcoming: dict[int, int] = {}
                for i, j in pairs:
                    upcoming[i] = j
                    upcoming[j] = i
                proposals = []
                for team in teams:
                    if team.last_outcome is None:
                        continue  # has not played yet (possible with byes)
                    prev_x = teams[team.last_opponent].current
                    opp_idx = upcoming.get(team.index)
                    opp = teams[opp_idx] if opp_idx is not None else None
                    proposals.append(
                        (team, update_formation(team, prev_x, opp, params, league.rng, m))
                    )
                for team, new_x in proposals:
                    fit = league.evaluate(new_x)
                    league.evaluations += 1
                    team.current = new_x
                    team.current_fitness = fit
                    if fit < team.best_fitness:
                        team.best = new_x
                        team.best_fitness = fit
                        if fit < league.global_best_fitness:
                            league.global_best = new_x.copy()
                            league.global_best_fitness = fit
            league.f_hat = min(t.best_fitness for t in teams)
            for i, j in pairs:
                play_match(teams[i], teams[j], league.f_hat, league.rng)
            history.append(league.global_best_fitness)
    best_assignment = decode(league.global_best, m)
    return RunResult(
        best_assignment=best_assignment,
        best_makespan_s=makespan(instance, best_assignment).makespan_s,
        history=history,
        evaluations=league.evaluations,
    )
