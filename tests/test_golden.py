"""Fast byte pins on the canonical CSV and on what run() returns beyond it.

The unequal-speed grid matters as much as the equal one: there the league
search improves on its LJF seed in every cell, so a fitness bug shows in the
bytes, while on equal speeds the search never leaves that seed.

The CSV prints a makespan to six decimals only, so the run() pins hash the
full history (repr of each float) and the best schedule and count the
evaluations: a changed tie-break or bookkeeping step shows there first.

The package's public surface is pinned the same way: a change to it must be
deliberate, like a CSV re-pin.
"""

import hashlib
import io

import pytest

import leaguesched
from leaguesched import (
    LcaParams,
    ProblemInstance,
    SplitMix64,
    Task,
    VirtualMachine,
    WorkloadSpec,
    aggregate,
    config_from_dict,
    emit_csv,
    emit_svg_chart,
    generate_synthetic,
    run,
    run_experiment,
)

PINS = [
    (
        {"task_counts": [20, 100, 180], "repetitions": 2, "lca_params": {"seasons": 10}},
        "53d39f134af1f24558687cc351470171b38c541be15ce0ef1a7284cd33ebcaed",
    ),
    (
        {
            "task_counts": [30, 90],
            "n_vms": 5,
            "vm_speed_mips": [500.0, 750.0, 1000.0, 1500.0, 2000.0],
            "length_range_mi": [100.0, 1000.0],
            "repetitions": 2,
            "lca_params": {"seasons": 10},
        },
        "e68c464911f56d83972d16eb045295bd01a29b23fca3f425de39413ff68d13be",
    ),
]


@pytest.mark.parametrize("config, sha256", PINS, ids=["equal_speeds", "unequal_speeds"])
def test_small_grid_csv_is_pinned(config, sha256):
    sink = io.StringIO()
    emit_csv(run_experiment(config_from_dict(config)), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256


SVG_PINS = [
    "3c80214bf3a2998c6bf463431d834cffd0ad9c7dfdd79e6146364d7c476efc28",
    "11db222cca3cc690d2252c167682d7181a63e777a4e8f6455a16f9638bb5bdac",
]


@pytest.mark.parametrize(
    "config, sha256",
    [(config, svg) for (config, _), svg in zip(PINS, SVG_PINS)],
    ids=["equal_speeds", "unequal_speeds"],
)
def test_small_grid_svg_is_pinned(config, sha256):
    sink = io.StringIO()
    emit_svg_chart(aggregate(run_experiment(config_from_dict(config))), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256


def _instance(n, speeds, seed, permute, length_range=(100.0, 1000.0)):
    tasks = generate_synthetic(WorkloadSpec(n, *length_range, seed=seed))
    if permute:
        rng = SplitMix64(seed ^ 0xA11)
        order = sorted(range(n), key=lambda k: rng.uniform())
        tasks = [Task(t.id, t.length_mi, order[k]) for k, t in enumerate(tasks)]
    return ProblemInstance(tuple(tasks), tuple(VirtualMachine(v, s) for v, s in enumerate(speeds)))


def _digest(items):
    return hashlib.sha256("\n".join(map(repr, items)).encode("utf-8")).hexdigest()


EQUAL = (1000.0,) * 4
THREE_EQUAL = (1000.0,) * 3
UNEQUAL = (500.0, 750.0, 1000.0, 1500.0, 2000.0)

# (params, instance) -> (history sha256, best vm_of sha256, evaluations)
RUN_PINS = {
    "odd_league_with_byes": (
        dict(league_size=5, seasons=6, seed=4),
        (24, UNEQUAL, 8, False),
        "d85caa0de000601e08a6e70c878e739f7bbd32810e65248a026e8ca14a1bb6dd",
        "3eef12909f92903a3a231c1a9eee791fc809f614f624e49fbce02d67866dfb4a",
        149,
    ),
    "random_start": (
        dict(league_size=6, seasons=6, seed=4, seed_with_baselines=False),
        (24, EQUAL, 8, False),
        "0449be81a4f4f111e5b1afb3dd71aa4bd4a2eda093450d0ca941ee593601287f",
        "acf6ac27302e284ff480d4810f5bd56c99e676dcd232222dc6fb7bbd1731392d",
        180,
    ),
    "unequal_speeds_permuted_arrival": (
        dict(league_size=8, seasons=5, seed=5),
        (40, UNEQUAL, 9, True),
        "977f5fcec872b68310cbca2bc5e23658a4c2d1761b921efdfdb119255b525969",
        "175f1550853f83d6dba7bb56cbcae23fe6a7f4b10dc975e4ac882d668e123835",
        280,
    ),
    "steps_only": (
        dict(league_size=6, seasons=6, seed=6, swap_probability=0.0, seed_with_baselines=False),
        (30, UNEQUAL, 10, True),
        "d161fdcaf3a797544e1aaf8afa6e5ebca506dc18665487f05a3d3414f1b683eb",
        "f9104ac58353cd884d5f2a1044cfe6981c08a062b74f6fc6126193a9209d82f7",
        180,
    ),
    "swaps_only": (
        dict(league_size=7, seasons=6, seed=7, swap_probability=1.0),
        (30, UNEQUAL, 11, True),
        "83f50bda82fc5c1075d26bd855fbdebb9bf51d7a8d16008e6e9d151f922f1001",
        "58156e46f9fbff24e25f00385f830717ed544b92540fac8ca619ca3d8691a855",
        293,
    ),
    # Every task 300 MI on equal VMs: fitness ties are everywhere, so these two
    # cases pin the strict-improvement and first-team-wins tie-breaks (the
    # seeded one ties FCFS, LJF and BEF at the start).
    "equal_lengths_ties": (
        dict(league_size=5, seasons=3, seed=3, swap_probability=0.0, seed_with_baselines=False),
        (8, THREE_EQUAL, 3, False, (300.0, 300.0)),
        "530ccc98a1eaed0b926186c61eb8bfc2525f5eb58547a712035101bde14096be",
        "8f1ec7ac1043bb7794ca81eee6dcdaca20df7fa994f1146c6364ec3a5b10ffc8",
        74,
    ),
    "seeded_ties": (
        dict(league_size=6, seasons=3, seed=0, swap_probability=0.0),
        (12, THREE_EQUAL, 0, False, (300.0, 300.0)),
        "293d34aad6ef2f2e6aad49709e327c1f4a4e9a2a6e85e472575c99bca4438173",
        "93dfeb63e1b1e9887feba4794c9852448ba0bafa26aaf48dd7c53c81f49c6a47",
        90,
    ),
}


@pytest.mark.parametrize("name", RUN_PINS)
def test_run_outputs_are_pinned(name):
    params, instance, history_sha, vm_of_sha, evaluations = RUN_PINS[name]
    result = run(LcaParams(**params), _instance(*instance))
    assert all(type(h) is float for h in result.history)
    assert _digest(result.history) == history_sha
    assert _digest(result.best_assignment.vm_of) == vm_of_sha
    assert result.evaluations == evaluations


PUBLIC_SURFACE = [
    "Aggregate", "Assignment", "DuplicateTaskIdError", "ExperimentConfig", "ExperimentRecord",
    "InvalidAssignmentError", "InvalidInstanceError", "LcaParams", "ProblemInstance", "RunResult",
    "ScheduleResult", "SchedulerKind", "SplitMix64", "Task", "TraceParseError", "VirtualMachine",
    "WorkloadSpec", "aggregate", "bef", "brute_force_optimum", "config_from_dict", "decode",
    "derive_cell_seed", "derive_search_seed", "dump_trace", "emit_csv", "emit_svg_chart", "encode",
    "fcfs", "generate_synthetic", "ljf", "load_trace", "lower_bound", "makespan", "mix64",
    "parse_csv", "run", "run_experiment",
]


def test_public_surface_is_pinned():
    assert sorted(leaguesched.__all__) == PUBLIC_SURFACE
    assert all(hasattr(leaguesched, name) for name in PUBLIC_SURFACE)
