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
        "403268a65cf2b276a5a2bf5fc2194ba918a162fbb878f670552f6a82fd47437a",
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
        "bdd5fa546e3cc83c0dd4802601d9a81b91cf0e9c217a8872434838eef1bd09f8",
    ),
]


@pytest.mark.parametrize("config, sha256", PINS, ids=["equal_speeds", "unequal_speeds"])
def test_small_grid_csv_is_pinned(config, sha256):
    sink = io.StringIO()
    emit_csv(run_experiment(config_from_dict(config)), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256


SVG_PINS = [
    "3c80214bf3a2998c6bf463431d834cffd0ad9c7dfdd79e6146364d7c476efc28",
    "be60149473b9f66398a75076c85d4664dbeb4cb301e74da9d4cbdb81e1996842",
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
        "09563618c38c4c5ac8ec1f73d8c4bf4210475eb7896c10b68b413e2179f4182e",
        "fa160a552fd124057b4aac8799f242e66f5bc40ce259a23d58fc35f437ea332d",
        149,
    ),
    "random_start": (
        dict(league_size=6, seasons=6, seed=4, seed_with_baselines=False),
        (24, EQUAL, 8, False),
        "3657d5c0b8526f4c38b3012756bf3336fb81a1764b76ac749b84c8863c12e858",
        "87df5ed7151d24552493184d0935133088697f4fcc30fa490cc9f94d48f99ff4",
        180,
    ),
    "unequal_speeds_permuted_arrival": (
        dict(league_size=8, seasons=5, seed=5),
        (40, UNEQUAL, 9, True),
        "ff0038a6d06ee2222903119245e6acc01cf97f47aacbd5b12803a3c18e342644",
        "a63fb3df911a47916020ac8fc8b66d64f123a366b704d81b993ceb8abd7aef1f",
        280,
    ),
    "steps_only": (
        dict(league_size=6, seasons=6, seed=6, swap_probability=0.0, seed_with_baselines=False),
        (30, UNEQUAL, 10, True),
        "6f1b8afd75367bb3dc29bc1b62a16a09fe1beb881397f6eb04e502ec965252de",
        "107b6074a6426aeea200a0e191f916e62513f50394461095284f8c968b642bf1",
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
        "86f0cfe89d436cfa41689fcadd8755bfd715fd4b7634136839ca26f366816e94",
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
