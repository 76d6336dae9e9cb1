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
        "eefc5177d2119ed2381656aee9db60825c2caa5e3792417842d17687c2c2eb7f",
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
        "d01001ad9b21db96a2f610c49171cebfb532527906b34d8bff4f341c3f82e490",
    ),
]


@pytest.mark.parametrize("config, sha256", PINS, ids=["equal_speeds", "unequal_speeds"])
def test_small_grid_csv_is_pinned(config, sha256):
    sink = io.StringIO()
    emit_csv(run_experiment(config_from_dict(config)), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256


SVG_PINS = [
    "3c80214bf3a2998c6bf463431d834cffd0ad9c7dfdd79e6146364d7c476efc28",
    "283ee70990391117956ac2f769016b09cf87f5e71cd9fbdd233bf8e1553923b4",
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
        "b3bd65ab91fb76c93dff9a3df985cc680ffea6249ef3ba3d5c1233804ece0e86",
        "2391d7af48259056f80498e72af421f41341be2ed7380c632acaaa5a28b3da0b",
        149,
    ),
    "random_start": (
        dict(league_size=6, seasons=6, seed=4, seed_with_baselines=False),
        (24, EQUAL, 8, False),
        "9f9eae61ba05f2a9d4b3e29e49324d8674f72434329b15ec6b999f08eea31640",
        "57d62e2f8664a02872cd883f3410882802535881697d14330da86a28bb76b92d",
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
        "259aa803ce3c583a4a0c5dc21316efbeec5db7e17c5e1a4c090676cc0c88dc23",
        "c0ced2e01dee37a5d9e47c7c3fe16d4d328c29a7402f38748e20f04b3c46ac03",
        180,
    ),
    "swaps_only": (
        dict(league_size=7, seasons=6, seed=7, swap_probability=1.0),
        (30, UNEQUAL, 11, True),
        "ab5fca3c46f2a03c80cf214f9a5757d0fed11e961e58fc0cdfe09ff9e90604b1",
        "ddeedeb05903021fcf6c85d9f974009b08838e925735967b62cca2870f92dd17",
        293,
    ),
    # Every task 300 MI on equal VMs: fitness ties are everywhere, so these two
    # cases pin the strict-improvement and first-team-wins tie-breaks (the
    # seeded one ties FCFS, LJF and BEF at the start).
    "equal_lengths_ties": (
        dict(league_size=5, seasons=3, seed=3, swap_probability=0.0, seed_with_baselines=False),
        (8, THREE_EQUAL, 3, False, (300.0, 300.0)),
        "4e87bdcc4b3f354f4da6005bf6eaaa94ac1f3904420c7d64f955d2e17febad77",
        "7d305ca4e4f9c03dc4bb4926a1cbd917c17feba7b2939274387a1ff2e0410d9e",
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
