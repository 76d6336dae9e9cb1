"""Every field kind at its edges, through every entry point that names it.

A kind (model.Kind) is a rule written once: what a valid value is (want) and the test of one (ok). Each entry
point below names a kind for one field: a library constructor, a trace or CSV column, or a CLI flag. At each edge
of the kind the value on the edge is accepted, and the value one past it is refused with exactly
"<name> must be <want>, got <value>"; on the CLI with exit 2, before any task or VM is built.
"""

import math
import sys

import pytest

from leaguesched import (ExperimentConfig, LcaParams, ProblemInstance, Task, VirtualMachine, WorkloadSpec, load_trace,
                         parse_csv)
from leaguesched.cli import dispatch
from leaguesched.lca import _PLAN_ROWS
from leaguesched.model import INDEX, POSITIVE, SEED, TASK_LIMIT, TASKS, VM_LIMIT, VMS, count

LEAGUE_SIZE, AT_LEAST_ONE = count(4, _PLAN_ROWS), count(1)

# Each kind's edges, by its wording: (the value on the edge, the value one past it). TASKS and VMS share one
# wording while both limits are 10**6.
EDGES = {
    SEED.want: [(0, -1), (2**64 - 1, 2**64)],
    POSITIVE.want: [(5e-324, 0.0), (sys.float_info.max, math.inf)],
    INDEX.want: [(0, -1)],
    TASKS.want: [(1, 0), (TASK_LIMIT, TASK_LIMIT + 1)],
    VMS.want: [(1, 0), (VM_LIMIT, VM_LIMIT + 1)],
    AT_LEAST_ONE.want: [(1, 0)],
    LEAGUE_SIZE.want: [(4, 3), (_PLAN_ROWS, _PLAN_ROWS + 1)],
}


def _one_vm(speed):
    # A task the VM runs in a finite, nonzero time at either edge of a speed.
    return ProblemInstance((Task(0, 5e-324 if speed < 1 else 1.0, 0),), (VirtualMachine(0, speed),))


def _csv_row(**fields):
    row = {"n_tasks": "20", "rep": "0", "seed": "1", "makespan_s": "1.5", "evals": "0", "wall_ms": "0", **fields}
    return parse_csv("FCFS,{n_tasks},{rep},{seed},{makespan_s},{evals},{wall_ms}\n".format(**row))


# A constructor's field: (name, kind, build from the value). The refusal shows the value.
CONSTRUCTORS = [
    ("league_size", LEAGUE_SIZE, lambda v: LcaParams(league_size=v)),
    ("seasons", AT_LEAST_ONE, lambda v: LcaParams(seasons=v)),
    ("seed", SEED, lambda v: LcaParams(seed=v)),
    ("n_tasks", TASKS, lambda v: WorkloadSpec(v)),
    ("length_min_mi", POSITIVE, lambda v: WorkloadSpec(1, v, sys.float_info.max)),
    ("seed", SEED, lambda v: WorkloadSpec(1, seed=v)),
    ("n_vms", VMS, lambda v: ExperimentConfig(n_vms=v)),  # the config only: no VM is built
    ("repetitions", AT_LEAST_ONE, lambda v: ExperimentConfig(repetitions=v)),
    ("master_seed", SEED, lambda v: ExperimentConfig(master_seed=v)),
    ("task {!r}: id", INDEX, lambda v: ProblemInstance((Task(v, 1.0, 0),), (VirtualMachine(0, 1.0),))),
    ("task 0: length", POSITIVE, lambda v: ProblemInstance((Task(0, v, 0),), (VirtualMachine(0, 1.0),))),
    ("VM 0: speed", POSITIVE, _one_vm),
]

# A column of a text table: (name, kind, parse a table whose one row holds the text). The refusal shows the text.
COLUMNS = [
    ("task_id", INDEX, lambda text: load_trace(f"{text},1.0\n")),
    ("length_mi", POSITIVE, lambda text: load_trace(f"0,{text}\n")),
    ("n_tasks", TASKS, lambda text: _csv_row(n_tasks=text)),
    ("rep", INDEX, lambda text: _csv_row(rep=text)),
    ("seed", SEED, lambda text: _csv_row(seed=text)),
    ("makespan_s", POSITIVE, lambda text: _csv_row(makespan_s=text)),
    ("evals", INDEX, lambda text: _csv_row(evals=text)),
    ("wall_ms", INDEX, lambda text: _csv_row(wall_ms=text)),
]

# A CLI flag: (name, kind, argv with the flag's text, what else to add so the command fails after the flag is
# read and before it builds anything). The refusal shows the value the flag parsed to.
MISSING = "no-such-trace.csv"
SCHEDULE = ["schedule", "--trace", MISSING, "--vms", "1", "--algo", "ljf"]
FLAGS = [
    ("seed", SEED, lambda text: [*SCHEDULE, "--seed", text], []),
    ("vms", VMS, lambda text: [*SCHEDULE, "--vms", text], []),
    ("vm_mips", POSITIVE, lambda text: [*SCHEDULE, "--vm-mips", text], []),
    ("n_tasks", TASKS, lambda text: ["generate", "--seed", "1", "--n", text], ["--min-mi", "0"]),
    ("seed", SEED, lambda text: ["generate", "--n", "1", "--seed", text], ["--min-mi", "0"]),
    ("length_min_mi", POSITIVE, lambda text: ["generate", "--n", "1", "--seed", "1", "--min-mi", text,
                                               "--max-mi", repr(sys.float_info.max)], ["--n", "0"]),
]


def _cases(entries):
    return [pytest.param(entry, at, past, id=f"{entry[0]}-{entry[1].want}-{at!r}")
            for entry in entries for at, past in EDGES[entry[1].want]]


def _refusal(build, value):
    try:
        build(value)
    except ValueError as exc:
        return str(exc)
    return None


def test_every_kind_accepts_its_edges_and_refuses_one_past():
    for kind in (SEED, POSITIVE, INDEX, TASKS, VMS, AT_LEAST_ONE, LEAGUE_SIZE):
        for at, past in EDGES[kind.want]:
            assert kind.ok(at) and not kind.ok(past), (kind.want, at, past)
    assert not any(kind.ok(None) for kind in (SEED, POSITIVE, INDEX, TASKS, VMS))  # a text that did not parse


@pytest.mark.parametrize("entry, at, past", _cases(CONSTRUCTORS))
def test_a_constructor_field_at_and_one_past_its_edge(entry, at, past):
    name, kind, build = entry
    assert _refusal(build, at) is None
    assert _refusal(build, past) == f"{name.format(past)} must be {kind.want}, got {past!r}"


@pytest.mark.parametrize("entry, at, past", _cases(COLUMNS))
def test_a_column_at_and_one_past_its_edge(entry, at, past):
    name, kind, parse = entry
    assert _refusal(parse, repr(at)) is None
    assert _refusal(parse, repr(past)) == f"line 1: {name} must be {kind.want}, got {repr(past)!r}"


@pytest.mark.parametrize("entry, at, past", _cases(FLAGS))
def test_a_cli_flag_at_and_one_past_its_edge(tmp_path, monkeypatch, capsys, entry, at, past):
    name, kind, argv, fail_later = entry
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv(repr(at)) + fail_later) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name} must be" not in err  # refused for what was added, not for the flag
    assert dispatch(argv(repr(past))) == 2
    assert capsys.readouterr() == ("", f"error: {name} must be {kind.want}, got {past!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, want, build", [
    ("length_min_mi", POSITIVE.want, lambda v: WorkloadSpec(1, v)),
    ("length_max_mi", "finite and >= length_min_mi", lambda v: WorkloadSpec(1, 200.0, v)),
    ("task 0: length", POSITIVE.want, lambda v: ProblemInstance((Task(0, v, 0),), (VirtualMachine(0, 1.0),))),
    ("w1", "a positive number <= 1e+290", lambda v: LcaParams(w1=v)),
    ("length_range_mi", "[min, max] with 0 < min <= max, both finite",
     lambda v: ExperimentConfig(length_range_mi=(1, v))),
])
def test_an_integer_past_the_float_range_is_refused_by_name(name, want, build):
    # Such an integer is a real number with no float: converting it raises OverflowError, not ValueError.
    value = 10**400
    shown = (1, value) if name == "length_range_mi" else value
    assert _refusal(build, value) == f"{name} must be {want}, got {shown!r}"


def test_a_bench_config_speed_past_the_float_range_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"vm_speed_mips": 1' + "0" * 400 + "}")
    assert dispatch(["bench", "--config", str(config)]) == 2
    want = "a finite positive speed, or a list of one per VM"
    assert capsys.readouterr() == ("", f"error: vm_speed_mips must be {want}, got {10**400}\n")
