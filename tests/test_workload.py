import io
import math

import numpy as np
import pytest

from leaguesched import (
    SplitMix64,
    Task,
    TraceParseError,
    WorkloadSpec,
    dump_trace,
    generate_synthetic,
    load_trace,
)
from leaguesched.workload import TASK_LIMIT


def test_lengths_within_bounds():
    tasks = generate_synthetic(WorkloadSpec(20, seed=1))
    assert len(tasks) == 20
    assert all(200.0 <= t.length_mi <= 500.0 for t in tasks)


def test_degenerate_range_is_constant():
    tasks = generate_synthetic(WorkloadSpec(10, 300.0, 300.0, seed=5))
    assert all(t.length_mi == 300.0 for t in tasks)


def test_same_seed_same_tasks():
    spec = WorkloadSpec(50, seed=987654321)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_different_seeds_differ():
    a = generate_synthetic(WorkloadSpec(50, seed=1))
    b = generate_synthetic(WorkloadSpec(50, seed=2))
    assert a != b


@pytest.mark.parametrize("n", [1, 2, 340, 2047, 2048, 5000])
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_lengths_are_the_sequential_draw_formula(n, seed):
    lo, hi = 200.0, 500.0
    rng = SplitMix64(seed)
    expected = [lo + rng.uniform() * (hi - lo) for _ in range(n)]
    tasks = generate_synthetic(WorkloadSpec(n, lo, hi, seed=seed))
    assert [t.length_mi for t in tasks] == expected
    assert all(type(t.length_mi) is float for t in tasks)


def test_ids_and_arrival_follow_generation_order():
    tasks = generate_synthetic(WorkloadSpec(7, seed=3))
    assert [t.id for t in tasks] == list(range(7))
    assert [t.arrival_index for t in tasks] == list(range(7))


@pytest.mark.parametrize(
    "spec",
    [
        ("n_tasks", (0,), dict(seed=1)),
        ("length_min_mi", (5, 0.0, 100.0), dict(seed=1)),
        ("length_min_mi", (5, -3.0, 100.0), dict(seed=1)),
        ("length_max_mi", (5, 400.0, 200.0), dict(seed=1)),
        ("length_max_mi", (5, 200.0, math.inf), dict(seed=1)),
        ("length_min_mi", (5, math.nan, 500.0), dict(seed=1)),
        ("n_tasks", (2.5,), {}),
        ("n_tasks", (True,), {}),
        ("seed", (3,), dict(seed=-1)),
        ("seed", (3,), dict(seed=2.5)),
        ("seed", (3,), dict(seed=2**64)),
        ("length_min_mi", (3,), dict(length_min_mi="1")),
        ("n_tasks", (TASK_LIMIT + 1,), {}),
        ("n_tasks", (10**12,), {}),
    ],
)
def test_invalid_specs_rejected(spec):
    field, args, kwargs = spec
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        WorkloadSpec(*args, **kwargs)


def test_a_spec_takes_tasks_up_to_the_limit():
    assert TASK_LIMIT == 10**6 and WorkloadSpec(TASK_LIMIT).n_tasks == TASK_LIMIT  # built, not generated


def test_sample_statistics():
    tasks = generate_synthetic(WorkloadSpec(10_000, seed=77))
    lengths = [t.length_mi for t in tasks]
    assert min(lengths) >= 200.0
    assert max(lengths) <= 500.0
    mean = sum(lengths) / len(lengths)
    assert abs(mean - 350.0) / 350.0 < 0.05


def test_load_trace_basic():
    tasks = load_trace("0,350\n1,410\n")
    assert [(t.id, t.length_mi, t.arrival_index) for t in tasks] == [
        (0, 350.0, 0),
        (1, 410.0, 1),
    ]


def test_load_trace_skips_header():
    tasks = load_trace("task_id,length_mi\n0,250\n")
    assert len(tasks) == 1
    assert tasks[0].length_mi == 250.0


def test_load_trace_skips_a_header_with_spaces_around_its_fields():
    # Data fields are stripped, so the header's are too: "0, 300" and "task_id, length_mi" both read.
    tasks = load_trace(" task_id , length_mi\n0, 300\n")
    assert [(t.id, t.length_mi) for t in tasks] == [(0, 300.0)]


def test_load_trace_header_only_after_blank_lines():
    tasks = load_trace("\n\ntask_id,length_mi\n4,300\n")
    assert [(t.id, t.arrival_index) for t in tasks] == [(4, 0)]


def test_load_trace_accepts_crlf_and_blank_lines():
    tasks = load_trace("0,100\r\n\r\n1,200\r\n")
    assert [t.length_mi for t in tasks] == [100.0, 200.0]


def test_load_trace_nonpositive_length():
    with pytest.raises(TraceParseError) as err:
        load_trace("0,-5\n")
    assert err.value.line_no == 1
    assert str(err.value) == "line 1: length_mi must be a finite positive number, got '-5'"


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
def test_load_trace_non_finite_length(text):
    with pytest.raises(TraceParseError) as err:
        load_trace(f"task_id,length_mi\n0,100\n1,{text}\n")
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: length_mi must be a finite positive number, got {text!r}"


def test_load_trace_wrong_field_count():
    with pytest.raises(TraceParseError) as err:
        load_trace("0,100\n1,200,300\n")
    assert err.value.line_no == 2


def test_load_trace_non_numeric_fields():
    with pytest.raises(TraceParseError):
        load_trace("zero,100\n")
    with pytest.raises(TraceParseError):
        load_trace("0,fast\n")
    # Numerals the writer never writes: int and float alone would read these as 10, 1, 100 and 20.
    for text, field in [("1_0,100", "task_id"), ("\u0661,100", "task_id"), ("0,1_00", "length_mi"),
                        ("0,\uff12\uff10", "length_mi")]:
        with pytest.raises(TraceParseError, match=rf"^line 1: {field} must be .*, got '"):
            load_trace(text + "\n")


def test_load_trace_accepts_file_object():
    tasks = load_trace(io.StringIO("0,100\n"))
    assert len(tasks) == 1


def test_dump_then_load_round_trip():
    tasks = generate_synthetic(WorkloadSpec(25, seed=13))
    sink = io.StringIO()
    n_bytes = dump_trace(tasks, sink)
    text = sink.getvalue()
    assert n_bytes == len(text.encode("utf-8"))
    assert text.startswith("task_id,length_mi\n")
    assert load_trace(text) == tasks


def test_dump_trace_writes_numpy_float_lengths_as_numbers():
    tasks = [Task(0, np.float64(300.0), 0), Task(1, np.float32(0.5), 1)]
    sink = io.StringIO()
    dump_trace(tasks, sink)
    assert sink.getvalue() == "task_id,length_mi\n0,300.0\n1,0.5\n"
    assert [t.length_mi for t in load_trace(sink.getvalue())] == [300.0, 0.5]
