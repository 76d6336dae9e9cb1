"""Property tests against plain-Python references and scheduling theory.

The reference loop below is the execution model written out one task at a
time in arrival order. Every evaluation path of the package must agree with
it bit for bit, because they all sum the same durations in the same order.
The greedy baselines must meet Graham's list-scheduling bounds, and the league
engine must agree with itself about the schedule it returns and land between
the optimum and the baselines it starts from. Every field of the config types
must refuse a mistyped value by name. The trace and the benchmark CSV must
read back what they write, and their writers must refuse exactly what their
readers would.
"""

import dataclasses
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguesched import (
    Assignment,
    ExperimentConfig,
    ExperimentRecord,
    LcaParams,
    ProblemInstance,
    SchedulerKind,
    Task,
    TraceParseError,
    VirtualMachine,
    WorkloadSpec,
    bef,
    brute_force_optimum,
    dump_trace,
    emit_csv,
    encode,
    fcfs,
    ljf,
    load_trace,
    lower_bound,
    makespan,
    parse_csv,
    run,
)
from leaguesched import lca, oracle
from leaguesched.lca import _FitnessEvaluator

# Rounding slack for lower_bound and Graham's bounds, which sum all lengths in
# one expression where a schedule sums per VM: n float64 additions stay far below it.
LOWER_BOUND_RTOL = 1e-12


def reference_loads(instance, vm_of):
    """Per-VM busy time and per-task completion, task by task in arrival order."""
    loads = [0.0] * len(instance.vms)
    completion = [0.0] * len(instance.tasks)
    for k in sorted(range(len(instance.tasks)), key=lambda k: instance.tasks[k].arrival_index):
        v = vm_of[k]
        loads[v] += instance.tasks[k].length_mi / instance.vms[v].speed_mips
        completion[k] = loads[v]
    return loads, completion


def reference_optimum(instance):
    """Lexicographically first assignment of least makespan, by the reference loop."""
    best, best_ms = None, math.inf
    for vm_of in itertools.product(range(len(instance.vms)), repeat=len(instance.tasks)):
        ms = max(reference_loads(instance, vm_of)[0])
        if ms < best_ms:
            best, best_ms = vm_of, ms
    return best, best_ms


# Few distinct values, so equal durations and tied makespans are common.
lengths = st.one_of(st.sampled_from([100.0, 250.0, 300.0]), st.floats(1.0, 1e4))
speeds = st.one_of(st.sampled_from([100.0, 1000.0]), st.floats(10.0, 5000.0))


@st.composite
def instances(draw, max_tasks=12, max_vms=5, max_assignments=None, equal_speeds=False):
    m = draw(st.integers(1, max_vms))
    if max_assignments is not None and m > 1:
        max_tasks = min(max_tasks, int(math.log(max_assignments, m)))
    n = draw(st.integers(1, max_tasks))
    arrival = draw(st.permutations(range(n)))
    tasks = tuple(Task(k, draw(lengths), arrival[k]) for k in range(n))
    vm_speeds = [draw(speeds)] * m if equal_speeds else [draw(speeds) for _ in range(m)]
    return ProblemInstance(tasks, tuple(VirtualMachine(v, s) for v, s in enumerate(vm_speeds)))


@st.composite
def schedules(draw, rows=1):
    instance = draw(instances())
    n, m = len(instance.tasks), len(instance.vms)
    vm_ofs = [draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)) for _ in range(rows)]
    return instance, vm_ofs


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_makespan_and_vm_loads_match_reference(case):
    instance, (vm_of,) = case
    loads, completion = reference_loads(instance, vm_of)
    result = makespan(instance, Assignment(vm_of))
    assert result.vm_load_s == tuple(loads)
    assert result.makespan_s == max(completion)
    assert all(type(x) is float for x in result.vm_load_s)


@settings(max_examples=200, deadline=None)
@given(schedules(), st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_fitness_evaluator_matches_reference(case, jitter):
    # Jitter stays inside each VM bucket or strays outside [0, m), which decoding clamps.
    instance, (vm_of,) = case
    n, m = len(instance.tasks), len(instance.vms)
    evaluate = _FitnessEvaluator(instance)
    assert evaluate(encode(Assignment(vm_of))) == max(reference_loads(instance, vm_of)[0])
    formation = encode(Assignment(vm_of)) + 0.49 * np.array(jitter[:n])
    formation[0] = -0.7 if n % 2 else m + 0.3
    decoded = [min(max(math.floor(x), 0), m - 1) for x in formation]
    assert evaluate(formation) == max(reference_loads(instance, decoded)[0])


@settings(max_examples=100, deadline=None)
@given(schedules(rows=5))
def test_kernel_block_rows_match_reference(case):
    instance, vm_ofs = case
    block = instance.loads(np.array(vm_ofs, dtype=np.int64))
    assert block.shape == (len(vm_ofs), len(instance.vms))
    for row, vm_of in zip(block, vm_ofs):
        assert row.tolist() == reference_loads(instance, vm_of)[0]


@settings(max_examples=60, deadline=None)
@given(instances(max_tasks=6, max_vms=3, max_assignments=400), st.integers(1, 40))
def test_oracle_matches_reference_enumeration_for_any_block_size(instance, cells):
    expected_vm_of, expected_ms = reference_optimum(instance)
    with mock.patch.object(oracle, "_CHUNK_CELLS", cells):
        best, value = brute_force_optimum(instance)
    assert best.vm_of == expected_vm_of
    assert value == expected_ms


@settings(max_examples=60, deadline=None)
@given(
    st.booleans().flatmap(
        lambda equal: instances(max_tasks=6, max_vms=3, max_assignments=400, equal_speeds=equal)
    ),
    st.integers(1, 40),
)
def test_oracle_answer_does_not_depend_on_its_first_incumbent(instance, cells):
    # The cut keeps ties and every incumbent is a real leaf, so any starting
    # schedule in place of LJF's must give the same optimum and tie rule.
    slowest = Assignment((int(np.argmin(instance.speeds)),) * len(instance.tasks))
    expected = reference_optimum(instance)
    for start in (fcfs, bef, lambda _: slowest):
        with mock.patch.object(oracle, "ljf", start), mock.patch.object(oracle, "_CHUNK_CELLS", cells):
            best, value = brute_force_optimum(instance)
        assert (best.vm_of, value) == expected


@settings(max_examples=100, deadline=None)
@given(instances())
def test_lower_bound_is_the_plain_formula_when_sums_are_finite(instance):
    lengths = [t.length_mi for t in instance.tasks]
    speeds = [vm.speed_mips for vm in instance.vms]
    assert lower_bound(instance) == max(sum(lengths) / sum(speeds), max(lengths) / max(speeds))


@settings(max_examples=60, deadline=None)
@given(instances(max_tasks=8, max_vms=4, max_assignments=5000))
def test_lower_bound_optimum_and_greedy_baselines_are_ordered(instance):
    _, optimum = brute_force_optimum(instance)
    assert lower_bound(instance) <= optimum * (1.0 + LOWER_BOUND_RTOL)
    for scheduler in (fcfs, ljf, bef):
        assert optimum <= makespan(instance, scheduler(instance)).makespan_s


@settings(max_examples=60, deadline=None)
@given(
    instances(max_tasks=7, max_vms=3, max_assignments=2000),
    st.integers(4, 6),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
)
def test_league_lands_between_the_optimum_and_the_greedy_baselines(instance, size, seasons, seed):
    # Teams 0-2 start from FCFS/LJF/BEF and only strict improvements are kept, so the
    # league never ends above the best baseline; no schedule beats the enumerated optimum.
    _, optimum = brute_force_optimum(instance)
    league_s = run(LcaParams(league_size=size, seasons=seasons, seed=seed), instance).best_makespan_s
    greedy_s = min(makespan(instance, scheduler(instance)).makespan_s for scheduler in (fcfs, ljf, bef))
    assert lower_bound(instance) <= optimum * (1.0 + LOWER_BOUND_RTOL)
    assert optimum <= league_s <= greedy_s


@settings(max_examples=150, deadline=None)
@given(instances(max_tasks=30, max_vms=6, equal_speeds=True))
def test_greedy_baselines_meet_grahams_list_scheduling_bound(instance):
    # Graham (1966): on m identical machines any list schedule has makespan
    # <= sum(p) / m + (1 - 1/m) * max(p); here p is a task's duration l / s.
    m, s = len(instance.vms), instance.vms[0].speed_mips
    length = [t.length_mi for t in instance.tasks]
    bound = sum(length) / (m * s) + (1 - 1 / m) * max(length) / s
    for scheduler in (fcfs, ljf, bef):
        assert makespan(instance, scheduler(instance)).makespan_s <= bound * (1 + LOWER_BOUND_RTOL)


@settings(max_examples=60, deadline=None)
@given(instances(max_tasks=8, max_vms=4, max_assignments=5000, equal_speeds=True))
def test_ljf_meets_grahams_four_thirds_bound(instance):
    # Graham (1969): longest job first is within (4/3 - 1/(3m)) of the optimum.
    m = len(instance.vms)
    _, optimum = brute_force_optimum(instance)
    ljf_s = makespan(instance, ljf(instance)).makespan_s
    assert ljf_s <= (4 / 3 - 1 / (3 * m)) * optimum * (1 + LOWER_BOUND_RTOL)


@settings(max_examples=150, deadline=None)
@given(schedules(), st.data())
def test_makespan_is_invariant_under_task_relabelling(case, data):
    # Reorder the task list and draw fresh ids; arrival_index and each task's VM
    # travel with the task, so every VM sums the same durations in the same order.
    instance, (vm_of,) = case
    n = len(instance.tasks)
    order = data.draw(st.permutations(range(n)))
    ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    relabelled = ProblemInstance(
        tuple(Task(ids[k], instance.tasks[i].length_mi, instance.tasks[i].arrival_index)
              for k, i in enumerate(order)),
        instance.vms,
    )
    before = makespan(instance, Assignment(vm_of))
    after = makespan(relabelled, Assignment([vm_of[i] for i in order]))
    assert after.makespan_s == before.makespan_s
    assert after.vm_load_s == before.vm_load_s


@settings(max_examples=40, deadline=None)
@given(
    instances(max_tasks=10, max_vms=4),
    st.integers(4, 9),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.booleans(),
    st.integers(0, 2**64 - 1),
)
def test_engine_reports_the_schedule_it_found(instance, size, seasons, swap, seeded, seed):
    params = LcaParams(league_size=size, seasons=seasons, swap_probability=swap,
                       seed_with_baselines=seeded, seed=seed)
    with mock.patch.object(lca, "update_formation", wraps=lca.update_formation) as propose, \
            mock.patch.object(lca._FitnessEvaluator, "__call__", autospec=True,
                              side_effect=lca._FitnessEvaluator.__call__) as evaluate:
        result = run(params, instance)
    weeks = seasons * (size - 1 + size % 2)
    assert len(result.history) == weeks
    assert result.best_makespan_s == result.history[-1]
    assert result.best_makespan_s == makespan(instance, result.best_assignment).makespan_s
    assert propose.call_count == weeks  # one whole-league block per week
    assert result.evaluations == size + sum(call.args[1].proposals for call in propose.call_args_list)
    assert evaluate.call_count == weeks + 1  # the initial league, then one block per week


@st.composite
def league_instances(draw):
    """Instances for whole runs: n of 1 and 2 among others, reordered arrivals, often tied lengths and speeds."""
    n = draw(st.sampled_from([1, 2, 3, 7, 12]))
    m = draw(st.integers(1, 4))
    arrival = draw(st.permutations(range(n)))
    tasks = tuple(Task(k, draw(lengths), arrival[k]) for k in range(n))
    vm_speeds = [draw(speeds)] * m if draw(st.booleans()) else [draw(speeds) for _ in range(m)]
    return ProblemInstance(tasks, tuple(VirtualMachine(v, s) for v, s in enumerate(vm_speeds)))


@settings(max_examples=60, deadline=None)
@given(
    league_instances(),
    st.integers(4, 9),
    st.integers(1, 2),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.05, 0.3, 1.0]),
    st.sampled_from([3, 2**40]),
    st.integers(0, 2**64 - 1),
)
def test_patched_weeks_score_what_the_dense_kernel_does(instance, size, seasons, swap, change, plan, seed):
    # Every call of a run's evaluator, the starting league and then each week's patched block, gives the
    # makespans a fresh evaluator gives on the same block, bit for bit, and leaves its cells equal to the cells of
    # that block. Plans of three weeks carry moved cells across every plan boundary; one plan carries none.
    params = LcaParams(league_size=size, seasons=seasons, swap_probability=swap, change_probability=change,
                       seed=seed)
    dense, m, score = _FitnessEvaluator(instance), len(instance.vms), _FitnessEvaluator.__call__

    def scored(evaluate, formations, moved=None):
        fitness = score(evaluate, formations, moved)
        assert fitness.tobytes() == score(dense, formations).tobytes()  # the unpatched call, dense
        keys, durations = instance.cells(lca._vm_index(formations, m))
        assert evaluate._keys.tobytes() == keys.tobytes()
        assert evaluate._durations.tobytes() == durations.tobytes()
        return fitness

    with mock.patch.object(lca, "_PLAN_ROWS", plan * size), \
            mock.patch.object(_FitnessEvaluator, "__call__", autospec=True, side_effect=scored) as calls:
        result = run(params, instance)
    assert calls.call_count == len(result.history) + 1


@pytest.mark.parametrize(
    "config_type, required",
    [(LcaParams, {}), (WorkloadSpec, {"n_tasks": 5}), (ExperimentConfig, {})],
    ids=["LcaParams", "WorkloadSpec", "ExperimentConfig"],
)
def test_every_config_field_refuses_bools_nans_and_strings_by_name(config_type, required):
    # A field added without a check fails here.
    for f in dataclasses.fields(config_type):
        for bad in (True, math.nan, "x"):
            if bad is True and f.type == "bool":
                continue  # a flag takes a bool
            with pytest.raises(ValueError, match=rf"\b{f.name} must be "):
                config_type(**{**required, f.name: bad})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2**70), st.floats(allow_subnormal=True)), max_size=8))
def test_trace_reads_back_what_it_writes_and_writes_only_what_it_reads(rows):
    tasks = [Task(task_id, length, k) for k, (task_id, length) in enumerate(rows)]
    ids = [t.id for t in tasks]
    readable = len(set(ids)) == len(ids) and all(
        t.id >= 0 and math.isfinite(t.length_mi) and t.length_mi > 0 for t in tasks
    )
    sink = io.StringIO()
    if readable:
        dump_trace(tasks, sink)
        assert load_trace(sink.getvalue()) == tasks
    else:
        with pytest.raises(TraceParseError):
            dump_trace(tasks, sink)
        assert sink.getvalue() == ""


records = st.builds(
    ExperimentRecord,
    st.sampled_from(SchedulerKind),
    st.integers(-1, 10**6),
    st.integers(-1, 50),
    st.integers(-1, 2**64),
    st.one_of(st.floats(), st.floats(0.0, 1e-5), st.floats(1e-7, 1e3)),
    st.integers(-1, 10**9),
    st.integers(-1, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=6))
def test_csv_reads_back_what_it_writes_and_writes_only_what_it_reads(recs):
    printed = [dataclasses.replace(r, makespan_s=float(f"{r.makespan_s:.6f}")) for r in recs]
    readable = all(
        r.n_tasks >= 1 and r.rep >= 0 and 0 <= r.seed < 2**64 and r.evaluations >= 0
        and r.wall_time_ms >= 0 and math.isfinite(r.makespan_s) and r.makespan_s > 0
        for r in printed
    ) and len({(r.scheduler, r.n_tasks, r.rep) for r in recs}) == len(recs)  # one row per grid cell
    sink = io.StringIO()
    if readable:
        emit_csv(recs, sink)
        assert parse_csv(sink.getvalue()) == sorted(
            printed, key=lambda r: (r.scheduler.value, r.n_tasks, r.rep)
        )
    else:
        with pytest.raises(ValueError):
            emit_csv(recs, sink)
        assert sink.getvalue() == ""
