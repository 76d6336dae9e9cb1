"""Property tests against plain-Python references.

The reference loop below is the execution model written out one task at a
time in arrival order. Every evaluation path of the package must agree with
it bit for bit, because they all sum the same durations in the same order.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguesched import (
    Assignment,
    ProblemInstance,
    Task,
    VirtualMachine,
    bef,
    brute_force_optimum,
    encode,
    fcfs,
    ljf,
    lower_bound,
    makespan,
    vm_loads,
)
from leaguesched import oracle
from leaguesched.lca import _FitnessEvaluator

# Rounding slack for lower_bound, which sums all lengths and speeds in one
# expression where the optimum sums per VM: n float64 additions stay far below it.
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
def instances(draw, max_tasks=12, max_vms=5, max_assignments=None):
    m = draw(st.integers(1, max_vms))
    if max_assignments is not None and m > 1:
        max_tasks = min(max_tasks, int(math.log(max_assignments, m)))
    n = draw(st.integers(1, max_tasks))
    arrival = draw(st.permutations(range(n)))
    tasks = tuple(Task(k, draw(lengths), arrival[k]) for k in range(n))
    return ProblemInstance(tasks, tuple(VirtualMachine(v, draw(speeds)) for v in range(m)))


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
    assert result.completion_s == tuple(completion)
    assert result.makespan_s == max(completion)
    assert vm_loads(instance, Assignment(vm_of)) == loads
    assert all(type(x) is float for x in result.vm_load_s + result.completion_s)


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
@given(instances(max_tasks=8, max_vms=4, max_assignments=5000))
def test_lower_bound_optimum_and_greedy_baselines_are_ordered(instance):
    _, optimum = brute_force_optimum(instance)
    assert lower_bound(instance) <= optimum * (1.0 + LOWER_BOUND_RTOL)
    for scheduler in (fcfs, ljf, bef):
        assert optimum <= makespan(instance, scheduler(instance)).makespan_s
