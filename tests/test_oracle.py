import itertools
import tracemalloc
from unittest import mock

import pytest

from leaguesched import (
    Assignment,
    ProblemInstance,
    SplitMix64,
    Task,
    VirtualMachine,
    bef,
    brute_force_optimum,
    fcfs,
    ljf,
    lower_bound,
    makespan,
    oracle,
)


def test_hand_example(make_instance):
    inst = make_instance([200.0, 500.0, 300.0, 400.0])
    best, optimum = brute_force_optimum(inst)
    assert optimum == 7.0
    # lexicographically smallest optimal split: {200,500} vs {300,400}
    assert best.vm_of == (0, 0, 1, 1)


def test_single_vm_optimum_is_total(make_instance):
    inst = make_instance([200.0, 300.0, 500.0], n_vms=1)
    _, optimum = brute_force_optimum(inst)
    assert optimum == 10.0


def test_equal_tasks_one_vm_each(make_instance):
    inst = make_instance([300.0, 300.0, 300.0], n_vms=3)
    best, optimum = brute_force_optimum(inst)
    assert optimum == 3.0
    assert best.vm_of == (0, 1, 2)  # smallest assignment spreading one per VM


def test_enumeration_guard(make_instance):
    inst = make_instance([100.0] * 20, n_vms=3)
    with pytest.raises(ValueError):
        brute_force_optimum(inst)


def test_lower_bound_hand_example(make_instance):
    inst = make_instance([200.0, 500.0, 300.0, 400.0])
    assert lower_bound(inst) == 7.0


def test_lower_bound_single_task_uses_fastest_vm(make_instance):
    inst = make_instance([300.0], speed_mips=[100.0, 300.0])
    assert lower_bound(inst) == 1.0


def test_lower_bound_tight_when_perfect_split_exists(make_instance):
    inst = make_instance([300.0, 300.0])
    _, optimum = brute_force_optimum(inst)
    assert lower_bound(inst) == optimum == 3.0


def _random_instance(rng):
    n = 2 + int(rng.uniform() * 6)  # 2..7
    m = 2 + int(rng.uniform() * 2)  # 2..3
    tasks = tuple(Task(i, 200.0 + rng.uniform() * 300.0, i) for i in range(n))
    vms = tuple(VirtualMachine(v, 100.0 + rng.uniform() * 900.0) for v in range(m))
    return ProblemInstance(tasks, vms)


@pytest.mark.parametrize(
    "lengths, n_vms", [([200.0, 500.0, 300.0, 400.0], 4), ([300.0, 450.0, 250.0], 5)]
)
def test_greedy_baselines_meet_lower_bound_when_tasks_do_not_outnumber_vms(
    make_instance, lengths, n_vms
):
    # One task per equal-speed VM: every greedy makespan is longest / speed,
    # the lower bound, so no scheduler can do better.
    inst = make_instance(lengths, n_vms=n_vms)
    _, optimum = brute_force_optimum(inst)
    bound = lower_bound(inst)
    assert bound == optimum == max(lengths) / 100.0
    for scheduler in (fcfs, ljf, bef):
        assert makespan(inst, scheduler(inst)).makespan_s == bound


def test_lower_bound_never_exceeds_optimum():
    rng = SplitMix64(71)
    for _ in range(25):
        inst = _random_instance(rng)
        _, optimum = brute_force_optimum(inst)
        assert lower_bound(inst) <= optimum + 1e-12


def test_optimum_never_exceeds_any_baseline():
    rng = SplitMix64(72)
    for _ in range(25):
        inst = _random_instance(rng)
        _, optimum = brute_force_optimum(inst)
        for scheduler in (fcfs, ljf, bef):
            assert optimum <= makespan(inst, scheduler(inst)).makespan_s + 1e-12


def test_ties_resolve_to_lexicographically_smallest(make_instance):
    # Mirror-image splits tie; the all-zeros-first enumeration must win.
    inst = make_instance([300.0, 300.0])
    best, _ = brute_force_optimum(inst)
    assert best.vm_of == (0, 1)
    single = make_instance([400.0], n_vms=3)
    assert brute_force_optimum(single)[0].vm_of == (0,)


def test_ljf_tied_with_a_smaller_optimum_loses_the_tie(make_instance):
    # LJF is optimal here, but the search must still reach and prefer the
    # lexicographically smaller optimum that ties it.
    inst = make_instance([300.0] * 4)
    assert ljf(inst).vm_of == (0, 1, 0, 1)
    best, optimum = brute_force_optimum(inst)
    assert (best.vm_of, optimum) == ((0, 0, 1, 1), 6.0)


def test_ljf_that_is_the_first_optimum_is_returned(make_instance):
    # {500} against {200, 300}: LJF's own (0, 1, 1) is the first of the two optima.
    inst = make_instance([500.0, 200.0, 300.0])
    assert ljf(inst).vm_of == (0, 1, 1)
    best, optimum = brute_force_optimum(inst)
    assert (best.vm_of, optimum) == ((0, 1, 1), 5.0)


def _tied_instance(arrival, n_vms, lengths=None):
    """Equal-speed VMs and equal lengths unless given: optima tie in many relabelled ways."""
    lengths = lengths or [300.0] * len(arrival)
    tasks = tuple(Task(k, lengths[k], a) for k, a in enumerate(arrival))
    return ProblemInstance(tasks, tuple(VirtualMachine(v, 100.0) for v in range(n_vms)))


def _first_optimum(instance):
    """The position-lexicographically first assignment of least makespan, one at a time."""
    m, n = len(instance.vms), len(instance.tasks)
    vm_of = min(
        itertools.product(range(m), repeat=n),
        key=lambda vm_of: makespan(instance, Assignment(vm_of)).makespan_s,
    )
    return vm_of, makespan(instance, Assignment(vm_of)).makespan_s


@pytest.mark.parametrize("cells", [1, 4, 7, 1 << 14])
@pytest.mark.parametrize(
    "arrival, n_vms, lengths",
    [
        ([5, 4, 3, 2, 1, 0], 3, None),
        ([2, 0, 4, 1, 3, 5], 3, [200.0, 100.0, 200.0, 100.0, 300.0, 100.0]),
        ([6, 3, 0, 5, 2, 4, 1], 2, [100.0, 200.0, 300.0, 100.0, 200.0, 300.0, 100.0]),
    ],
)
def test_ties_resolve_to_first_optimum_across_small_chunks(arrival, n_vms, lengths, cells):
    # Reversed and shuffled arrival: the first optimum in arrival order is not
    # the first by position. At 1, 4 and 7 cells a chunk is narrower than one
    # level of one node, so tied optima land in different chunks.
    inst = _tied_instance(arrival, n_vms, lengths)
    with mock.patch.object(oracle, "_CHUNK_CELLS", cells):
        best, optimum = brute_force_optimum(inst)
    assert (best.vm_of, optimum) == _first_optimum(inst)


def test_enumeration_memory_stays_within_a_few_chunks(make_instance):
    # 2^20 assignments: one tree level of them is 2^21 loads (16 MiB), the
    # whole tree twice that; chunked enumeration holds a few chunks at most.
    inst = make_instance([100.0 + 7.0 * k for k in range(20)], n_vms=2)
    tracemalloc.start()
    try:
        _, optimum = brute_force_optimum(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lower_bound(inst) <= optimum
    assert peak < 4 * oracle._CHUNK_CELLS * 8


@pytest.mark.parametrize("speed_mips", [1e10, 1e308])
def test_lower_bound_stays_finite_when_total_length_overflows(make_instance, speed_mips):
    # sum(length_mi) is inf here (and so is sum(speed_mips) at 1e308), yet
    # every schedule is finite: one task per VM is optimal.
    inst = make_instance([1e308, 1e308], n_vms=2, speed_mips=speed_mips)
    _, optimum = brute_force_optimum(inst)
    bound = lower_bound(inst)
    assert bound == optimum == makespan(inst, fcfs(inst)).makespan_s == 1e308 / speed_mips
