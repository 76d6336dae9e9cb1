import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguesched import (
    InvalidInstanceError,
    SchedulerKind,
    SplitMix64,
    Task,
    VirtualMachine,
    bef,
    brute_force_optimum,
    fcfs,
    ljf,
    makespan,
)
from leaguesched import ProblemInstance
from leaguesched.baselines import _schedule_in_order


def _tasks(lengths):
    return [Task(i, float(l), i) for i, l in enumerate(lengths)]


def _vms(n, speed=100.0):
    return [VirtualMachine(v, speed) for v in range(n)]


def test_scheduler_kind_codes_are_stable():
    assert [k.value for k in (SchedulerKind.FCFS, SchedulerKind.LJF, SchedulerKind.BEF, SchedulerKind.LCA)] == [0, 1, 2, 3]


def _greedy(lengths, vms):
    """The greedy core over the given order: FCFS on an instance that arrives in it."""
    return fcfs(ProblemInstance(tuple(_tasks(lengths)), tuple(vms)))


def test_greedy_core_hand_example(make_instance):
    # 500 -> VM0; 200 -> VM1 (empty); 300 -> VM1 (2s < 5s)
    a = _greedy([500, 200, 300], _vms(2))
    assert a.vm_of == (0, 1, 1)
    inst = make_instance([500.0, 200.0, 300.0])
    assert makespan(inst, a).makespan_s == 5.0


def test_greedy_core_single_vm():
    a = _greedy([100, 200, 300], _vms(1))
    assert a.vm_of == (0, 0, 0)


def test_greedy_core_ties_go_to_lowest_index():
    a = _greedy([100, 100], _vms(2))
    assert a.vm_of == (0, 1)


def test_greedy_core_rejects_empty_vm_list():
    with pytest.raises(InvalidInstanceError, match="empty VM list"):
        ProblemInstance(tuple(_tasks([100])), ())


def test_greedy_core_uses_seconds_not_instruction_counts():
    # VM0 is half speed: after one task each, VM0 is busy 2s vs 1s on VM1, so
    # the third task goes to VM1 (equal-MI loads would have sent it to VM0).
    a = _greedy([100, 100, 100], [VirtualMachine(0, 50.0), VirtualMachine(1, 100.0)])
    assert a.vm_of == (0, 1, 1)


def test_fcfs_hand_example(make_instance):
    inst = make_instance([200.0, 500.0, 300.0, 400.0])
    a = fcfs(inst)
    assert a.vm_of == (0, 1, 0, 0)
    assert makespan(inst, a).makespan_s == 9.0


def test_fcfs_single_task(make_instance):
    assert fcfs(make_instance([300.0])).vm_of == (0,)


def test_fcfs_matches_oracle_when_arrival_order_is_optimal(make_instance):
    # Arrival order alternates long/long then short/short: the greedy split
    # {500, 200} / {500, 200} is exactly the brute-force optimum.
    inst = make_instance([500.0, 500.0, 200.0, 200.0])
    _, optimum = brute_force_optimum(inst)
    assert makespan(inst, fcfs(inst)).makespan_s == optimum


def test_fcfs_sorts_by_arrival_index_not_position():
    # Same tasks listed in reverse arrival order must give the same schedule
    # per task id as the arrival-ordered listing.
    lengths = [200.0, 500.0, 300.0, 400.0]
    forward = ProblemInstance(
        tuple(Task(i, lengths[i], i) for i in range(4)), tuple(_vms(2))
    )
    reversed_listing = ProblemInstance(
        tuple(Task(3 - i, lengths[3 - i], 3 - i) for i in range(4)), tuple(_vms(2))
    )
    by_id_fwd = {t.id: fcfs(forward).vm_of[k] for k, t in enumerate(forward.tasks)}
    by_id_rev = {t.id: fcfs(reversed_listing).vm_of[k] for k, t in enumerate(reversed_listing.tasks)}
    assert by_id_fwd == by_id_rev


def test_ljf_hand_example(make_instance):
    # processed as [500, 400, 300, 200]: 500->0, 400->1, 300->1, 200->0
    inst = make_instance([200.0, 500.0, 300.0, 400.0])
    a = ljf(inst)
    assert a.vm_of == (0, 0, 1, 1)
    assert makespan(inst, a).makespan_s == 7.0


def test_ljf_short_example(make_instance):
    inst = make_instance([500.0, 200.0, 300.0])
    assert makespan(inst, ljf(inst)).makespan_s == 5.0


def test_ljf_equal_lengths_reduces_to_fcfs(make_instance):
    inst = make_instance([250.0] * 5, n_vms=3)
    assert ljf(inst) == fcfs(inst)


def test_bef_hand_example(make_instance):
    # processed as [200, 300, 400, 500]: 200->0, 300->1, 400->0, 500->1
    inst = make_instance([200.0, 500.0, 300.0, 400.0])
    a = bef(inst)
    assert a.vm_of == (0, 1, 1, 0)
    assert makespan(inst, a).makespan_s == 8.0


def test_bef_equal_lengths_reduces_to_fcfs(make_instance):
    inst = make_instance([250.0] * 5, n_vms=3)
    assert bef(inst) == fcfs(inst)


def test_single_vm_all_baselines_equal_total(make_instance):
    inst = make_instance([200.0, 500.0, 300.0], n_vms=1)
    for scheduler in (fcfs, ljf, bef):
        assert makespan(inst, scheduler(inst)).makespan_s == 10.0


def _random_instance(rng):
    n = 2 + int(rng.uniform() * 7)  # 2..8
    m = 2 + int(rng.uniform() * 2)  # 2..3
    tasks = tuple(Task(i, 200.0 + rng.uniform() * 300.0, i) for i in range(n))
    vms = tuple(VirtualMachine(v, 100.0) for v in range(m))
    return ProblemInstance(tasks, vms)


def test_baselines_always_return_valid_assignments():
    rng = SplitMix64(55)
    for _ in range(30):
        inst = _random_instance(rng)
        for scheduler in (fcfs, ljf, bef):
            a = scheduler(inst)
            assert len(a.vm_of) == len(inst.tasks)
            assert all(0 <= v < len(inst.vms) for v in a.vm_of)


def test_baselines_are_deterministic():
    rng = SplitMix64(56)
    for _ in range(10):
        inst = _random_instance(rng)
        for scheduler in (fcfs, ljf, bef):
            assert scheduler(inst) == scheduler(inst)


def test_ljf_within_twice_the_optimum():
    rng = SplitMix64(57)
    for _ in range(25):
        inst = _random_instance(rng)
        _, optimum = brute_force_optimum(inst)
        assert makespan(inst, ljf(inst)).makespan_s <= 2.0 * optimum


def reference_schedule_in_order(instance, order):
    """The greedy core by a linear scan per task: the first VM of least load."""
    lengths, speeds = instance.lengths.tolist(), instance.speeds.tolist()
    loads = [0.0] * len(speeds)
    vm_of = [0] * len(lengths)
    for i in order:
        v = min(range(len(speeds)), key=loads.__getitem__)
        loads[v] += lengths[i] / speeds[v]
        vm_of[i] = v
    return vm_of


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    lengths=st.lists(st.sampled_from([100.0, 200.0, 300.0, 0.1, 1e6]), min_size=1, max_size=40),
    speeds=st.sampled_from([[100.0], [100.0, 200.0], [0.3, 0.7, 1e3]]),
    data=st.data(),
)
def test_heap_core_makes_the_scan_cores_choices_on_tie_heavy_instances(m, lengths, speeds, data):
    # Few distinct lengths and speeds, so loads tie often: the heap takes the lowest index among equal loads.
    vms = tuple(VirtualMachine(v, speeds[v % len(speeds)]) for v in range(m))
    instance = ProblemInstance(tuple(_tasks(lengths)), vms)
    order = data.draw(st.permutations(range(len(lengths))))
    assert list(_schedule_in_order(instance, order).vm_of) == reference_schedule_in_order(instance, order)
