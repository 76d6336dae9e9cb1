import math
import re

import numpy as np
import pytest

from leaguesched import (
    Assignment,
    DuplicateTaskIdError,
    InvalidAssignmentError,
    InvalidInstanceError,
    ProblemInstance,
    SplitMix64,
    Task,
    TraceParseError,
    VirtualMachine,
    load_trace,
    makespan,
    parse_csv,
)

CSV_HEADER = "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\n"


def test_single_task_single_vm(make_instance):
    inst = make_instance([300.0], n_vms=1)
    assert makespan(inst, Assignment((0,))).makespan_s == 3.0


def test_two_vm_load_sum(make_instance):
    inst = make_instance([200.0, 500.0, 300.0])
    result = makespan(inst, Assignment((0, 0, 1)))
    assert result.vm_load_s == (7.0, 3.0)
    assert result.makespan_s == 7.0


def test_independent_tasks(make_instance):
    inst = make_instance([200.0, 300.0])
    assert makespan(inst, Assignment((0, 1))).makespan_s == 3.0


def test_vm_loads_unused_vm_is_zero(make_instance):
    inst = make_instance([100.0], n_vms=2)
    assert makespan(inst, Assignment((0,))).vm_load_s == (1.0, 0.0)


def test_vm_loads_two_vms(make_instance):
    inst = make_instance([200.0, 500.0, 300.0])
    assert makespan(inst, Assignment((0, 0, 1))).vm_load_s == (7.0, 3.0)


def test_vm_loads_single_vm_total(make_instance):
    inst = make_instance([200.0, 300.0, 500.0], n_vms=1)
    assert makespan(inst, Assignment((0, 0, 0))).vm_load_s == (10.0,)


def test_length_mismatch_rejected(make_instance):
    inst = make_instance([200.0, 300.0])
    with pytest.raises(InvalidAssignmentError):
        makespan(inst, Assignment((0,)))


@pytest.mark.parametrize("bad_vm", [-1, 2, 17])
def test_vm_index_out_of_range_rejected(make_instance, bad_vm):
    inst = make_instance([200.0, 300.0])
    with pytest.raises(InvalidAssignmentError):
        makespan(inst, Assignment((0, bad_vm)))


@pytest.mark.parametrize(
    "vm_of, position",
    [((0.7, 1.2), 0), ((0, "1"), 1), ((True, False), 0), ((0, 1, 2.0), 2), ((0, -1), 1)],
    ids=["floats", "string", "bools", "integral_float", "negative"],
)
def test_assignment_rejects_entries_that_are_not_vm_indexes(vm_of, position):
    with pytest.raises(InvalidAssignmentError, match=rf"^position {position}: "):
        Assignment(vm_of)


@pytest.mark.parametrize("vm_of", [None, 5], ids=["none", "int"])
def test_assignment_refuses_a_vm_of_that_is_not_a_sequence(vm_of):
    kind = type(vm_of).__name__
    with pytest.raises(InvalidAssignmentError, match=rf"^vm_of must be a sequence of VM indices, got {kind}$"):
        Assignment(vm_of)


def test_assignment_accepts_numpy_integers_as_plain_ints():
    a = Assignment(np.array([2, 0, 1], dtype=np.int64))
    assert a.vm_of == (2, 0, 1) and all(type(v) is int for v in a.vm_of)


def test_validate_well_formed(make_instance):
    inst = make_instance([200.0, 300.0, 500.0])
    assert inst.lengths.tolist() == [200.0, 300.0, 500.0]
    assert inst.speeds.tolist() == [100.0, 100.0]
    assert inst.arrival.tolist() == [0, 1, 2]


def test_validate_reports_nonpositive_length():
    with pytest.raises(InvalidInstanceError, match="task 0: length must be a finite positive number, got 0.0"):
        ProblemInstance((Task(0, 0.0, 0),), (VirtualMachine(0, 100.0),))


def test_validate_reports_empty_vm_list():
    with pytest.raises(InvalidInstanceError, match="empty VM list"):
        ProblemInstance((Task(0, 100.0, 0),), ())


@pytest.mark.parametrize("bad_id", [-1, 1.5])
def test_validate_refuses_a_task_id_that_is_not_a_nonnegative_integer(bad_id):
    message = f"task {bad_id!r}: id must be an integer >= 0, got {bad_id!r}"
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        ProblemInstance((Task(bad_id, 100.0, 0),), (VirtualMachine(0, 100.0),))


@pytest.mark.parametrize(
    "tasks, vms, message",
    [
        ((1, 2), (VirtualMachine(0, 100.0),), "tasks[0] must be a Task, got int; tasks[1] must be a Task, got int"),
        (None, (VirtualMachine(0, 100.0),), "tasks must be a sequence, got NoneType"),
        ((Task(0, 100.0, 0),), None, "vms must be a sequence, got NoneType"),
        ((Task(0, 100.0, 0),), [VirtualMachine(0, 100.0), 7], "vms[1] must be a VirtualMachine, got int"),
        (None, 5, "tasks must be a sequence, got NoneType; vms must be a sequence, got int"),
    ],
)
def test_validate_refuses_a_container_or_entry_of_the_wrong_type(tasks, vms, message):
    with pytest.raises(InvalidInstanceError, match=f"^{re.escape(message)}$"):
        ProblemInstance(tasks, vms)


def test_validate_reports_duplicate_task_ids():
    with pytest.raises(InvalidInstanceError, match="task 3: duplicate id"):
        ProblemInstance((Task(3, 100.0, 0), Task(3, 100.0, 1)), (VirtualMachine(0, 100.0),))


def test_validate_reports_bad_arrival_indexes():
    with pytest.raises(InvalidInstanceError, match="arrival_index"):
        ProblemInstance((Task(0, 100.0, 0), Task(1, 100.0, 2)), (VirtualMachine(0, 100.0),))


def test_validate_reports_vm_id_position_mismatch():
    with pytest.raises(InvalidInstanceError, match="VM at position 0 has id 1"):
        ProblemInstance((Task(0, 100.0, 0),), (VirtualMachine(1, 100.0),))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -5.0, "300", True])
def test_validate_rejects_non_finite_or_mistyped_numbers(bad):
    with pytest.raises(InvalidInstanceError, match="task 1: length"):
        ProblemInstance((Task(0, 1.0, 0), Task(1, bad, 1)), (VirtualMachine(0, 100.0),))
    with pytest.raises(InvalidInstanceError, match="VM 1: speed"):
        ProblemInstance((Task(0, 1.0, 0),), (VirtualMachine(0, 100.0), VirtualMachine(1, bad)))


def test_validate_names_every_bad_task_and_vm():
    with pytest.raises(InvalidInstanceError) as err:
        ProblemInstance(
            (Task(0, -1.0, 0), Task(1, 5.0, 1), Task(2, math.inf, 2)),
            (VirtualMachine(0, math.nan), VirtualMachine(1, 100.0), VirtualMachine(2, 0.0)),
        )
    message = str(err.value)
    for name in ("task 0:", "task 2:", "VM 0:", "VM 2:"):
        assert name in message
    assert "task 1:" not in message and "VM 1:" not in message


def test_validate_reports_empty_task_list():
    with pytest.raises(InvalidInstanceError, match="empty task list"):
        ProblemInstance((), (VirtualMachine(0, 100.0),))


@pytest.mark.parametrize(
    "lengths, speeds, cause",
    [
        ([1e308, 1e308], [0.5], "loads overflow"),  # each duration is already inf
        ([1e308, 1e308], [1.0, 2.0], "loads overflow"),  # finite durations, infinite sum on VM 0
        ([200.0, 500.0], [1e-310], "loads overflow"),
        ([1e-300, 1e-300], [1e300], "durations underflow"),
        ([1e-300, 1.0], [1.0, 1e300], "durations underflow"),  # 0 s only on the fast VM
    ],
)
def test_validate_refuses_durations_that_underflow_or_loads_that_overflow(
    make_instance, lengths, speeds, cause
):
    with pytest.raises(InvalidInstanceError, match=cause):
        make_instance(lengths, speed_mips=speeds)


def test_validate_accepts_extreme_instances_whose_every_load_is_finite_and_positive(make_instance):
    inst = make_instance([1e308, 7e307, 5e-324], n_vms=2, speed_mips=1.0)
    assert makespan(inst, Assignment((0, 0, 0))).makespan_s == 1e308 + 7e307
    assert makespan(inst, Assignment((1, 1, 0))).vm_load_s == (5e-324, 1e308 + 7e307)


def test_compiled_arrays_are_read_only(make_instance):
    inst = make_instance([200.0, 300.0])
    with pytest.raises(ValueError):
        inst.lengths[0] = 1.0


def _random_case(rng, max_vms=5):
    n = 1 + int(rng.uniform() * 12)
    m = 1 + int(rng.uniform() * max_vms)
    tasks = tuple(
        Task(i, 1.0 + rng.uniform() * 499.0, i) for i in range(n)
    )
    vms = tuple(VirtualMachine(v, 50.0 + rng.uniform() * 950.0) for v in range(m))
    vm_of = tuple(int(rng.uniform() * m) for _ in range(n))
    return ProblemInstance(tasks, vms), Assignment(vm_of)


def test_makespan_equals_max_vm_load():
    rng = SplitMix64(2024)
    for _ in range(100):
        inst, assignment = _random_case(rng)
        result = makespan(inst, assignment)
        assert result.makespan_s == max(result.vm_load_s)


def test_order_within_vm_does_not_change_makespan(make_instance):
    # Same positions and assignment, arrival order reversed: per-VM sums are
    # unchanged, so the makespan is too (up to summation rounding).
    lengths = [217.3, 481.9, 333.1, 290.7]
    forward = ProblemInstance(
        tuple(Task(i, lengths[i], i) for i in range(4)),
        (VirtualMachine(0, 100.0), VirtualMachine(1, 100.0)),
    )
    backward = ProblemInstance(
        tuple(Task(i, lengths[i], 3 - i) for i in range(4)),
        (VirtualMachine(0, 100.0), VirtualMachine(1, 100.0)),
    )
    a = Assignment((0, 0, 1, 0))
    assert math.isclose(
        makespan(forward, a).makespan_s,
        makespan(backward, a).makespan_s,
        rel_tol=1e-9,
    )


@pytest.mark.parametrize("arrival", [[0, 1, 2, 3, 4], [3, 0, 4, 1, 2]], ids=["identity", "permuted"])
def test_cells_are_c_ordered_in_arrival_order(arrival):
    # A caller rewrites cells through reshape(-1), which is a view only of a C-ordered array. Column k of the
    # cells is the task that arrives k-th: its VM index plus m times its row, and its length over that VM's speed.
    lengths, speeds = [200.0, 300.0, 500.0, 700.0, 1100.0], [100.0, 250.0, 400.0]
    inst = ProblemInstance(tuple(Task(i, lengths[i], arrival[i]) for i in range(5)),
                           tuple(VirtualMachine(v, s) for v, s in enumerate(speeds)))
    block = np.array([[0, 1, 2, 0, 1], [2, 2, 1, 0, 0]])
    keys, durations = inst.cells(block)
    assert keys.flags.c_contiguous and durations.flags.c_contiguous
    order = np.argsort(arrival)
    assert keys.tolist() == (block[:, order] + [[0], [3]]).tolist()
    assert durations.tolist() == (np.array(lengths)[order] / np.array(speeds)[block[:, order]]).tolist()


def test_scaling_lengths_scales_makespan():
    rng = SplitMix64(99)
    for _ in range(20):
        inst, assignment = _random_case(rng)
        scaled = ProblemInstance(
            tuple(Task(t.id, t.length_mi * 3.0, t.arrival_index) for t in inst.tasks),
            inst.vms,
        )
        assert math.isclose(
            makespan(scaled, assignment).makespan_s,
            3.0 * makespan(inst, assignment).makespan_s,
            rel_tol=1e-9,
        )


def test_extra_unused_vm_never_changes_makespan():
    rng = SplitMix64(321)
    for _ in range(20):
        inst, assignment = _random_case(rng)
        widened = ProblemInstance(
            inst.tasks,
            inst.vms + (VirtualMachine(len(inst.vms), 777.0),),
        )
        assert makespan(widened, assignment).makespan_s == makespan(inst, assignment).makespan_s


# read_rows names a row by its first key values, parsed then written back, so 07 and 7 are one task id.
@pytest.mark.parametrize(
    "read, text, kind, line_no, message",
    [
        (load_trace, "7,100\n7,200\n", DuplicateTaskIdError, 2, "line 2: task_id 7 already defined on line 1"),
        (load_trace, "07,100\n7,200\n", DuplicateTaskIdError, 2, "line 2: task_id 7 already defined on line 1"),
        (parse_csv, CSV_HEADER + "FCFS,4,0,1,2.0,0,0\nFCFS,4,1,2,2.0,0,0\nFCFS,4,0,1,2.0,0,0\n", TraceParseError, 4,
         "line 4: scheduler FCFS n_tasks 4 rep 0 already defined on line 2"),
        (parse_csv, CSV_HEADER + "FCFS,04,0,1,2.0,0,0\nFCFS,4,1,2,2.0,0,0\nFCFS,4,0,1,2.0,0,0\n", TraceParseError, 4,
         "line 4: scheduler FCFS n_tasks 4 rep 0 already defined on line 2"),
    ],
    ids=["trace", "trace_id_repeated_after_parsing", "csv", "csv_cell_repeated_after_parsing"],
)
def test_a_repeated_row_is_refused_naming_both_lines(read, text, kind, line_no, message):
    with pytest.raises(TraceParseError, match=rf"^{re.escape(message)}$") as err:
        read(text)
    assert type(err.value) is kind
    assert err.value.line_no == line_no
