import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from leaguesched import (
    Aggregate,
    ExperimentConfig,
    ExperimentRecord,
    LcaParams,
    SchedulerKind,
    TraceParseError,
    aggregate,
    config_from_dict,
    derive_cell_seed,
    derive_search_seed,
    emit_csv,
    emit_svg_chart,
    mix64,
    parse_csv,
    run_experiment,
)

K = SchedulerKind


def tiny_config(**overrides):
    base = dict(
        task_counts=(4, 6),
        n_vms=3,
        repetitions=2,
        lca_params=LcaParams(league_size=4, seasons=2),
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- seeds


def test_cell_seed_formula():
    assert derive_cell_seed(42, 20, 3) == mix64(42 ^ (20 << 20) ^ 3)
    assert derive_search_seed(99, 3) == mix64(99 ^ 3)


def test_cell_seeds_distinct_across_grid():
    seeds = {
        derive_cell_seed(42, n, rep) for n in range(20, 181, 20) for rep in range(9)
    }
    assert len(seeds) == 81


# ---------------------------------------------------------------- runner


def test_single_cell_single_scheduler():
    records = run_experiment(
        tiny_config(task_counts=(20,), repetitions=1, schedulers=(K.FCFS,))
    )
    assert len(records) == 1
    assert records[0].scheduler is K.FCFS
    assert records[0].evaluations == 0
    assert records[0].makespan_s > 0


def test_record_count_is_grid_size():
    records = run_experiment(tiny_config())
    assert len(records) == 4 * 2 * 2  # schedulers * task counts * repetitions


def test_runner_is_deterministic():
    config = tiny_config()
    assert run_experiment(config) == run_experiment(config)


def test_wall_time_defaults_to_zero():
    assert all(r.wall_time_ms == 0 for r in run_experiment(tiny_config()))


def test_wall_time_measured_on_request():
    config = tiny_config(
        task_counts=(30,),
        repetitions=1,
        schedulers=(K.FCFS, K.LCA),
        lca_params=LcaParams(league_size=8, seasons=40),
    )
    records = run_experiment(config, measure_wall_time=True)
    # An FCFS cell takes well under 1 ms: rounded up, it still reads as timed.
    assert all(r.wall_time_ms > 0 for r in records)


def test_workloads_are_paired_across_scheduler_subsets():
    # FCFS results must not depend on which other schedulers share the cell.
    alone = run_experiment(tiny_config(schedulers=(K.FCFS,)))
    together = [
        r
        for r in run_experiment(tiny_config())
        if r.scheduler is K.FCFS
    ]
    assert alone == together


@pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7)])
def test_numpy_master_seed_gives_the_int_seed_csv(seed):
    # A numpy scalar seed makes no overflow (pyproject turns warnings into errors).
    csv_numpy, csv_int = io.StringIO(), io.StringIO()
    emit_csv(run_experiment(tiny_config(master_seed=seed)), csv_numpy)
    emit_csv(run_experiment(tiny_config(master_seed=7)), csv_int)
    assert csv_numpy.getvalue() == csv_int.getvalue()


def test_lca_never_worse_than_cell_baselines():
    records = run_experiment(tiny_config())
    cells = {}
    for r in records:
        cells.setdefault((r.n_tasks, r.rep), {})[r.scheduler] = r.makespan_s
    for cell in cells.values():
        assert cell[K.LCA] <= min(cell[K.FCFS], cell[K.LJF], cell[K.BEF])


def test_lca_histories_reported_via_callback():
    seen = []
    run_experiment(tiny_config(), history_callback=lambda rec, h: seen.append((rec, h)))
    assert len(seen) == 4  # one per LCA record
    for record, history in seen:
        assert record.scheduler is K.LCA
        assert len(history) == 2 * 3  # seasons * (league_size - 1)
        assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize(
    "overrides",
    [
        ("task_counts", dict(task_counts=())),
        ("task_counts", dict(task_counts=(0,))),
        ("repetitions", dict(repetitions=0)),
        ("n_vms", dict(n_vms=0)),
        ("schedulers", dict(schedulers=())),
        ("length_range_mi", dict(length_range_mi=(500.0, 200.0))),
        ("vm_speed_mips", dict(vm_speed_mips=(100.0, 100.0))),  # wrong number of speeds
        ("n_vms", dict(n_vms=2.5)),
        ("task_counts", dict(task_counts=(4.5,))),
        ("length_range_mi", dict(length_range_mi=(200.0, math.inf))),
        ("length_range_mi", dict(length_range_mi=(200.0,))),
        ("vm_speed_mips", dict(vm_speed_mips=math.nan)),
        ("vm_speed_mips", dict(vm_speed_mips=(100.0, math.inf, 100.0))),
        ("repetitions", dict(repetitions=True)),
        ("master_seed", dict(master_seed=2**64)),
        ("league_size", dict(lca_params=dict(league_size="x"))),  # LcaParams kwargs
        ("task_counts", dict(task_counts=(4, 6, 4))),  # a repeat would write its cells twice
        ("schedulers", dict(schedulers=(K.FCFS, K.LCA, K.FCFS))),
        ("task_counts", dict(task_counts=(4, 10**6 + 1))),
        ("task_counts", dict(task_counts=(10**12,))),
    ],
)
def test_invalid_configs_rejected(overrides):
    field, kwargs = overrides
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        if "lca_params" in kwargs:
            kwargs = dict(kwargs, lca_params=LcaParams(**kwargs["lca_params"]))
        tiny_config(**kwargs)


def test_a_grid_takes_task_counts_up_to_the_limit():
    # Only the config is built: no grid is run.
    assert tiny_config(task_counts=(1, 10**6)).task_counts == (1, 10**6)


def test_a_search_seed_in_the_grid_config_is_refused():
    # Each LCA cell derives its search seed from master_seed, so a seed given here would be silently ignored.
    with pytest.raises(ValueError, match=r"^lca_params\.seed must be 0: search seeds derive from master_seed, got 5$"):
        tiny_config(lca_params=LcaParams(league_size=4, seasons=2, seed=5))
    with pytest.raises(ValueError, match=r"^lca_params must be an LcaParams, got \{'seed': 5\}$"):
        tiny_config(lca_params={"seed": 5})  # not an LcaParams: only its type is named


def test_per_vm_speed_list_accepted():
    records = run_experiment(
        tiny_config(vm_speed_mips=(500.0, 1000.0, 2000.0), schedulers=(K.FCFS,))
    )
    assert all(r.makespan_s > 0 for r in records)


# ---------------------------------------------------------------- aggregate


def _record(kind, n, rep, ms):
    return ExperimentRecord(kind, n, rep, seed=1, makespan_s=ms, evaluations=0, wall_time_ms=0)


def test_aggregate_single_record():
    agg = aggregate([_record(K.FCFS, 20, 0, 5.0)])
    assert agg.mean_s[(K.FCFS, 20)] == 5.0
    assert agg.grand_mean_s[K.FCFS] == 5.0


def test_aggregate_two_point_population_stddev():
    agg = aggregate([_record(K.FCFS, 20, 0, 4.0), _record(K.FCFS, 20, 1, 6.0)])
    assert agg.mean_s[(K.FCFS, 20)] == 5.0


def test_aggregate_grand_mean_of_balanced_cells():
    records = [
        _record(K.LJF, 20, 0, 5.0),
        _record(K.LJF, 40, 0, 7.0),
        _record(K.LJF, 60, 0, 9.0),
    ]
    assert aggregate(records).grand_mean_s[K.LJF] == 7.0


def test_aggregate_empty_input_rejected():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------- CSV


def test_emit_csv_header_only_for_no_records():
    sink = io.StringIO()
    n = emit_csv([], sink)
    assert sink.getvalue() == "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\n"
    assert n == len(sink.getvalue().encode())


def test_emit_csv_single_record_formatting():
    sink = io.StringIO()
    emit_csv([_record_with(wall=3)], sink)
    assert sink.getvalue().splitlines() == [
        "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms",
        "FCFS,20,0,42,5.000000,0,3",
    ]


def _record_with(wall=0):
    return ExperimentRecord(K.FCFS, 20, 0, 42, 5.0, 0, wall)


def test_emit_csv_sorts_canonically():
    records = [
        _record(K.LCA, 20, 1, 1.0),
        _record(K.FCFS, 40, 0, 2.0),
        _record(K.FCFS, 20, 1, 3.0),
        _record(K.FCFS, 20, 0, 4.0),
    ]
    sink = io.StringIO()
    emit_csv(records, sink)
    names = [line.split(",")[:3] for line in sink.getvalue().splitlines()[1:]]
    assert names == [
        ["FCFS", "20", "0"],
        ["FCFS", "20", "1"],
        ["FCFS", "40", "0"],
        ["LCA", "20", "1"],
    ]


def test_csv_round_trip():
    records = run_experiment(tiny_config())
    sink = io.StringIO()
    emit_csv(records, sink)
    parsed = parse_csv(sink.getvalue())
    assert sorted(parsed, key=lambda r: (r.scheduler, r.n_tasks, r.rep)) == sorted(
        [
            ExperimentRecord(
                r.scheduler,
                r.n_tasks,
                r.rep,
                r.seed,
                float(f"{r.makespan_s:.6f}"),
                r.evaluations,
                r.wall_time_ms,
            )
            for r in records
        ],
        key=lambda r: (r.scheduler, r.n_tasks, r.rep),
    )


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("nope,nope\n")


def test_parse_csv_skips_a_header_with_spaces_around_its_fields():
    text = "scheduler, n_tasks, rep, seed, makespan_s, evals, wall_ms\nFCFS, 20, 0, 1, 1.000000, 0, 0\n"
    assert parse_csv(text) == [ExperimentRecord(K.FCFS, 20, 0, 1, 1.0, 0, 0)]


def test_parse_csv_rejects_unknown_scheduler():
    with pytest.raises(ValueError):
        parse_csv(
            "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nRR,20,0,1,1.000000,0,0\n"
        )


def test_parse_csv_rejects_wrong_field_count():
    with pytest.raises(ValueError):
        parse_csv("scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nFCFS,20,0\n")


@pytest.mark.parametrize(
    "row, field",
    [
        ("LCA,20,0,1,nan,10,0", "makespan_s"),
        ("LCA,20,0,1,inf,10,0", "makespan_s"),
        ("LCA,20,0,1,-inf,10,0", "makespan_s"),
        ("LCA,20,0,1,0.000000,10,0", "makespan_s"),
        ("LCA,20,0,1,-1.5,10,0", "makespan_s"),
        ("LCA,20,0,1,abc,10,0", "makespan_s"),
        ("LCA,-20,0,1,1.5,10,0", "n_tasks"),
        ("LCA,0,0,1,1.5,10,0", "n_tasks"),
        ("LCA,2.5,0,1,1.5,10,0", "n_tasks"),
        ("LCA,20,-1,1,1.5,10,0", "rep"),
        ("LCA,20,0,-1,1.5,10,0", "seed"),
        ("LCA,20,0,18446744073709551616,1.5,10,0", "seed"),
        ("LCA,20,0,1,1.5,x,0", "evals"),
        ("LCA,20,0,1,1.5,10,-3", "wall_ms"),
        ("LCA,1000001,0,1,1.5,10,0", "n_tasks"),
        ("LCA,1_0,0,1,1.5,10,0", "n_tasks"),
        ("LCA,\u0662\u0660,0,1,1.5,10,0", "n_tasks"),
        ("LCA,20,0,1,1_5.0,10,0", "makespan_s"),
        ("LCA,20,0,1_0,1.5,10,0", "seed"),
    ],
)
def test_parse_csv_rejects_bad_values_naming_line_and_field(row, field):
    text = "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nFCFS,20,0,1,2.0,0,0\n" + row
    with pytest.raises(ValueError, match=rf"^line 3: {field} must be "):
        parse_csv(text)


def test_parse_csv_refuses_a_repeated_cell_naming_both_lines():
    text = "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nFCFS,4,0,1,2.0,0,0\nFCFS,4,1,2,2.0,0,0\n" \
        "FCFS,4,0,1,2.0,0,0\n"
    with pytest.raises(TraceParseError, match=r"^line 4: FCFS n_tasks 4 rep 0 already defined on line 2$"):
        parse_csv(text)


def test_parse_csv_accepts_the_largest_seed():
    (record,) = parse_csv(
        "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\n"
        "LCA,20,0,18446744073709551615,1.5,10,0\n"
    )
    assert record.seed == 2**64 - 1 and record.makespan_s == 1.5


def test_parse_csv_accepts_the_largest_task_count():
    (record,) = parse_csv("scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nLCA,1000000,0,1,1.5,10,0\n")
    assert record.n_tasks == 10**6


# ---------------------------------------------------------------- SVG


def _four_kind_aggregate():
    records = [
        _record(kind, n, rep, 1.0 + kind.value + n / 100.0 + rep / 10.0)
        for kind in K
        for n in (20, 40, 60)
        for rep in range(2)
    ]
    return aggregate(records)


def test_svg_one_polyline_per_scheduler():
    sink = io.StringIO()
    n_bytes = emit_svg_chart(_four_kind_aggregate(), sink)
    text = sink.getvalue()
    assert n_bytes == len(text.encode())
    root = ET.fromstring(text)  # well-formed XML
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 4


def test_svg_single_point_series_still_valid():
    agg = aggregate([_record(K.LJF, 20, 0, 5.0)])
    sink = io.StringIO()
    emit_svg_chart(agg, sink)
    root = ET.fromstring(sink.getvalue())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1


def test_svg_contains_axis_labels_and_legend():
    sink = io.StringIO()
    emit_svg_chart(_four_kind_aggregate(), sink)
    text = sink.getvalue()
    assert "number of tasks" in text
    assert "mean makespan" in text
    for kind in K:
        assert kind.name in text


def test_svg_refuses_a_mean_too_large_to_scale():
    # 1.7e308 * 1.08 overflows, which would put nan into every y coordinate.
    sink = io.StringIO()
    with pytest.raises(ValueError, match=r"^makespan_s must be a mean the chart can scale by 1\.08"):
        emit_svg_chart(aggregate([_record(K.FCFS, 4, 0, 1.7e308)]), sink)
    assert sink.getvalue() == ""


def test_svg_refuses_a_zero_scale():
    # A largest mean of 0.0 would divide every y coordinate by zero.
    sink = io.StringIO()
    with pytest.raises(ValueError, match=r"^makespan_s must be a mean the chart can scale by 1\.08, got 0\.0$"):
        emit_svg_chart(aggregate([_record(K.FCFS, 4, 0, 0.0)]), sink)
    assert sink.getvalue() == ""


def test_svg_refuses_an_aggregate_with_no_schedulers():
    sink = io.StringIO()
    with pytest.raises(ValueError, match="^aggregate covers no schedulers$"):
        emit_svg_chart(Aggregate(schedulers=(), task_counts=(), mean_s={}, grand_mean_s={}), sink)
    assert sink.getvalue() == ""


def test_svg_is_deterministic():
    a, b = io.StringIO(), io.StringIO()
    emit_svg_chart(_four_kind_aggregate(), a)
    emit_svg_chart(_four_kind_aggregate(), b)
    assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------- config JSON


def test_config_from_empty_dict_is_default():
    assert config_from_dict({}) == ExperimentConfig()


def test_config_from_dict_full():
    config = config_from_dict(
        {
            "task_counts": [10, 20],
            "n_vms": 4,
            "vm_speed_mips": [100.0, 200.0, 300.0, 400.0],
            "length_range_mi": [100, 200],
            "repetitions": 3,
            "schedulers": ["fcfs", "LCA"],
            "lca_params": {"league_size": 6, "seasons": 2, "seed_with_baselines": False},
            "master_seed": 123,
        }
    )
    assert config.task_counts == (10, 20)
    assert config.schedulers == (K.FCFS, K.LCA)
    assert config.vm_speed_mips == (100.0, 200.0, 300.0, 400.0)
    assert config.lca_params.league_size == 6
    assert not config.lca_params.seed_with_baselines
    assert config.master_seed == 123


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_dict({"task_count": [10]})
    with pytest.raises(ValueError):
        config_from_dict({"lca_params": {"teams": 8}})


def test_config_rejects_unknown_scheduler_names():
    with pytest.raises(ValueError):
        config_from_dict({"schedulers": ["fcfs", "rr"]})


def test_config_rejects_non_object():
    with pytest.raises(ValueError):
        config_from_dict([1, 2, 3])
