import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leaguesched
from leaguesched import LcaParams, load_trace, parse_csv
from leaguesched.cli import dispatch
from leaguesched.model import VM_LIMIT

TINY_BENCH = {
    "task_counts": [4, 6],
    "n_vms": 3,
    "repetitions": 2,
    "lca_params": {"league_size": 4, "seasons": 2},
    "master_seed": 7,
}


def write_trace(path, rows):
    path.write_text("task_id,length_mi\n" + "".join(f"{i},{l}\n" for i, l in rows))


# ---------------------------------------------------------------- generate


def test_generate_writes_parseable_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert dispatch(["generate", "--n", "12", "--seed", "3", "--out", str(out)]) == 0
    tasks = load_trace(out.read_text())
    assert len(tasks) == 12
    assert all(200.0 <= t.length_mi <= 500.0 for t in tasks)


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dispatch(["generate", "--n", "9", "--seed", "11", "--out", str(a)])
    dispatch(["generate", "--n", "9", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_to_stdout(capsys):
    assert dispatch(["generate", "--n", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("task_id,length_mi\n")
    assert len(load_trace(out)) == 3


def test_generate_rejects_bad_count(tmp_path, capsys):
    assert dispatch(["generate", "--n", "0", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--n", "3", "--seed", str(2**64)], "seed must be a 64-bit unsigned integer"),
        (["generate", "--n", "3", "--seed", "1", "--min-mi", "nan"], "length_min_mi must be"),
        (["bench", "--seed", "-1"], "master_seed must be a 64-bit unsigned integer"),
        (["generate", "--n", str(10**12), "--seed", "1"], "n_tasks must be an integer >= 1 and <= 1000000"),
    ],
    ids=["generate_seed", "generate_nan_length", "bench_master_seed", "generate_a_trillion_tasks"],
)
def test_out_of_range_flags_are_refused_by_name(capsys, argv, message):
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, flag, kind, text",
    [
        (["generate", "--n", "abc", "--seed", "3"], "--n", "int", "abc"),
        (["generate", "--n", "1_2", "--seed", "3"], "--n", "int", "1_2"),
        (["generate", "--n", "١٢", "--seed", "3"], "--n", "int", "١٢"),
        (["generate", "--n", "3", "--seed", "1_0"], "--seed", "int", "1_0"),
        (["generate", "--n", "3", "--seed", "١"], "--seed", "int", "١"),
        (["generate", "--n", "3", "--seed", "3", "--min-mi", "1_0"], "--min-mi", "float", "1_0"),
        (["generate", "--n", "3", "--seed", "3", "--max-mi", "2_0"], "--max-mi", "float", "2_0"),
        (["generate", "--n", "3", "--seed", "3", "--max-mi", "５００"], "--max-mi", "float", "５００"),
        (["schedule", "--trace", "t.csv", "--algo", "ljf", "--vms", "1_0"], "--vms", "int", "1_0"),
        (["schedule", "--trace", "t.csv", "--algo", "ljf", "--vms", "2", "--vm-mips", "١٠٠٠"],
         "--vm-mips", "float", "١٠٠٠"),
        (["schedule", "--trace", "t.csv", "--algo", "lca", "--vms", "2", "--seed", "1_0"], "--seed", "int", "1_0"),
        (["bench", "--seed", "1_0"], "--seed", "int", "1_0"),
    ],
    ids=["n_abc", "underscored_n", "arabic_indic_n", "underscored_generate_seed", "arabic_indic_generate_seed",
         "underscored_min_mi", "underscored_max_mi", "full_width_max_mi", "underscored_vms",
         "arabic_indic_vm_mips", "underscored_schedule_seed", "underscored_bench_seed"],
)
def test_numeric_flags_refuse_numerals_no_writer_writes_as_usage_errors(tmp_path, monkeypatch, capsys,
                                                                       argv, flag, kind, text):
    monkeypatch.chdir(tmp_path)
    if argv[0] != "schedule":
        argv = argv + ["--out", "out.csv"]
    assert dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {flag}: invalid {kind} value: '{text}'\n")
    assert list(tmp_path.iterdir()) == []


def test_numeric_flags_take_plain_numerals(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    argv = ["generate", "--n", "12", "--seed", "3", "--min-mi", "1e2", "--max-mi", "2.5e2", "--out", str(trace)]
    assert dispatch(argv) == 0
    tasks = load_trace(trace.read_text())
    assert len(tasks) == 12 and all(100.0 <= t.length_mi <= 250.0 for t in tasks)
    argv = ["schedule", "--trace", str(trace), "--vms", "3", "--vm-mips", "1000.0", "--algo", "lca", "--seed", "7"]
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.startswith("makespan: ")


# ---------------------------------------------------------------- schedule


def test_schedule_single_vm_total(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_trace(trace, [(0, 200), (1, 300), (2, 500)])
    code = dispatch(["schedule", "--trace", str(trace), "--vms", "1", "--algo", "fcfs"])
    assert code == 0
    assert capsys.readouterr().out == "makespan: 1.000000 s\n"


def test_schedule_json_output(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_trace(trace, [(0, 200), (1, 300), (2, 500)])
    code = dispatch(
        ["schedule", "--trace", str(trace), "--vms", "2", "--algo", "ljf", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "ljf"
    assert payload["makespan_s"] == 0.5
    assert sorted(payload["vm_load_s"]) == [0.5, 0.5]


def test_schedule_lca_runs(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_trace(trace, [(0, 200), (1, 300), (2, 500), (3, 400)])
    code = dispatch(
        ["schedule", "--trace", str(trace), "--vms", "2", "--algo", "lca", "--seed", "5", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["makespan_s"] == 0.7  # optimal split of 1400 MI over two VMs


def test_schedule_reads_a_trace_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheet tools save UTF-8 with a BOM; it is not part of the first column's name.
    trace = tmp_path / "t.csv"
    write_trace(trace, [(0, 200), (1, 300), (2, 500)])
    trace.write_text("\ufeff" + trace.read_text(), encoding="utf-8")
    assert dispatch(["schedule", "--trace", str(trace), "--vms", "1", "--algo", "fcfs"]) == 0
    assert capsys.readouterr().out == "makespan: 1.000000 s\n"


def test_schedule_unknown_algo_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    write_trace(trace, [(0, 200)])
    assert dispatch(["schedule", "--trace", str(trace), "--vms", "1", "--algo", "nosuch"]) == 1
    assert "usage" in capsys.readouterr().err


def test_schedule_missing_trace_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert dispatch(["schedule", "--trace", str(missing), "--vms", "1", "--algo", "fcfs"]) == 2
    assert "error:" in capsys.readouterr().err


def test_schedule_malformed_trace(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("0,-5\n")
    assert dispatch(["schedule", "--trace", str(trace), "--vms", "1", "--algo", "fcfs"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize(
    "rows, extra, fragment",
    [
        ([(0, 200), (1, "inf")], [], "line 3: length_mi must be a finite positive number, got 'inf'"),
        ([(0, 200), (1, 300)], ["--vm-mips", "-5"], "vm_mips must be a finite positive number, got -5.0"),
        ([(0, 200), (1, 300)], ["--vm-mips", "nan"], "vm_mips must be a finite positive number, got nan"),
        ([], [], "empty task list"),
        ([(0, 200)], ["--vms", "0"], "vms must be an integer >= 1, got 0"),
        ([(0, 200)], ["--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
        ([(0, 1e308), (1, 1e308)], ["--vms", "1", "--vm-mips", "0.5"], "loads overflow"),
        ([(0, 1e308), (1, 1e308)], ["--vms", "1", "--vm-mips", "0.5", "--algo", "lca"], "loads overflow"),
        ([(0, 1e-300), (1, 1e-300)], ["--vm-mips", "1e300"], "durations underflow"),
        ([(0, 200)], ["--vms", "-3"], "vms must be an integer >= 1, got -3"),
        ([(0, 200)], ["--vms", "20000", "--vm-mips", "nan"], "vm_mips must be a finite positive number, got nan"),
        ([("1_0", 200)], [], "line 2: task_id must be a nonnegative integer, got '1_0'"),
    ],
    ids=["inf_trace", "negative_mips", "nan_mips", "empty_trace", "no_vms", "negative_seed",
         "overflowing_loads", "overflowing_loads_lca", "underflowing_durations", "negative_vms", "nan_mips_many_vms",
         "underscored_task_id"],
)
def test_schedule_rejects_bad_input_without_traceback(tmp_path, capsys, rows, extra, fragment):
    trace = tmp_path / "t.csv"
    write_trace(trace, rows)
    argv = ["schedule", "--trace", str(trace), "--vms", "2", "--algo", "fcfs"] + extra
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 200  # one short line, however many VMs


@pytest.mark.parametrize("vms, fragment", [
    (VM_LIMIT, "nope.csv"),
    (VM_LIMIT + 1, f"vms must be at most {VM_LIMIT}, got {VM_LIMIT + 1}"),
], ids=["at_the_limit", "past_the_limit"])
def test_schedule_checks_the_vm_count_before_reading_the_trace(tmp_path, capsys, vms, fragment):
    # The trace is missing: a count within the limit fails on the trace, one past it on vms; no fleet is built.
    assert dispatch(["schedule", "--trace", str(tmp_path / "nope.csv"), "--vms", str(vms), "--algo", "ljf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
    assert ("vms must be" in err) == (vms > VM_LIMIT)


def test_bench_config_takes_n_vms_up_to_the_limit(tmp_path, capsys):
    # n_vms at the limit passes; the zero repetitions beside it refuse the config before any VM is built.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_BENCH, "n_vms": VM_LIMIT, "repetitions": 0}))
    assert dispatch(["bench", "--config", str(config), "--out", str(tmp_path / "results.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: repetitions must be an integer >= 1, got 0\n"


# ---------------------------------------------------------------- usage


def test_no_arguments_is_usage_error():
    assert dispatch([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_help_exits_cleanly(capsys):
    assert dispatch(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


# ---------------------------------------------------------------- bench/plot


def test_bench_tiny_grid(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    out = tmp_path / "results.csv"
    svg = tmp_path / "chart.svg"
    code = dispatch(
        ["bench", "--config", str(config), "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4 * 2 * 2
    records = parse_csv(out.read_text())
    assert len(records) == 16
    assert svg.read_text().startswith("<svg")


def test_bench_is_byte_reproducible(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dispatch(["bench", "--config", str(config), "--out", str(a)])
    dispatch(["bench", "--config", str(config), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_seed_override_changes_results(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    dispatch(["bench", "--config", str(config), "--out", str(a)])
    dispatch(["bench", "--config", str(config), "--out", str(b), "--seed", "988"])
    assert a.read_bytes() != b.read_bytes()


def test_bench_matches_library_output(tmp_path):
    import io

    from leaguesched import config_from_dict, emit_csv, run_experiment

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_BENCH))
    out = tmp_path / "cli.csv"
    dispatch(["bench", "--config", str(config_path), "--out", str(out)])
    sink = io.StringIO()
    emit_csv(run_experiment(config_from_dict(TINY_BENCH)), sink)
    assert out.read_text() == sink.getvalue()


def test_bench_reads_a_config_that_starts_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(TINY_BENCH))
    marked.write_text("\ufeff" + json.dumps(TINY_BENCH), encoding="utf-8")
    for config in (plain, marked):
        assert dispatch(["bench", "--config", str(config), "--out", str(tmp_path / f"{config.stem}.csv")]) == 0
    assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_bench_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [4]}))
    assert dispatch(["bench", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n_vms": 2, "n_vms": 3}', "n_vms"),
        ('{"lca_params": {"seasons": 1, "league_size": 4, "seasons": 2}}', "seasons"),
        ('{"n_vms": 2, "lca_params": {}, "lca_params": {"seasons": 1}}', "lca_params"),
    ],
    ids=["top_level", "in_lca_params", "lca_params_itself"],
)
def test_bench_refuses_a_repeated_config_key_by_name(tmp_path, capsys, text, field):
    # json.loads alone keeps the last of a repeated key, so the config would run with a value the file also
    # contradicts.
    config, out = tmp_path / "config.json", tmp_path / "results.csv"
    config.write_text(text)
    assert dispatch(["bench", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {field} must be given once, got 2 values\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "Expecting property name"),
        ("[" * 100_000, "config must nest"),
        ('{"task_counts": ' + "[" * 990 + "]" * 990 + "}", "config must nest"),  # a 2 KB file
    ],
    ids=["not_json", "deep_top_level", "deep_task_counts"],
)
def test_bench_rejects_malformed_json(tmp_path, capsys, text, fragment):
    # json parses nesting by recursion, so a deep enough file raises RecursionError, refused where it is parsed.
    config, out = tmp_path / "config.json", tmp_path / "results.csv"
    config.write_text(text)
    assert dispatch(["bench", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"n_vms": 2.5}, "n_vms"),
        ({"lca_params": {"league_size": "x"}}, "league_size"),
        ({"length_range_mi": [200, math.inf]}, "length_range_mi"),
        ({"vm_speed_mips": math.inf}, "vm_speed_mips"),
        ({"schedulers": 5}, "schedulers"),
        ({"lca_params": {"seed": 999}}, "lca_params.seed"),
        ({"task_counts": [4, 4]}, "task_counts"),
        ({"schedulers": ["fcfs", "FCFS"]}, "schedulers"),
        ({"lca_params": {"league_size": 4097}}, "league_size"),
        ({"lca_params": {"league_size": 10**12}}, "league_size"),
        ({"lca_params": {"league_size": 6, "seasons": 3, "w1": 1e308, "w2": 1e308, "swap_probability": 0.0}}, "w1"),
        ({"task_counts": [10**6 + 1]}, "task_counts"),
        ({"task_counts": [10**12]}, "task_counts"),
        ({"n_vms": VM_LIMIT + 1}, "n_vms"),
        ({"n_vms": 10**12}, "n_vms"),
    ],
    ids=["fractional_n_vms", "string_league_size", "infinite_length", "infinite_speed",
         "scalar_schedulers", "ignored_search_seed", "repeated_task_count", "repeated_scheduler",
         "league_past_one_plan", "league_of_a_trillion", "weights_past_their_bound", "tasks_past_the_limit",
         "a_trillion_tasks", "vms_past_the_limit", "a_trillion_vms"],
)
def test_bench_rejects_mistyped_or_non_finite_config(tmp_path, capsys, bad, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_BENCH, **bad}))  # json writes math.inf as Infinity
    out = tmp_path / "results.csv"
    assert dispatch(["bench", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ({"vm_speed_mips": 1e-310}, "loads overflow"),
        ({"length_range_mi": [1e-300, 1e-300], "vm_speed_mips": 1e300}, "durations underflow"),
        ({"length_range_mi": [1e-7, 1e-7], "n_vms": 2},
         "makespan_s must be a finite positive number, got '0.000000'"),
        ({"task_counts": [2], "n_vms": 1, "vm_speed_mips": 1.0, "length_range_mi": [0.85e308, 0.85e308],
          "repetitions": 1, "schedulers": ["fcfs"]},
         "makespan_s must be a mean the chart can scale by 1.08, got 1.7e+308"),
    ],
    ids=["overflowing_loads", "underflowing_durations", "makespan_prints_as_zero", "chart_scale_overflows"],
)
def test_bench_refuses_grids_it_cannot_write_faithfully(tmp_path, capsys, bad, fragment):
    # Unrefused, these would write inf or 0.000000 makespans, divide by zero in the chart,
    # or fill the chart with nan coordinates.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_BENCH, **bad}))
    out, svg = tmp_path / "results.csv", tmp_path / "chart.svg"
    assert dispatch(["bench", "--config", str(config), "--out", str(out), "--svg", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not svg.exists()


EXTREME_FLOATS = [5e-324, 1e-300, 1e300, 1e308, sys.float_info.max]


@pytest.mark.parametrize("value", EXTREME_FLOATS, ids=["min_subnormal", "1e-300", "1e300", "1e308", "max"])
@pytest.mark.parametrize("make", [
    lambda x: {"w1": x},
    lambda x: {"w2": x},
    lambda x: {"w1": x, "w2": x},
    lambda x: {"change_probability": x},
    lambda x: {"swap_probability": x},
    lambda x: {"vm_speed_mips": x},
    lambda x: {"vm_speed_mips": [x, x, x]},
    lambda x: {"length_range_mi": [x, x]},
], ids=["w1", "w2", "both_weights", "change_probability", "swap_probability", "vm_speed_mips",
        "vm_speed_mips_list", "length_range_mi"])
def test_bench_takes_or_refuses_extreme_finite_values_cleanly(tmp_path, capsys, make, value):
    # Warnings are errors under pytest, so an overflow or invalid-value RuntimeWarning fails the case too.
    fields = make(value)
    search = {name: fields.pop(name) for name in list(fields) if name in LcaParams.__dataclass_fields__}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task_counts": [7], "n_vms": 3, "repetitions": 1, **fields,
                                  "lca_params": {"league_size": 4, "seasons": 2, **search}}))
    code = dispatch(["bench", "--config", str(config), "--out", str(tmp_path / "results.csv")])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or (err.startswith("error: ") and err.count("\n") == 1)


@pytest.mark.parametrize("command", ["bench", "plot"])
def test_refused_command_leaves_an_existing_out_file_unchanged(tmp_path, capsys, command):
    out = tmp_path / "existing.out"
    out.write_bytes(b"earlier output\r\n")
    if command == "bench":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_BENCH, "length_range_mi": [1e-7, 1e-7], "n_vms": 2}))
        argv = ["bench", "--config", str(config), "--out", str(out)]
    else:
        csv_path = tmp_path / "results.csv"
        csv_path.write_text("scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\nFCFS,4,0,1,1.7e308,0,0\n")
        argv = ["plot", "--csv", str(csv_path), "--out", str(out)]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"earlier output\r\n"


@pytest.mark.parametrize("svg", ["nodir/x.svg", "."], ids=["missing_directory", "a_directory"])
def test_a_command_refused_at_its_last_output_writes_none(tmp_path, capsys, svg):
    # The chart's directory is missing, or the chart's path is a directory, so bench is refused after rendering
    # both outputs: the CSV is not written, an existing one keeps its bytes, and no staged file is left behind.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    out = tmp_path / "out.csv"
    argv = ["bench", "--config", str(config), "--out", str(out), "--svg", str(tmp_path / svg)]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]
    out.write_bytes(b"earlier output\r\n")
    assert dispatch(argv) == 2
    assert out.read_bytes() == b"earlier output\r\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "out.csv"]


def test_outputs_through_a_symlink_or_to_a_device_keep_their_path(tmp_path, capsys):
    # A staged file replaces the symlink's target, not the symlink; a path that is no regular file is written
    # in place, never replaced.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    (tmp_path / "target.csv").write_text("earlier output\n")
    (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
    argv = ["bench", "--config", str(config), "--out", str(tmp_path / "link.csv"), "--svg", os.devnull]
    assert dispatch(argv) == 0
    assert (tmp_path / "link.csv").is_symlink() and Path(os.devnull).is_char_device()
    assert len(parse_csv((tmp_path / "target.csv").read_text())) == 16
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "link.csv", "target.csv"]


@pytest.mark.parametrize("module", ["leaguesched", "leaguesched.cli"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    src = str(Path(leaguesched.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def python_m(*args):
        argv = [sys.executable, "-m", module, *args]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)

    out = tmp_path / "trace.csv"
    done = python_m("generate", "--n", "4", "--seed", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert len(load_trace(out.read_text())) == 4
    refused = python_m("generate", "--n", "0", "--seed", "2")
    assert refused.returncode == 2 and refused.stderr.startswith("error: ")


def test_plot_from_csv(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    csv_path = tmp_path / "results.csv"
    dispatch(["bench", "--config", str(config), "--out", str(csv_path)])
    svg_path = tmp_path / "chart.svg"
    assert dispatch(["plot", "--csv", str(csv_path), "--out", str(svg_path)]) == 0
    assert "<svg" in svg_path.read_text()


def test_plot_reads_a_csv_that_starts_with_a_byte_order_mark(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_BENCH))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    dispatch(["bench", "--config", str(config), "--out", str(plain)])
    marked.write_text("\ufeff" + plain.read_text(), encoding="utf-8")
    for csv_path in (plain, marked):
        assert dispatch(["plot", "--csv", str(csv_path), "--out", str(tmp_path / f"{csv_path.stem}.svg")]) == 0
    assert (tmp_path / "marked.svg").read_bytes() == (tmp_path / "plain.svg").read_bytes()


def test_plot_missing_csv(tmp_path):
    assert dispatch(["plot", "--csv", str(tmp_path / "no.csv"), "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("LCA,20,0,1,nan,10,0", "line 3: makespan_s must be a finite positive number, got 'nan'"),
        ("LCA,20,0,1,inf,10,0", "line 3: makespan_s must be a finite positive number, got 'inf'"),
        ("LCA,20,0,1,0.000000,10,0", "line 3: makespan_s must be a finite positive number"),
        ("LCA,20,0,1,-1.500000,10,0", "line 3: makespan_s must be a finite positive number"),
        ("LCA,-20,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1 and <= 1000000, got '-20'"),
        ("LCA,2.5,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1 and <= 1000000, got '2.5'"),
        ("LCA,20,0,1,1.7e308,10,0", "makespan_s must be a mean the chart can scale by 1.08, got 1.7e+308"),
        ("FCFS,4,0,1,1.0e308,0,0\nFCFS,4,1,1,1.0e308,0,0",
         "makespan_s must be values whose sum per cell and per scheduler stays finite, got 1e+308"),
        ("LCA,1000001,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1 and <= 1000000, got '1000001'"),
        ("LCA,1" + "0" * 400 + ",0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1 and <= 1000000"),
        ("LCA,1_000,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1 and <= 1000000, got '1_000'"),
        ("LCA,20,0,1,1.5_0,10,0", "line 3: makespan_s must be a finite positive number, got '1.5_0'"),
    ],
    ids=["nan_makespan", "inf_makespan", "zero_makespan", "negative_makespan",
         "negative_n_tasks", "fractional_n_tasks", "chart_scale_overflows", "cell_sum_overflows",
         "n_tasks_past_the_limit", "n_tasks_of_401_digits", "underscored_n_tasks", "underscored_makespan"],
)
def test_plot_rejects_bad_rows_without_traceback(tmp_path, capsys, row, fragment):
    csv_path = tmp_path / "results.csv"
    csv_path.write_text(
        "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms\n"
        "FCFS,20,0,1,2.000000,0,0\n" + row + "\n"
    )
    svg_path = tmp_path / "chart.svg"
    assert dispatch(["plot", "--csv", str(csv_path), "--out", str(svg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert "Traceback" not in captured.err
    assert not svg_path.exists()
