import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leaguesched
from leaguesched import load_trace, parse_csv
from leaguesched.cli import dispatch

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
        ([(0, 200), (1, "inf")], [], "line 3: non-finite length inf"),
        ([(0, 200), (1, 300)], ["--vm-mips", "-5"], "VM 0: speed must be finite and positive"),
        ([(0, 200), (1, 300)], ["--vm-mips", "nan"], "VM 0: speed must be finite and positive"),
        ([], [], "empty task list"),
        ([(0, 200)], ["--vms", "0"], "empty VM list"),
    ],
    ids=["inf_trace", "negative_mips", "nan_mips", "empty_trace", "no_vms"],
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


def test_bench_rejects_unknown_config_keys(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tasks": [4]}))
    assert dispatch(["bench", "--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_bench_rejects_malformed_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert dispatch(["bench", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"n_vms": 2.5}, "n_vms"),
        ({"lca_params": {"league_size": "x"}}, "league_size"),
        ({"length_range_mi": [200, math.inf]}, "length_range_mi"),
        ({"vm_speed_mips": math.inf}, "vm_speed_mips"),
    ],
    ids=["fractional_n_vms", "string_league_size", "infinite_length", "infinite_speed"],
)
def test_bench_rejects_mistyped_or_non_finite_config(tmp_path, capsys, bad, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_BENCH, **bad}))  # json writes math.inf as Infinity
    out = tmp_path / "results.csv"
    assert dispatch(["bench", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_plot_missing_csv(tmp_path):
    assert dispatch(["plot", "--csv", str(tmp_path / "no.csv"), "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("LCA,20,0,1,nan,10,0", "line 3: makespan_s must be a finite positive number, got 'nan'"),
        ("LCA,20,0,1,inf,10,0", "line 3: makespan_s must be a finite positive number, got 'inf'"),
        ("LCA,20,0,1,0.000000,10,0", "line 3: makespan_s must be a finite positive number"),
        ("LCA,20,0,1,-1.500000,10,0", "line 3: makespan_s must be a finite positive number"),
        ("LCA,-20,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1, got '-20'"),
        ("LCA,2.5,0,1,1.500000,10,0", "line 3: n_tasks must be an integer >= 1, got '2.5'"),
    ],
    ids=["nan_makespan", "inf_makespan", "zero_makespan", "negative_makespan",
         "negative_n_tasks", "fractional_n_tasks"],
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
