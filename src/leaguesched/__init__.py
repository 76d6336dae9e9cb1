"""Task scheduling onto VM fleets with a league-championship metaheuristic.

Public surface: the problem model and makespan objective, synthetic/trace
workloads, the FCFS/LJF/BEF greedy baselines, league search runs, a
brute-force oracle for small instances, and the benchmark experiment runner.
The engine's internals (League, fixtures, match play, formation updates) live
in leaguesched.lca and are not part of it.
"""

from .baselines import SchedulerKind, bef, fcfs, ljf
from .experiment import (
    Aggregate,
    ExperimentConfig,
    ExperimentRecord,
    aggregate,
    config_from_dict,
    derive_cell_seed,
    derive_search_seed,
    emit_csv,
    emit_svg_chart,
    parse_csv,
    run_experiment,
)
from .lca import LcaParams, RunResult, decode, encode, run
from .model import (
    Assignment,
    InvalidAssignmentError,
    InvalidInstanceError,
    ProblemInstance,
    ScheduleResult,
    Task,
    VirtualMachine,
    makespan,
)
from .oracle import brute_force_optimum, lower_bound
from .rng import SplitMix64, mix64
from .workload import (
    DuplicateTaskIdError,
    TraceParseError,
    WorkloadSpec,
    dump_trace,
    generate_synthetic,
    load_trace,
)

__all__ = [
    "Aggregate",
    "Assignment",
    "DuplicateTaskIdError",
    "ExperimentConfig",
    "ExperimentRecord",
    "InvalidAssignmentError",
    "InvalidInstanceError",
    "LcaParams",
    "ProblemInstance",
    "RunResult",
    "ScheduleResult",
    "SchedulerKind",
    "SplitMix64",
    "Task",
    "TraceParseError",
    "VirtualMachine",
    "WorkloadSpec",
    "aggregate",
    "bef",
    "brute_force_optimum",
    "config_from_dict",
    "decode",
    "derive_cell_seed",
    "derive_search_seed",
    "dump_trace",
    "emit_csv",
    "emit_svg_chart",
    "encode",
    "fcfs",
    "generate_synthetic",
    "ljf",
    "load_trace",
    "lower_bound",
    "makespan",
    "mix64",
    "parse_csv",
    "run",
    "run_experiment",
]
