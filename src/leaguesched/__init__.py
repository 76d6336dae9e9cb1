"""Task scheduling onto VM fleets with a league-championship metaheuristic.

Public surface: the problem model and makespan objective, synthetic/trace
workloads, the FCFS/LJF/BEF greedy baselines, the league search engine, a
brute-force oracle for small instances, and the benchmark experiment runner.
"""

from .baselines import SchedulerKind, bef, fcfs, greedy_earliest_vm, ljf
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
from .lca import (
    LcaParams,
    League,
    RunResult,
    decode,
    encode,
    init_league,
    play_match,
    round_robin,
    run,
    season_fixtures,
    update_formation,
    win_probability,
)
from .model import (
    Assignment,
    InvalidAssignmentError,
    InvalidInstanceError,
    ProblemInstance,
    ScheduleResult,
    Task,
    VirtualMachine,
    makespan,
    vm_loads,
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
    "League",
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
    "greedy_earliest_vm",
    "init_league",
    "ljf",
    "load_trace",
    "lower_bound",
    "makespan",
    "mix64",
    "parse_csv",
    "play_match",
    "round_robin",
    "run",
    "run_experiment",
    "season_fixtures",
    "update_formation",
    "vm_loads",
    "win_probability",
]
