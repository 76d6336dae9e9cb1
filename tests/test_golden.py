"""Fast byte pins on the canonical CSV, a few seconds instead of the full grid.

The unequal-speed grid matters as much as the equal one: there the league
search improves on its LJF seed in every cell, so a fitness bug shows in the
bytes, while on equal speeds the search never leaves that seed.
"""

import hashlib
import io

import pytest

from leaguesched import config_from_dict, emit_csv, run_experiment

PINS = [
    (
        {"task_counts": [20, 100, 180], "repetitions": 2, "lca_params": {"seasons": 10}},
        "53d39f134af1f24558687cc351470171b38c541be15ce0ef1a7284cd33ebcaed",
    ),
    (
        {
            "task_counts": [30, 90],
            "n_vms": 5,
            "vm_speed_mips": [500.0, 750.0, 1000.0, 1500.0, 2000.0],
            "length_range_mi": [100.0, 1000.0],
            "repetitions": 2,
            "lca_params": {"seasons": 10},
        },
        "e68c464911f56d83972d16eb045295bd01a29b23fca3f425de39413ff68d13be",
    ),
]


@pytest.mark.parametrize("config, sha256", PINS, ids=["equal_speeds", "unequal_speeds"])
def test_small_grid_csv_is_pinned(config, sha256):
    sink = io.StringIO()
    emit_csv(run_experiment(config_from_dict(config)), sink)
    assert hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest() == sha256
