"""Tests of the benchmark itself:

    python3 -m pytest perfbench
"""
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_slimlat()

import workloads  # noqa: E402
from slimlat import grid, perm  # noqa: E402
from slimlat.perm import Permutation  # noqa: E402
from spans import NULL_TRACER, Tally, Tracer, timed  # noqa: E402


def small_classify_batch(wrong_count: bool) -> workloads.ClassifyBatch:
    p = Permutation((2, 3, 1))
    lat = grid.phi0(p).lattice
    expected = len(perm.rho_class(p)) + (1 if wrong_count else 0)
    return workloads.ClassifyBatch(
        indec=[(p, lat, expected)],
        iso=[(lat, grid.phi0(p.inverse()).lattice, True)],
        groups=[p],
        count=(5, workloads.CLASS_COUNTS[5]),
    )


@pytest.mark.parametrize("traced", [False, True])
def test_classify_counts_a_wrong_expected_answer(traced):
    for wrong, failures in ((False, 0), (True, 1)):
        tally = Tally()
        tracer = Tracer() if traced else NULL_TRACER
        workloads.ClassifyMid().run_round(small_classify_batch(wrong), tracer, tally,
                                          defaultdict(list))
        assert (tally.attempted, tally.failed) == (4, failures)


def test_build_counts_a_wrong_expected_size():
    p = Permutation((2, 4, 1, 3, 5))
    blocks = grid.beta_from_formula(grid.Grid(5), p).num_blocks
    for expected, attempted, failed in ((blocks, 2, 0), (blocks + 1, 1, 1)):
        tally = Tally()
        workloads.BuildLarge().run_round([(p, expected)], NULL_TRACER, tally, defaultdict(list))
        assert (tally.attempted, tally.failed) == (attempted, failed)


def test_build_replay_checks_and_records_every_layer_it_reaches():
    p = Permutation((3, 1, 4, 2))
    blocks = grid.beta_from_formula(grid.Grid(4), p).num_blocks
    tracer, tally = Tracer(), Tally()
    workloads.BuildLarge().replay([[(p, blocks)]], tracer, tally, defaultdict(list))
    assert (tally.attempted, tally.failed) == (1, 0)
    assert {"grid.closure", "grid.quotient", "grid.heuristic_layout",
            "lattice.diagram_from_json", "extract.pi1", "extract.pi2",
            "extract.pi3"} <= set(tracer.totals())
    assert tracer.counters["grid.blocks"] == blocks


def test_an_exception_counts_as_a_failure():
    tally = Tally()
    timed(tally, "divide", lambda: 1 // 0, 0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ZeroDivisionError" in tally.failures[0]


def test_inputs_depend_on_the_seed_alone():
    build = workloads.BuildLarge()
    first = build.prepare(5, 0, NULL_TRACER, Tally())
    assert build.prepare(5, 0, NULL_TRACER, Tally()) == first
    assert build.prepare(6, 0, NULL_TRACER, Tally()) != first


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "test_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
