"""Tests of the benchmark itself: checks, span accounting, seeds, contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tracing
from tracing import ROOT as TRACE_ROOT
from tracing import Tracer, installed
from worker import Run, layer_metrics
from workloads import (
    STREAM_VARIANTS,
    FaultedMixedStream,
    LayoutSearch,
    Table4Sweep,
    ZipfStream,
)

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _short(cls, seed: int, packets: int):
    """A stream workload shortened to ``packets`` for a quick test."""
    workload = cls(seed=seed, expected={})
    workload.spec = workload.spec.with_(packets=packets, warmup_packets=packets // 2)
    return workload


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


# --------------------------------------------------------------------- #
# output checks                                                         #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def serial_sweep():
    workload = Table4Sweep(seed=0)
    workload.setup()
    workload.prepare()
    return workload.run(serial=True)


def test_table4_sweep_matches_committed_goldens(serial_sweep):
    run = Run(Table4Sweep(seed=0))
    run.record(serial_sweep, 1.0)
    assert (run.attempted, run.failed) == (1, 0)


def test_wrong_expected_value_is_a_failed_operation(serial_sweep):
    good = Table4Sweep(seed=0).expected_digest()
    wrong = dict(good, rpc=good["rpc"].replace("399.2", "399.3", 1))
    run = Run(Table4Sweep(seed=0, expected={"42": wrong}))
    run.record(serial_sweep, 1.0)
    run.record(serial_sweep, 1.0)
    assert (run.attempted, run.failed) == (2, 2)


def test_wrong_stream_expectation_is_a_failed_operation():
    workload = _short(ZipfStream, 1, 4_000)
    workload.setup()
    out = workload.run()
    digest = json.loads(json.dumps(workload.digest(out)))
    workload.expected = {workload.key: digest}
    run = Run(workload)
    run.record(out, 1.0)
    assert run.failed == 0
    wrong = dict(digest, novel_passes=digest["novel_passes"] + 1)
    workload.expected = {workload.key: wrong}
    run.record(out, 1.0)
    assert (run.attempted, run.failed) == (2, 1)


def test_unrecorded_inputs_fail_rather_than_pass():
    workload = _short(ZipfStream, 1, 4_000)
    assert workload.check(object()) != []


# --------------------------------------------------------------------- #
# span accounting                                                       #
# --------------------------------------------------------------------- #


def _assert_spans_nest_and_sum(tracer: Tracer) -> None:
    layers = {layer for layer, _ in tracer.table}
    for layer, parent in tracer.table:
        if layer == TRACE_ROOT:
            assert parent is None
        else:
            assert parent in layers, (layer, parent)
    self_total = sum(rec[2] for rec in tracer.table.values())
    assert self_total == pytest.approx(tracer.wall, rel=1e-9, abs=1e-9)
    for (layer, _), rec in tracer.table.items():
        assert 0.0 <= rec[2] <= rec[1] + 1e-12


def test_synthetic_spans_nest_and_self_times_sum_to_wall():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.002))

    def outer_body():
        _spin(0.001)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    with tracer.root():
        outer()
        inner()
        _spin(0.001)
    _assert_spans_nest_and_sum(tracer)
    assert tracer.calls("inner") == 3
    assert set(tracer.table) == {
        (TRACE_ROOT, None),
        ("outer", TRACE_ROOT),
        ("inner", "outer"),
        ("inner", TRACE_ROOT),
    }
    assert tracer.self_time("outer") < tracer.busy("outer")
    assert tracer.unattributed() >= 0.001


def test_traced_stream_nests_sums_and_restores_the_program():
    from repro.traffic import study

    original = study.run_traffic_point
    workload = _short(ZipfStream, 2, 3_000)
    workload.setup()
    tracer = Tracer()
    with installed(tracer), tracer.root():
        assert study.run_traffic_point is not original
        out = workload.run()
    assert study.run_traffic_point is original
    _assert_spans_nest_and_sum(tracer)
    assert tracer.calls("traffic.arrivals") == 3_000
    assert tracer.calls("traffic.stream") == 3_000
    assert ("traffic.flowtable", "traffic.study") in tracer.table
    metrics = layer_metrics(
        tracer,
        {**workload.counters(out), "trace.overhead_pct": 0.0, "trace.wrapper_ns": 0.0},
    )
    assert 0.0 < metrics["traffic.stream.memo_hit_ratio"][0] < 1.0
    assert metrics["traffic.study.self_s"][0] > 0.0


def test_wrapper_cost_is_measured():
    assert 0.0 < tracing.wrapper_cost_ns(calls=20_000) < 1e6


# --------------------------------------------------------------------- #
# seeds                                                                 #
# --------------------------------------------------------------------- #


def _stream_digest(seed: int, cls=ZipfStream) -> dict:
    workload = _short(cls, seed, 5_000)
    workload.setup()
    workload.prepare()
    return json.loads(json.dumps(workload.digest(workload.run())))


def test_same_seed_reproduces_identical_simulated_outputs():
    assert _stream_digest(3) == _stream_digest(3)
    faulted = _stream_digest(3, FaultedMixedStream)
    assert faulted == _stream_digest(3, FaultedMixedStream)


def test_different_seed_changes_the_stream():
    assert _stream_digest(3)["map_stats"] != _stream_digest(4)["map_stats"]


def test_seeds_map_onto_recorded_inputs():
    assert ZipfStream(seed=STREAM_VARIANTS + 5).key == ZipfStream(seed=5).key
    for cls in (Table4Sweep, FaultedMixedStream, LayoutSearch):
        assert cls(seed=0).key == cls(seed=7).key


# --------------------------------------------------------------------- #
# the contract                                                          #
# --------------------------------------------------------------------- #


def test_per_layer_metrics_match_benchmark_json():
    calibration = {"trace.overhead_pct": 0.0, "trace.wrapper_ns": 0.0}
    produced = layer_metrics(Tracer(), calibration)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in produced.items()} == declared


def test_end_to_end_metrics_are_declared():
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names == {"wall_s", "setup_s", "pkts_per_s", "peak_rss_mb", "rtt_err_pct"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    args = ["--workload", "zipf_stream", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
