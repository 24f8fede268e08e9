"""Self-tests of the benchmark at toy size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.harness import END_TO_END, PER_LAYER, end_to_end, traced  # noqa: E402
from perfbench.layers import self_time_total  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _assert_complete(report, units):
    document = report.document()
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"], report.notes
    assert document["attempted"] >= 1
    assert document["failed"] == 0
    assert set(document["metrics"]) == set(units)
    for name, metric in document["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    json.dumps(document)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_reports_every_metric_and_passes_checks(name, workdir):
    report = end_to_end(workloads.make(name, 3, workdir, toy=True), seconds=0)
    _assert_complete(report, END_TO_END)
    for metric in END_TO_END:
        # A 25-node toy mesh can deliver every message: its view error is 0.
        assert report.values[metric] > 0 or metric == "view_pdr_error", metric


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_add_up_to_the_traced_wall(name, workdir):
    report = traced(workloads.make(name, 3, workdir, toy=True))
    _assert_complete(report, PER_LAYER)
    values = report.values
    assert values["trace.unattributed_s"] >= 0
    assert self_time_total(values) + values["trace.unattributed_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9
    )
    for metric, unit in PER_LAYER.items():
        if unit == "s":
            assert values[metric] >= 0, metric
    assert values["server.batches"] > 0
    assert values["server.decode_s"] > 0


def test_mesh_trace_attributes_every_layer(workdir):
    values = traced(workloads.make("mesh_400", 3, workdir, toy=True)).values
    for metric in (
        "sim.events", "sim.self_s", "phy.self_s", "phy.frames", "phy.collision_calls",
        "mac.self_s", "mac.sends", "mac.duty_cycle_calls", "mesh.self_s",
        "mesh.route_calls", "workload.self_s", "agent.flushes", "uplink.encodes",
        "server.tile_calls", "server.stream_events", "read.refresh_s",
    ):
        assert values[metric] > 0, metric
    # Each batch is encoded once for its wire size and once to send it.
    assert values["uplink.encodes_per_batch"] == pytest.approx(2.0)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_seed_repeats_its_digest(name, workdir):
    def digest(seed):
        notes = end_to_end(workloads.make(name, seed, workdir, toy=True), seconds=0).notes
        return [note for note in notes if note.startswith("digest = ")]

    first = digest(5)
    assert first and first == digest(5)
    if name == "mesh_400":  # one fixed scenario, whatever the seed
        assert first == digest(6)
    else:
        assert first != digest(6)


def test_generated_stream_ground_truth(workdir):
    stream = workloads.IngestReplay(4, workdir, toy=True).stream
    retried = [batch for batch in stream.batches if batch.retry]
    assert retried, "the stream exercises dedup"
    assert sum(batch.records for batch in retried) == stream.retried_records
    assert sum(batch.records for batch in stream.batches) == (
        stream.distinct_records + stream.retried_records
    )
    assert [batch.at for batch in stream.batches] == sorted(batch.at for batch in stream.batches)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh_400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "{" not in done.stdout
