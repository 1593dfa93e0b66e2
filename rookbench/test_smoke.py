"""Smoke test of the benchmark harness at the smallest sizes.

    python3 -m pytest rookbench/test_smoke.py

It checks that every workload runs and its outputs pass, that the tracer
reports every per-layer metric of BENCHMARK.json, and that run.py fails
without the package.  It makes no timing assertions.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

rp = worker.import_package()

SMALL_HASSE = [["general", 4], ["orthogonal", 5]]
SMALL_ORACLE = [["counts", 4], ["kerov", 4], ["bruhat", 4], ["graded", 4],
                ["covers-general", 4], ["covers-orthogonal", 5]]


@pytest.fixture
def small_boards(monkeypatch):
    monkeypatch.setattr(workloads, "BEYOND_QUERIES", {8: 2, 10: 1})
    monkeypatch.setattr(workloads, "CHAIN_BOARDS", (6, 7))
    monkeypatch.setattr(workloads, "CHAIN_STARTS_PER_BOARD", 2)


def run_all(rec: workloads.Recorder) -> None:
    workloads.hasse_pass(rp, SMALL_HASSE, rec)
    workloads.oracle_pass(rp, SMALL_ORACLE, rec)
    for name in ("beyond-horizon", "chain-walk"):
        w = workloads.WORKLOADS[name]
        w.run_pass(rp, w.prepare(rp, w.generate(1)), rec)


def test_every_workload_passes_at_small_sizes(small_boards):
    rec = workloads.Recorder()
    run_all(rec)
    assert rec.errors == []
    assert rec.failed == 0
    assert rec.attempted > len(SMALL_HASSE) + len(SMALL_ORACLE)


def test_inputs_depend_only_on_the_seed(small_boards):
    for w in workloads.WORKLOADS.values():
        assert w.generate(3) == w.generate(3)
    chain = workloads.WORKLOADS["chain-walk"]
    assert chain.generate(3) != chain.generate(4)


def test_a_wrong_answer_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.HASSE_EDGES, ("general", 4), 25)
    rec = workloads.Recorder()
    workloads.hasse_pass(rp, SMALL_HASSE, rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "24 Hasse edges, expected 25" in rec.errors[0]


def test_tracer_reports_every_per_layer_metric(small_boards, tmp_path):
    original = rp.poset.build_poset
    with spans.Tracer(rp) as tracer:
        assert rp.poset.build_poset is not original
        tracer.recording = True
        run_all(workloads.Recorder())
    assert rp.poset.build_poset is original
    metrics = tracer.metrics(passes=1, wall_s=1.0)
    assert list(metrics) == spans.per_layer_names()
    assert metrics["cli.main.calls"] == len(SMALL_ORACLE)
    assert 0 < metrics["covers.distinct_ratio"] <= 1
    tracer.save(str(tmp_path / "spans.npz"))

    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == spans.per_layer_names() + ["trace.wall_s", "trace.overhead_s"]


def test_tracer_counts_edges_and_memory_of_build_poset():
    with spans.Tracer(rp) as tracer:
        tracer.recording = True
        workloads.hasse_pass(rp, SMALL_HASSE, workloads.Recorder())
        tracer.recording = False
        tracer.measure_memory(lambda: workloads.hasse_pass(rp, SMALL_HASSE, workloads.Recorder()))
    metrics = tracer.metrics(passes=1, wall_s=1.0)
    assert metrics["poset.build_poset.calls"] == 2
    assert metrics["poset.hasse_edges"] == 24 + 63
    assert metrics["poset.build_poset.peak_mb"] >= metrics["poset.Poset.init.peak_mb"] > 0
    build, init = metrics["poset.build_poset.s"], metrics["poset.Poset.init.s"]
    assert metrics["poset.build_poset.self_s"] <= build - init


def test_latencies_are_rescaled_by_the_calibration_around_them():
    nominal = worker.NOMINAL_CALIBRATION_S
    passes = []
    for slowdown in (1.0, 2.0, 1.0):
        rec = workloads.Recorder(
            latencies=[0.010 * slowdown, 0.030 * slowdown],
            midpoints=[1.0, 2.0],
            calibrations=[(0.0, nominal * slowdown), (3.0, nominal * slowdown)],
        )
        passes.append(rec)
    passes[1].latencies[0] = 5.0  # a stall the median over passes discards
    e2e = worker.end_to_end([1.0, 1.0, 1.0], passes)
    assert e2e["wall_s"] == pytest.approx(0.040)
    assert e2e["ops"] == 2
    assert e2e["ops_per_s"] == pytest.approx(50.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "rookbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "rookbench/run.py", "--workload", "hasse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
