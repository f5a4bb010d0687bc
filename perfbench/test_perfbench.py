"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import charvar  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "stream": {"chunk": 3},
    "ensemble": {"batch": 200},
    "certify": {"samples": 2, "sigma_samples": 2},
}


@pytest.fixture
def workdir():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=out)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_round_matches_untraced(name, workdir):
    wl = workloads.make(name, 5, workdir, **TINY[name])
    mul, main = charvar.su2.mul, charvar.cli.main
    plain = wl.run_round(0, workloads.Window())
    tr = tracer.Tracer()
    traced = wl.run_round(0, workloads.Window(tr))
    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert tr.top_level() == plain.calls
    # the wrappers are gone once the window closes
    assert charvar.mul is mul and charvar.repvar.mul is mul and charvar.cli.main is main


def test_probe_time_is_not_charged_to_the_parent():
    tr = tracer.Tracer()

    def slow_probe(args, out):
        time.sleep(0.02)
        return 0, 0.0

    inner = tr._wrap(lambda args, i=tr._id("t.inner"): i, lambda: None, slow_probe)
    outer = tr._wrap(lambda args, i=tr._id("t.outer"): i, lambda: inner(), None)
    outer()
    m = tr.metrics(["t.outer.calls", "t.outer.self_s", "t.inner.self_s"])
    assert m["t.outer.calls"] == 1
    assert m["t.outer.self_s"] < 0.01 and m["t.inner.self_s"] < 0.01


def test_broken_ensemble_output_is_counted(workdir, monkeypatch):
    wl = workloads.make("ensemble", 5, workdir, **TINY["ensemble"])
    honest = charvar.mu_lambda_coordinates
    monkeypatch.setattr(charvar, "mu_lambda_coordinates", lambda rho: honest(rho) + 1e-6)
    result = wl.run_round(0, workloads.Window())
    assert result.failed == result.items == 200


def test_broken_stream_output_is_counted(workdir, monkeypatch):
    wl = workloads.make("stream", 5, workdir, **TINY["stream"])
    honest = charvar.cli.act

    def off_relation(t, rho):
        moved = honest(t, rho)
        nudge = charvar.GroupElement.from_quaternion(moved.g1.q + np.array([0.0, 1e-6, 0.0, 0.0]))
        return charvar.Representation(nudge, moved.h1, moved.g2, moved.h2)

    monkeypatch.setattr(charvar.cli, "act", off_relation)
    result = wl.run_round(0, workloads.Window())
    assert result.failed == result.items == 3


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert meta["blas_threads"] == "1" and meta["held_out_seed"] == run.HELD_OUT_SEED


def test_refuses_to_run_without_sources(workdir):
    bare = Path(workdir)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
