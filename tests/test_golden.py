"""Fixed-seed outputs of the two report entry points, pinned to JSON.

The files under tests/data/ hold ``run_verify("all", samples=20, seed=0)``
(without its ``wall_time_s``) and ``run_sigma_certification(10, 0, grid=10)``
as they were before the batched decision layer, plus the same two reports
at the held-out seed 7919 and the larger sizes ``samples=50`` and
``run_sigma_certification(40, 7919, grid=10)``, pinned before the single
class-equality decision.  The larger runs reach more residuals, so an
ulp-level change shows there that the small ones miss.  A change that moves
any trial count, failure count or residual bit fails here.  Floats go
through JSON as their shortest round-trip repr, so equality is bitwise.

To pin a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from charvar.cli import run_sigma_certification, run_verify

DATA = Path(__file__).resolve().parent / "data"


def verify_report(samples: int, seed: int) -> dict:
    report = asdict(run_verify("all", samples=samples, seed=seed))
    del report["wall_time_s"]
    return report


GOLDEN = {
    "verify_all_samples20_seed0.json": lambda: verify_report(20, 0),
    "sigma_certification_samples10_seed0_grid10.json": lambda: run_sigma_certification(10, 0, grid=10),
    "verify_all_samples50_seed7919.json": lambda: verify_report(50, 7919),
    "sigma_certification_samples40_seed7919_grid10.json": lambda: run_sigma_certification(
        40, 7919, grid=10
    ),
}


def _as_json(obj: dict) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixed_seed_output_unchanged(name):
    want = json.loads((DATA / name).read_text())
    got = json.loads(_as_json(GOLDEN[name]()))
    assert got == want


if __name__ == "__main__":
    for name, build in GOLDEN.items():
        (DATA / name).write_text(_as_json(build()))
