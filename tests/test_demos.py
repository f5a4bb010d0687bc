"""Every script under demos/ runs to completion and prints its pinned lines."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# lines a demo must print, whole, for its fixed seeds
PINNED = {
    "involution_gallery": [
        "pillow classified as            : pillow-interior",
        "blow-up classified as           : blowup-interior",
        "RP^2 fiber classified as        : rp2-fiber",
        "alpha = 0    -> II / pillow-surface",
        "alpha = 0.7  -> I / interval-interior",
        "alpha = pi/2 -> II / interval-endpoint",
        "classifier agrees on the blow-up: True",
    ],
    "polytope_census": [
        "points strictly inside: 20000",
        "face samples certified: 300 / 300",
        "abelian interior hits : 0 / 300",
        "wrote moment_cloud.csv: 500 rows",
    ],
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # polytope_census writes moment_cloud.csv to the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    lines = out.splitlines()
    for line in PINNED.get(script.stem, []):
        assert line in lines
