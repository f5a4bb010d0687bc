"""End-to-end tests of the command-line interface and verify suites."""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charvar import claims, cli, polytope, repvar
from charvar.claims import run_sigma_certification, run_verify
from charvar.cli import main, rep_to_obj
from charvar.errors import OutsidePolytope, PreconditionViolated
from charvar.flows import TorusElement, act
from charvar.polytope import moment_mu, mu_lambda, write_simplex_csv
from charvar.repvar import _SLOTS, Representation, relation_residual
from charvar.sampler import _CHUNK
from charvar.sigma import Piece, Stratum
from charvar.su2 import GroupElement, haar_sample
from charvar.tolerances import DEFAULT, EPS_CENTER, Tolerances


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_err(argv) -> tuple[int, str]:
    """Exit code and stderr of one run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def sample_lines(argv) -> list[dict]:
    code, out = run(argv)
    assert code == 0
    return [json.loads(line) for line in out.strip().split("\n")]


def non_solution() -> Representation:
    """Four Haar slots far off the surface relation."""
    rng = np.random.default_rng(31)
    while True:
        rho = Representation(
            haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
        )
        if float(relation_residual(rho)) > 1e-2:
            return rho


def read_obj(obj: dict) -> Representation:
    """The class of one JSONL line holding obj, read as the JSONL stages read it."""
    return cli._classes([json.dumps(obj)], DEFAULT.rel)[0]


PILLOW_OBJ = {
    "g1": [0.0, 0.0, 0.0, 1.0],
    "h1": [0.0, -1.0, 0.0, 0.0],
    "g2": [0.0, -1.0, 0.0, 0.0],
    "h2": [0.0, 0.0, 0.0, 1.0],
}


IDENTITY_OBJ = {key: [1.0, 0.0, 0.0, 0.0] for key in _SLOTS}


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(30)
        a, b = haar_sample(rng), haar_sample(rng)
        rho = Representation(a, b, b, a)
        back = read_obj(rep_to_obj(rho))
        for x, y in zip(back.elements(), rho.elements()):
            assert np.array_equal(x.q, y.q)

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionViolated):
            read_obj({"g1": [1, 0, 0, 0]})
        bad = dict(PILLOW_OBJ)
        bad["g1"] = [2.0, 0.0, 0.0, 0.0]
        with pytest.raises(PreconditionViolated):
            read_obj(bad)
        for value in (float("nan"), float("inf")):
            bad["g1"] = [value] * 4
            with pytest.raises(PreconditionViolated, match="not a finite unit quaternion"):
                read_obj(bad)

    @pytest.mark.parametrize("command", [["flow", "--t", "0,0,0"], ["moment"]])
    def test_non_finite_line_exit_2(self, tmp_path, command):
        bad = dict(PILLOW_OBJ)
        bad["g1"] = [float("nan")] * 4
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(PILLOW_OBJ) + "\n" + json.dumps(bad) + "\n")
        code, err = run_err([*command, "--in", str(src)])
        assert code == 2
        assert "line 2:" in err

    @pytest.mark.parametrize("command", [["flow", "--t", "0,0,0"], ["moment"]])
    def test_non_solution_line_exit_3(self, tmp_path, command):
        src = tmp_path / "in.jsonl"
        bad = json.dumps(rep_to_obj(non_solution()))
        src.write_text(json.dumps(PILLOW_OBJ) + "\n" + bad + "\n")
        code, err = run_err([*command, "--in", str(src)])
        assert code == 3
        assert "line 2: surface relation violated" in err

    @pytest.mark.parametrize(
        "line",
        [
            '{"g1": [1, 0, 0',
            "5",
            '{"g1": "abcd"}',
            pytest.param('{"g1": [1%s, 0, 0, 0]}' % ("0" * 400), id="integer-beyond-float"),
            pytest.param('{"g1": [1%s, 0, 0, 0]}' % ("0" * 5000), id="over-digit-limit"),
        ],
    )
    def test_malformed_line_exit_2(self, tmp_path, line):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(PILLOW_OBJ) + "\n\n" + line + "\n")
        code, err = run_err(["moment", "--in", str(src)])
        assert code == 2
        assert "line 3:" in err


@pytest.mark.parametrize(
    "argv, text, line",
    [
        pytest.param(["moment", "--in", "{path}"],
                     json.dumps({**PILLOW_OBJ, "g1": [1.0, 0.0, 0.0]}),
                     "line 1: slot 'g1' must hold four components", id="three-component-slot"),
        pytest.param(["flow", "--t", "a,b,c", "--in", "{path}"], json.dumps(PILLOW_OBJ),
                     "--t expects numbers, got 'a,b,c'", id="twist-not-numbers"),
        pytest.param(["--config", "{path}", "sample"], "count",
                     "{path}:1: expected key=value", id="config-line-without-equals"),
        # a slot holds JSON numbers only: a string, true or null is not read as a number
        *(pytest.param([*argv, "--in", "{path}"],
                       json.dumps({**IDENTITY_OBJ, "g1": [value, 0, 0, 0]}),
                       "line 1: slot 'g1' must hold numbers", id=f"{argv[0]}-{name}-component")
          for argv in (["flow", "--t", "0.3,1.2,0.5"], ["moment"], ["tau"])
          for name, value in (("string", "1"), ("bool", True), ("underscored", "1_000"),
                              ("null", None))),
    ],
)
def test_input_refusal_is_its_one_stderr_line(tmp_path, argv, text, line):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    code, err = run_err([a.format(path=path) for a in argv])
    assert (code, err) == (2, f"error: {line.format(path=path)}\n")


class TestSample:
    def test_interior_lines(self):
        lines = sample_lines(["sample", "--count", "10", "--seed", "7", "--target", "interior"])
        assert len(lines) == 10
        for obj in lines:
            assert obj["residual"] < 1e-8
            rho = read_obj(obj)
            assert float(relation_residual(rho)) < 1e-8

    def test_deterministic_bytes(self):
        argv = ["sample", "--count", "5", "--seed", "3", "--target", "edge", "--conjugate"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second

    def test_vertex_target_moment(self):
        lines = sample_lines(["sample", "--count", "5", "--seed", "1", "--target", "vertex"])
        for obj in lines:
            assert obj["mu"] == [0.0, 0.0, 0.0]

    def test_base_flag_pins_fiber(self):
        lines = sample_lines(
            ["sample", "--count", "6", "--seed", "2", "--target", "interior", "--base", "0.2,0.3,0.2"]
        )
        for obj in lines:
            np.testing.assert_allclose(obj["mu_lambda"], [0.2, 0.3, 0.2], atol=1e-7)

    def test_bad_flags_exit_2(self):
        code, _ = run(["sample", "--target", "nowhere"])
        assert code == 2
        code, _ = run(["sample", "--count", "0"])
        assert code == 2
        code, _ = run(["sample", "--base", "0.5,0.5", "--target", "interior"])
        assert code == 2
        code, _ = run(["sample", "--base", "nan,0.2,0.2"])
        assert code == 2
        # only the interior target reads a base point; the others refuse one
        for target, base in (("face", "5,5,5"), ("edge", "0.2,0.3,0.2"), ("vertex", "0.2,0.3,0.2")):
            code, err = run_err(["sample", "--target", target, "--base", base])
            assert code == 2
            assert f"a base point pins the interior target, not {target!r}" in err

    def test_base_near_the_vertex(self):
        # at 1e-9 from x = 0 the sample builds; closer in (1e-12, 1e-170) h1
        # is within EPS_CENTER of the center, and the twist flows of the
        # sampler refuse it
        code, err = run_err(["sample", "--base", "1e-170,1e-170,1e-170"])
        assert code == 3
        assert err.startswith(f"solve failure: h1 is within {EPS_CENTER:g} of the center")
        code, _ = run(["sample", "--base", "1e-9,1e-9,1e-9"])
        assert code == 0


class TestFlow:
    def test_zero_twist_is_identity_on_lines(self, tmp_path):
        src = tmp_path / "in.jsonl"
        dst = tmp_path / "out.jsonl"
        _, payload = run(["sample", "--count", "4", "--seed", "5", "--target", "interior"])
        src.write_text(payload)
        code, _ = run(["flow", "--t", "0,0,0", "--in", str(src), "--out", str(dst)])
        assert code == 0
        assert src.read_text() == dst.read_text()

    def test_twist_preserves_relation_and_moment(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _, payload = run(["sample", "--count", "4", "--seed", "6", "--target", "interior"])
        src.write_text(payload)
        code, out = run(["flow", "--t", "0.4,1.2,2.2", "--in", str(src)])
        assert code == 0
        before = [json.loads(line) for line in payload.strip().split("\n")]
        after = [json.loads(line) for line in out.strip().split("\n")]
        for x, y in zip(before, after):
            assert y["residual"] < 1e-9
            np.testing.assert_allclose(y["mu"], x["mu"], atol=1e-12)
            assert not np.allclose(y["g1"], x["g1"])

    def test_missing_twist_exit_2(self):
        code, _ = run(["flow"])
        assert code == 2
        for t in ("nan,0,0", "inf,0,0"):  # a non-finite angle would write NaN quaternions
            code, err = run_err(["flow", "--t", t])
            assert code == 2
            assert "--t expects finite numbers" in err


class TestMoment:
    def test_pillow_row(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(PILLOW_OBJ) + "\n")
        code, out = run(["moment", "--in", str(src)])
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "x1,x2,x3,region,polytope"
        cells = row.split(",")
        assert [float(c) for c in cells[:3]] == [0.5, 0.5, 0.5]

    def test_quotient_pillow_row(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(PILLOW_OBJ) + "\n")
        code, out = run(["moment", "--in", str(src), "--quotient"])
        assert code == 0
        row = out.strip().split("\n")[1]
        assert [float(c) for c in row.split(",")[:3]] == [0.25, 0.25, 0.25]


class TestTau:
    def test_check_passes_on_interior_stream(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _, payload = run(["sample", "--count", "5", "--seed", "8", "--target", "interior"])
        src.write_text(payload)
        code, out = run(["tau", "--in", str(src), "--check"])
        assert code == 0
        before = [json.loads(line) for line in payload.strip().split("\n")]
        after = [json.loads(line) for line in out.strip().split("\n")]
        for x, y in zip(before, after):
            np.testing.assert_allclose(y["mu_lambda"], x["mu_lambda"], atol=1e-7)
            assert y["residual"] < 1e-8
        # an abelian diagonal line sits over the boundary; tau applies there too
        diagonal = {
            slot: [np.cos(a), 0.0, 0.0, np.sin(a)]
            for slot, a in zip(("g1", "h1", "g2", "h2"), (0.3, 1.1, 2.0, 0.7))
        }
        src.write_text(json.dumps(diagonal) + "\n")
        code, out = run(["tau", "--in", str(src), "--check"])
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["h1"], [np.cos(1.1), 0.0, 0.0, -np.sin(1.1)])

    def test_check_fails_on_a_non_involution(self, tmp_path, monkeypatch):
        # a twist off the kernel applied twice moves every interior class
        src = tmp_path / "in.jsonl"
        _, payload = run(["sample", "--count", "5", "--seed", "8", "--target", "interior"])
        src.write_text(payload)
        monkeypatch.setattr(cli, "tau", lambda rho: act(TorusElement(0.3, 0.0, 0.0), rho))
        code, out = run(["tau", "--in", str(src), "--check"])
        assert code == 1
        assert out.count("\n") == 5
        assert run(["tau", "--in", str(src)])[0] == 0

    def test_solve_failure_exit_3(self, tmp_path):
        # not a relation solution: rejected where the line is read
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(rep_to_obj(non_solution())) + "\n")
        code, err = run_err(["tau", "--in", str(src)])
        assert code == 3
        assert "line 1: surface relation violated" in err


# (lines written, sha256 of stdout) of `fixed-points --count 40 --seed S --tol 0.1`
AMBIGUOUS_STREAMS = [
    (13, "a77926534162a3d59f27815fbbd6e1110924b0e5881dd31c5d69073b4e3ac39f"),
    (5, "e85eeffd497761d6ebe6f85263b29770a9457ea925861bb048692957a581dc96"),
    (9, "a3306fb0b998972f02b0ea0d7a7e00062e04ab157c9e8c289489be1b0693a666"),
    (4, "e7cdbaa5aaa5b3437123e08c17433521f0c1359434c1f1c730999f1b24c50838"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "8260459fa7bea4b721fff3fe8322b523dfd0618d383152eeea651e50cf173e83"),
    (9, "47a2a459335ddedb85b6eef6324a47ed1abb864e3418465937a6cbed60f7c7df"),
    (9, "7acfeb3de985a3d8dc62c2b4820e1b1de4b082dab429de4b4ef562c6a3f139a8"),
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (36, "73cab0b7e89a436bbc8bf8acca0d1814753b48e010e9fc757d650a10fd32cc6e"),
    (1, "9e7ae11becbd2cf3f56b22b2de0811b57b758ba7abe40ce640aff54ccef75c9c"),
    (16, "153e44c65953627b6083de86287f932852984dfd4f3ba46002200e4e884493a8"),
]


class TestFixedPoints:
    def test_tagged_stream(self):
        lines = sample_lines(["fixed-points", "--count", "8", "--seed", "3"])
        assert len(lines) == 8
        pieces = {obj["piece"] for obj in lines}
        assert pieces == {
            "pillow-interior",
            "blowup-interior",
            "rp2-fiber",
            "interval-interior",
        }
        for obj in lines:
            assert obj["stratum"] == "I"
            assert obj["residual"] < 1e-9

    def test_ambiguous_row_exit_3_after_the_rows_before(self):
        # at --tol 0.1 the fifth sample's [g1,h1] centrality residual (0.508)
        # lies in the gray zone: the four lines before it are written, and
        # the run ends as a solve failure naming line 5
        argv = ["fixed-points", "--count", "40", "--seed", "3", "--tol", "0.1"]
        code, out = run(argv)
        assert code == 3
        assert out.count("\n") == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e7cdbaa5aaa5b3437123e08c17433521f0c1359434c1f1c730999f1b24c50838"
        )
        code, err = run_err(argv)
        assert code == 3
        assert err.splitlines() == [
            "solve failure: line 5: [g1,h1] centrality residual in the gray zone: 0.5078766221917136"
        ]

    @pytest.mark.parametrize("seed", range(12))
    def test_ambiguous_stream_pinned(self, seed):
        # --count 40 --tol 0.1: every seed stops at a gray-zone row, of the
        # [g1,h1] centrality check or (seeds 6 and 7) of the trace check
        argv = ["fixed-points", "--count", "40", "--seed", str(seed), "--tol", "0.1"]
        code, out = run(argv)
        assert code == 3
        lines, digest = AMBIGUOUS_STREAMS[seed]
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, err = run_err(argv)
        check = "tr[g1,h1] = -2" if seed in (6, 7) else "[g1,h1] centrality"
        assert err.startswith(f"solve failure: line {lines + 1}: {check} residual in the gray zone: ")

    def test_refusal_in_a_later_chunk_names_its_line(self):
        # the third 256-line chunk refuses at its 158th row: 669 lines, then line 670
        argv = ["fixed-points", "--count", "700", "--seed", "2", "--tol", "0.01"]
        code, out = run(argv)
        assert code == 3
        assert out.count("\n") == 669
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a8e55c53315344836b16d9bf54ab709904beff56f988ce156eb9228fa2df47ef"
        )
        assert run_err(argv) == (3, "solve failure: line 670: [g1,h1] centrality residual"
                                    " in the gray zone: 0.09043384076448845\n")


class TestCertifySigma:
    def test_report_shape_and_exit(self):
        code, out = run(["certify-sigma", "--samples", "12", "--seed", "4", "--grid", "4"])
        assert code == 0
        rep = json.loads(out)
        assert rep["violations"] == []
        assert sum(rep["counts"].values()) == 12
        assert rep["max_residual"]["conjugator-residual"] < 1e-8

    def test_ambiguous_sample_exit_3(self):
        code, err = run_err(["certify-sigma", "--samples", "8", "--seed", "3", "--tol", "0.5"])
        assert code == 3
        assert err.splitlines() == [
            "solve failure: sample 0: [g1,h1] centrality residual in the gray zone: 2.187278662508823"
        ]

    def test_ambiguous_sample_in_a_later_chunk_names_its_index(self):
        # the stream sample fixed-points writes as line 670, by its 0-based index
        code, err = run_err(["certify-sigma", "--samples", "700", "--seed", "2", "--tol", "0.01"])
        assert code == 3
        assert err.splitlines() == [
            "solve failure: sample 669: [g1,h1] centrality residual in the gray zone:"
            " 0.09043384076448845"
        ]

    def test_library_entry_point(self):
        rep = run_sigma_certification(8, seed=9, grid=4)
        assert rep["violations"] == []
        assert any("factor-2" in note for note in rep["notes"])

    def test_violations_exit_1(self, monkeypatch):
        # sample 2's conjugator is off by a 1e-3 turn (far above 10 * tol.mat), and the
        # first arc has one unfixed grid point and one colliding pair
        classify, certify = claims.classify_fixed_point, claims.certify_interval_injectivity
        arcs = []

        def off_conjugator(batch, tol):
            point = classify(batch, tol=tol)
            q = point.conjugator.q.copy()
            q[2] = (GroupElement(q[2]) * GroupElement.from_quaternion([1.0, 1e-3, 0.0, 0.0])).q
            return dataclasses.replace(point, conjugator=GroupElement(q))

        def one_unfixed_one_collision(theta, s, grid, tol):
            arcs.append((theta[0], s[0]))
            report = certify(theta, s, grid, tol)
            report.fixed[0, 0], report.equal[0, 0] = False, True
            return report

        monkeypatch.setattr(claims, "classify_fixed_point", off_conjugator)
        monkeypatch.setattr(claims, "certify_interval_injectivity", one_unfixed_one_collision)
        code, out = run(["certify-sigma", "--samples", "12", "--seed", "4", "--grid", "4"])
        assert code == 1
        conjugator, interval = json.loads(out)["violations"]
        assert re.fullmatch(r"sample 2: conjugator residual \d\.\d{3}e-0[34]", conjugator)
        assert interval == "interval (%.4f,%.4f): 1 unfixed, 1 collisions" % arcs[0]


class TestVerify:
    @pytest.mark.parametrize("suite", ["flows", "polytope", "tau", "sigma", "density"])
    def test_suites_pass(self, suite):
        code, out = run(["verify", "--suite", suite, "--samples", "40", "--seed", "1"])
        rep = json.loads(out)
        assert code == 0
        assert rep["failures"] == 0
        assert rep["trials"] >= 40
        assert rep["suite"] == suite

    def test_all_merges_namespaced(self):
        code, out = run(["verify", "--suite", "all", "--samples", "20", "--seed", "2"])
        rep = json.loads(out)
        assert code == 0
        assert any(key.startswith("flows.") for key in rep["max_residual"])
        assert any("factor-2" in note for note in rep["notes"])

    def test_impossible_tolerance_exit_1(self):
        code, out = run(
            ["verify", "--suite", "flows", "--samples", "10", "--seed", "3", "--tol", "1e-18"]
        )
        rep = json.loads(out)
        assert code == 1
        assert rep["failures"] > 0

    def test_serial_deterministic(self):
        reports = []
        for _ in range(2):
            _, out = run(["verify", "--suite", "all", "--samples", "30", "--seed", "9"])
            rep = json.loads(out)
            rep.pop("wall_time_s")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_jobs_is_gone(self, tmp_path):
        code, _ = run_err(["verify", "--suite", "density", "--samples", "2", "--jobs", "2"])
        assert code == 2
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text("jobs=2\n")
        code, err = run_err(["--config", str(cfg), "verify", "--suite", "density"])
        assert code == 2
        assert "unknown key 'jobs'" in err

    def test_library_entry_point(self):
        rep = run_verify("tau", samples=10, seed=5)
        assert rep.passed
        assert rep.max_residual["moment-drift"] < 1e-7

    def test_tau_residuals_are_measured(self, monkeypatch):
        # a twist is no involution and does not reverse the flows; both
        # residuals must report how far it misses, not just the failures
        monkeypatch.setattr(claims, "tau", lambda rho: act(TorusElement(0.3, 0.0, 0.0), rho))
        rep = run_verify("tau", samples=5, seed=5)
        assert rep.failures == 5
        assert rep.max_residual["involution"] > 0.1
        assert rep.max_residual["reversal"] > 0.1


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--suite", "sigma", "--samples", "10"],
        ["verify", "--suite", "density", "--samples", "2"],
        ["certify-sigma", "--samples", "10", "--grid", "3"],
    ],
)
def test_tol_reaches_every_check(monkeypatch, command):
    # every decision a run makes reads the --tol matrix tolerance, never the
    # library default
    seen: dict = {}
    for name in (
        "certify_interval_injectivity",
        "sigma_fixed_conjugator",
        "classify_fixed_point",
        "_class_equal",
        "is_abelian",
    ):
        fn = getattr(claims, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(_name, set()).add(bound.arguments["tol"])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(claims, name, recorded)
    code, _ = run([*command, "--tol", "3e-9"])
    assert code == 0
    want = {Tolerances(3e-9).mat}
    assert seen and {name: tols for name, tols in seen.items() if tols != want} == {}
    if "sigma" in command:  # the pillow and interior fixedness reads
        assert "sigma_fixed_conjugator" in seen


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command", [["moment"], ["tau", "--check"], ["verify", "--suite", "density", "--samples", "2"]]
)
def test_bad_tol_exit_2(tmp_path, command, value):
    # the input line does not solve the relation; a NaN tolerance, which no
    # residual reaches, would let moment accept it and exit 0
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(rep_to_obj(non_solution())) + "\n")
    inputs = [] if command[0] == "verify" else ["--in", str(src)]
    code, err = run_err([*command, *inputs, "--tol", value])
    assert code == 2
    assert "tol must be a positive finite number" in err
    cfg = tmp_path / "tol.cfg"
    cfg.write_text(f"tol={value}\n")
    code, err = run_err(["--config", str(cfg), *command, *inputs])
    assert code == 2
    assert "tol must be a positive finite number" in err


def test_huge_tol_scales_every_field_without_overflow():
    # each field is mat * (default / EPS_MAT), so 1e300 scales to finite
    # tolerances; every residual meets them, the density witnesses read
    # abelian and the run fails its checks (exit 1) rather than the flag
    code, out = run(["verify", "--suite", "density", "--samples", "2", "--tol", "1e300"])
    assert code == 1
    assert json.loads(out)["tolerances"] == {"mat": 1e300, "f": 1e300, "rel": 1e301, "poly": 1e300}
    # rel = 10 * mat overflows at 1e308: refused, naming the flag value
    code, err = run_err(["verify", "--suite", "density", "--samples", "2", "--tol", "1e308"])
    assert code == 2
    assert "tol must be a positive finite number, got mat=1e+308" in err


def test_tolerances_reject_bad_fields():
    # the library boundary checks what the --tol flag checks: with a NaN
    # tolerance no residual could ever fail
    for value in (float("nan"), float("inf"), 0.0, -1e-9):
        with pytest.raises(PreconditionViolated, match="positive finite number, got mat"):
            run_verify("polytope", samples=20, seed=1, tol=Tolerances(mat=value))
        with pytest.raises(PreconditionViolated, match="positive finite number, got mat"):
            Tolerances(value)
    # mat is the one knob: the other fields follow it and cannot be set
    assert Tolerances(3e-9) == Tolerances(mat=3e-9)
    assert (Tolerances(3e-9).f, Tolerances(3e-9).rel, Tolerances(3e-9).poly) == (3e-9, 3e-8, 3e-9)
    for field in ("f", "rel", "poly"):
        with pytest.raises(TypeError):
            Tolerances(**{field: 1e-9})


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["certify-sigma", "--samples", "2"], "grid", "-1"),
        (["certify-sigma", "--samples", "2"], "grid", "0"),
        (["certify-sigma", "--samples", "2"], "grid", "1"),
        (["certify-sigma"], "samples", "-3"),
        (["verify", "--suite", "density"], "samples", "-2"),
        (["verify", "--suite", "density"], "samples", "0"),
        (["fixed-points"], "count", "-2"),
        (["sample"], "count", "0"),
        (["verify", "--suite", "density"], "seed", "-1"),
        (["fixed-points"], "seed", "-1"),
        (["certify-sigma", "--samples", "2"], "seed", "-1"),
    ],
)
def test_trial_count_below_minimum_exit_2(tmp_path, command, key, value):
    # a run over no trials (or, for grid, no pair) would pass having checked nothing
    code, err = run_err([*command, f"--{key}", value])
    assert code == 2
    assert f"argument --{key}: invalid integer >= " in err
    cfg = tmp_path / "counts.cfg"
    cfg.write_text(f"{key}={value}\n")
    code, err = run_err(["--config", str(cfg), *command])
    assert code == 2
    assert f"{cfg}:1: bad value for {key}" in err


@pytest.mark.parametrize("samples", [0, -2])
@pytest.mark.parametrize("suite", ["all", "flows", "polytope", "tau", "sigma", "density"])
def test_run_verify_rejects_no_trials(suite, samples):
    # the library entry point checks what the flags check
    with pytest.raises(PreconditionViolated, match="samples must be >= 1"):
        run_verify(suite, samples=samples)


@pytest.mark.parametrize("samples, grid", [(0, 10), (-3, 10), (2, 1), (2, 0), (2, -1)])
def test_run_sigma_certification_rejects_no_trials(samples, grid):
    with pytest.raises(PreconditionViolated, match="need samples >= 1 and grid >= 2"):
        run_sigma_certification(samples, 0, grid=grid)


def test_run_verify_rejects_an_unknown_suite():
    with pytest.raises(PreconditionViolated, match="unknown suite 'nowhere'"):
        run_verify("nowhere", samples=1)


def test_library_entry_points_reject_negative_seed():
    # the --seed flags' floor; numpy's own error would otherwise escape main
    with pytest.raises(PreconditionViolated, match="seed must be >= 0, got -1"):
        run_verify("density", samples=1, seed=-1)
    with pytest.raises(PreconditionViolated, match="seed must be >= 0, got -1"):
        run_sigma_certification(1, -1)


# sha256 of the README pipeline's files (300 tuples: more than one sampler
# batch)
PIPELINE_SHA256 = {
    "cloud.jsonl": "02b45d4f1b13554d524b7673d24a6f60e224b3778027cac07b80ea321d7727f6",
    "twisted.jsonl": "64c4d8390cef8b45aebf8c4cf6e1840401d9e4145976c28db3ea1c391f3759de",
    "points.csv": "e192beb3a92c576a4688e723249130d825c769a6d95250b98282524b5b160b90",
}


def test_readme_pipeline_output_pinned(tmp_path):
    cloud, twisted, points = (str(tmp_path / name) for name in PIPELINE_SHA256)
    assert main(["sample", "--count", "300", "--seed", "7", "--conjugate", "--out", cloud]) == 0
    assert main(["flow", "--t", "0.3,1.2,0.5", "--in", cloud, "--out", twisted]) == 0
    assert main(["moment", "--quotient", "--in", twisted, "--out", points]) == 0
    for name, digest in PIPELINE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of `sample --count 300 --seed 11 --target T` (two sampler batches),
# without and with --conjugate, as the per-item builders wrote them
BOUNDARY_SHA256 = {
    "face": (
        "7fa662ca5398af7d261aa1ef6b7d5f8e7d826e47878b1902df87e32530de57c5",
        "f7a3ac2d6bcf1d66b423f5530056e4383a664eb1b6e58531017435298e2ea901",
    ),
    "edge": (
        "2819ae711e938b56f4d7b06aefac7e95a4f287e2d4b91e4c6875d6b910d7b9b5",
        "1b3dba10f863b597bb8483e52216fe230674cf4e68b08e958c5f627e7b67fac3",
    ),
    "vertex": (
        "c5ae53aea3eb1daa31486e876b1668f9ad7adf9fe38ba04b8cdf844534bd1628",
        "629c6048b837c99f3cf5cdc19964e4b05b85a45dc9ab39c2e2e0c297e7626280",
    ),
    "abelian": (
        "70700bdbf69cdb5fd4528df1e86d84d68f87663060f470a12e29a2088d2743d0",
        "76f228258d3bc3a52f48e536bfabe7239628afd8b5b337e8a8ccc5fbba4a187b",
    ),
}


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("target", list(BOUNDARY_SHA256))
def test_boundary_sample_output_pinned(target, conjugate):
    argv = ["sample", "--count", "300", "--seed", "11", "--target", target]
    code, out = run(argv + ["--conjugate"] * conjugate)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDARY_SHA256[target][conjugate]


# ---------------------------------------------------------------------------
# the JSONL stages run in chunks: byte for byte the one-line runs
# ---------------------------------------------------------------------------


def _sampled(argv_tail) -> list[str]:
    code, out = run(["sample", *argv_tail])
    assert code == 0
    return out.splitlines(keepends=True)


def _shuffled(lines: list[str]) -> list[str]:
    order = np.random.default_rng(41).permutation(len(lines))
    return [lines[i] for i in order]


@pytest.fixture(scope="module")
def mixed_lines() -> list[str]:
    """310 lines (more than one chunk) of every target, with and without
    --conjugate, shuffled."""
    lines = []
    for seed, target in enumerate(["interior", "face", "edge", "vertex", "abelian"]):
        for conjugate in ([], ["--conjugate"]):
            argv = ["--count", "31", "--seed", str(seed), "--target", target, *conjugate]
            lines += _sampled(argv)
    return _shuffled(lines)


@pytest.fixture(scope="module")
def interior_lines() -> list[str]:
    lines = _sampled(["--count", "155", "--seed", "12"])
    lines += _sampled(["--count", "155", "--seed", "13", "--conjugate"])
    return _shuffled(lines)


def _run_on(argv, lines, monkeypatch) -> tuple[int, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    return run(argv)


@pytest.mark.parametrize(
    "argv, stream",
    [
        (["moment"], "mixed_lines"),
        (["moment", "--quotient"], "mixed_lines"),
        (["tau", "--check"], "mixed_lines"),
        (["flow", "--t", "0.3,1.2,0.5"], "interior_lines"),
    ],
)
def test_chunked_stage_equals_one_line_runs(argv, stream, request, monkeypatch):
    lines = request.getfixturevalue(stream)
    code, whole = _run_on(argv, lines, monkeypatch)
    assert code == 0
    header = "x1,x2,x3,region,polytope\n" if argv[0] == "moment" else ""
    # parsed once: the one-line runs differ in their input only
    args = cli._build_parser()[0].parse_args(argv)
    one_line = []
    for line in lines:
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert args.handler(args) == 0
        assert buf.getvalue().startswith(header)
        one_line.append(buf.getvalue()[len(header):])
    assert whole == header + "".join(one_line)


def _run_err_on(argv, lines, monkeypatch) -> tuple[int, str]:
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    return run_err(argv)


def _bad_line(kind: str, good: str) -> str:
    if kind == "malformed":
        return '{"g1": [1, 0, 0'
    if kind == "non-finite":
        return json.dumps({**json.loads(good), "g1": [float("nan")] * 4})
    return json.dumps(rep_to_obj(non_solution()))


@pytest.mark.parametrize("kind, want", [("malformed", 2), ("non-finite", 2), ("off-relation", 3)])
@pytest.mark.parametrize("argv", [["flow", "--t", "0.3,1.2,0.5"], ["moment"], ["tau"]])
def test_bad_line_300_keeps_the_rows_before(kind, want, argv, interior_lines, monkeypatch):
    # line 150 is blank, line 300 is bad, and good lines follow it
    lines = interior_lines[:149] + ["\n"] + interior_lines[149:]
    lines = lines[:299] + [_bad_line(kind, lines[299]) + "\n"] + lines[299:]
    code, err = _run_err_on(argv, lines, monkeypatch)
    assert code == want
    assert "line 300:" in err
    _, partial = _run_on(argv, lines, monkeypatch)
    _, before = _run_on(argv, lines[:299], monkeypatch)
    assert partial == before
    assert before.count("\n") == 298 + (argv[0] == "moment")


def test_flow_boundary_line_keeps_the_rows_before(interior_lines, monkeypatch):
    vertex = _sampled(["--count", "1", "--seed", "2", "--target", "vertex"])
    lines = interior_lines[:299] + vertex + interior_lines[299:]
    argv = ["flow", "--t", "0.3,1.2,0.5"]
    code, err = _run_err_on(argv, lines, monkeypatch)
    assert code == 3
    assert "twist flows are defined on interior classes only" in err
    assert "line 300:" in err and "(row" not in err
    _, partial = _run_on(argv, lines, monkeypatch)
    assert partial == _run_on(argv, lines[:299], monkeypatch)[1]


def _diagonal_line(*angles: float) -> str:
    """A line of four slots on one circle, (cos a, 0, 0, sin a): abelian, on the relation."""
    obj = {key: [np.cos(a), 0.0, 0.0, np.sin(a)] for key, a in zip(_SLOTS, angles)}
    return json.dumps(obj) + "\n"


def test_flow_names_the_earliest_boundary_line(interior_lines, monkeypatch):
    # act checks h1, h2, h2*h1, h1*h2, each over the whole chunk: the h1 check
    # names line 20 first, yet line 10 (h2 = h1^-1, so h2*h1 = 1) is earlier
    lines = list(interior_lines[:30])
    lines[9], lines[19] = _diagonal_line(0.3, 1.1, 2.0, -1.1), _diagonal_line(0.3, 0.0, 2.0, 0.7)
    argv = ["flow", "--t", "0.3,1.2,0.5"]
    code, err = _run_err_on(argv, lines, monkeypatch)
    assert code == 3
    assert "line 10: h2*h1 is within" in err and "(row" not in err
    _, partial = _run_on(argv, lines, monkeypatch)
    assert partial == _run_on(argv, lines[:9], monkeypatch)[1]
    assert partial.count("\n") == 9


def _stdin_run(argv, lines) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one run on lines as stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO("".join(lines))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def boundary_lines() -> list[str]:
    """Classes over vertices and edges of the tetrahedron: good input to
    moment and tau, but flow refuses them (some h-word is central)."""
    lines = _sampled(["--count", "3", "--seed", "2", "--target", "vertex", "--conjugate"])
    return lines + _sampled(["--count", "3", "--seed", "4", "--target", "edge", "--conjugate"])


# kind -> exit code; "boundary" lines are bad for flow only
_BAD_KINDS = {"malformed": 2, "non-finite": 2, "non-unit": 2, "off-relation": 3, "boundary": 3}


@given(
    st.integers(1, 300),
    st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(sorted(_BAD_KINDS)),
                  st.integers(0, 5)),
        max_size=3,
    ),
)
# new_checked tests unit norm before the relation, act h1 before h2*h1, but each
# names the earliest line over all its checks; and bad lines in the second chunk only
@example(100, [(0.1, "off-relation", 0), (0.2, "non-unit", 0), (0.3, "boundary", 0)])
@example(300, [(0.9, "non-unit", 0), (0.95, "malformed", 0), (0.5, "boundary", 4)])
# a malformed line refuses its chunk before flow's act runs; a boundary line before it names itself
@example(200, [(0.3, "boundary", 1), (0.6, "malformed", 0)])
@settings(max_examples=50, deadline=None)
def test_stages_stop_at_the_earliest_bad_line(interior_lines, boundary_lines, n, bad):
    # up to 300 lines with up to three bad ones: each stage exits with the
    # earliest line bad for it, names that line, and writes what the lines
    # before it give
    lines, kinds = list(interior_lines[:n]), {}
    for where, kind, pick in bad:
        i = int(where * n)
        kinds[i] = kind
        good = interior_lines[i]  # a later draw at the same line replaces an earlier one
        if kind == "boundary":
            lines[i] = boundary_lines[pick]
        elif kind == "non-unit":
            lines[i] = json.dumps({**json.loads(good), "g1": [2.0, 0.0, 0.0, 0.0]}) + "\n"
        else:
            lines[i] = _bad_line(kind, good) + "\n"
    for argv in (["flow", "--t", "0.3,1.2,0.5"], ["moment"], ["tau"]):
        code, out, err = _stdin_run(argv, lines)
        first = min((i for i, k in kinds.items() if k != "boundary" or argv[0] == "flow"),
                    default=None)
        if first is None:
            assert (code, err) == (0, "")
            continue
        assert code == _BAD_KINDS[kinds[first]]
        assert err.startswith(("error: ", "solve failure: "))
        assert f": line {first + 1}: " in err and "(row" not in err
        assert out == _stdin_run(argv, lines[:first])[1]


@pytest.mark.parametrize("value, shown", [("Infinity", "inf"), ("1e300", "1.e+300")])
@pytest.mark.parametrize("argv", [["flow", "--t", "0.3,1.2,0.5"], ["moment"], ["tau"]])
def test_non_finite_or_huge_slot_is_one_stderr_line(argv, value, shown, interior_lines):
    # the checks after the unit check run on the bad slot too; a warning they raised
    # would print to stderr ahead of the error line when the command runs
    slots = {key: [1, 0, 0, 0] for key in _SLOTS}
    bad = json.dumps(slots).replace("[1, 0, 0, 0]", f"[{', '.join([value] * 4)}]", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _stdin_run(argv, [interior_lines[0], bad + "\n"])
    assert [str(w.message) for w in caught] == []
    assert code == 2
    shown = " ".join([shown] * 4)
    assert err == f"error: line 2: slot g1 is not a finite unit quaternion: [{shown}]\n"


# ---------------------------------------------------------------------------
# one array per chunk: the bytes json.dumps and csv.writer gave
# ---------------------------------------------------------------------------


def _row(*values: float) -> list[float]:
    """23 columns cycling through values."""
    return [values[i % len(values)] for i in range(23)]


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=23, max_size=23),
    st.sampled_from(Stratum),
    st.sampled_from(Piece),
)
# -0.0, subnormals, and where repr switches to exponent form (1e16, below 1e-4)
@example(_row(-0.0, 0.0), Stratum.I, Piece.PILLOW_INTERIOR)
@example(_row(5e-324, -2.225073858507201e-308, 2.2250738585072014e-308), Stratum.I, Piece.RP2_FIBER)
@example(_row(1e16, 9999999999999998.0, -1e16, 1.0000000000000002e16), Stratum.III, Piece.RP2_FIBER)
@example(_row(1e-4, 9.999999999999999e-05, 1e-5, -1e-5, 9.99e-6), Stratum.II, Piece.RP2_FIBER)
@settings(max_examples=300, deadline=None)
def test_line_template_is_json_dumps(row, stratum, piece):
    obj = {key: row[4 * i : 4 * i + 4] for i, key in enumerate(_SLOTS)}
    obj.update(residual=row[16], mu=row[17:20], mu_lambda=row[20:])
    assert cli._LINE % tuple(row) == json.dumps(obj) + "\n"
    tagged = {**obj, "stratum": stratum.name, "piece": piece.value}
    assert cli._TAGGED % (*row, stratum.name, piece.value) == json.dumps(tagged) + "\n"


def _reps(lines: list[str]) -> Representation:
    return Representation.from_slots(np.array([[json.loads(t)[k] for k in _SLOTS] for t in lines]))


def _oracle_csv(lines: list[str], quotient: bool) -> tuple[str, str]:
    """What write_simplex_csv writes of the moment_mu or mu_lambda points of
    the lines, and the OutsidePolytope message ("" if none) that refuses
    them, less its row; at a refusal, the points of the lines before it."""
    moment, buf, err = mu_lambda if quotient else moment_mu, io.StringIO(), ""
    try:
        points = moment(_reps(lines), DEFAULT.poly)
    except OutsidePolytope as bad:
        i = bad.row[0]
        points = moment(_reps(lines[:i]), DEFAULT.poly) if i else []
        err = f"solve failure: {str(bad).removesuffix(f' (row {bad.row})')}\n"
    write_simplex_csv(points, buf)
    return buf.getvalue(), err


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("target", ["interior", "face", "edge", "vertex", "abelian"])
def test_moment_rows_equal_write_simplex_csv(target, quotient, monkeypatch):
    # 300 lines: two chunks
    lines = _sampled(["--count", "300", "--seed", "5", "--target", target, "--conjugate"])
    code, out = _run_on(["moment", *["--quotient"] * quotient], lines, monkeypatch)
    assert code == 0
    assert out == _oracle_csv(lines, quotient)[0]


@pytest.mark.parametrize("argv", [["moment"], ["moment", "--quotient"]])
@pytest.mark.parametrize("lines", [[], ["\n", "  \n"]])
def test_moment_of_no_lines_is_the_header(argv, lines, monkeypatch):
    assert _run_on(argv, lines, monkeypatch) == (0, "x1,x2,x3,region,polytope\n")


@pytest.mark.parametrize("quotient", [False, True])
@pytest.mark.parametrize("k", [0, 137, _CHUNK - 1, _CHUNK, 299])
def test_moment_outside_row_keeps_the_rows_before(k, quotient, interior_lines, monkeypatch):
    # the triple of input row k moves 2 past every facet, in the CLI and in the oracle
    lines, real = interior_lines[:300], cli.moment_coordinates
    h1 = np.array(json.loads(lines[k])["h1"])

    def pushed(rho):
        x = real(rho)
        return np.where(np.all(rho.h1.q == h1, axis=-1)[:, None], x + 2.0, x)

    monkeypatch.setattr(cli, "moment_coordinates", pushed)
    monkeypatch.setattr(polytope, "moment_coordinates", pushed)
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["moment", *["--quotient"] * quotient])
    assert code == 3
    want_out, want_err = _oracle_csv(lines, quotient)
    what = "quotient moment triple outside the simplex: [" if quotient else (
        "moment triple violates the tetrahedron: [")
    assert want_err.startswith("solve failure: " + what)
    assert err.getvalue() == want_err.replace("solve failure: ", f"solve failure: line {k + 1}: ")
    assert out.getvalue() == want_out
    assert out.getvalue().count("\n") == k + 1


_COUNTED = ((json, "dumps"), (cli, "relation_residual"), (repvar, "relation_residual"),
            (cli, "moment_coordinates"), (polytope, "SimplexPoint"), (cli, "classify_fixed_point"))


@pytest.mark.parametrize(
    "argv, residuals",
    [
        (["sample", "--count", str(_CHUNK + 3), "--seed", "3"], 2),
        (["fixed-points", "--count", str(_CHUNK + 3), "--seed", "3"], 2),
        (["flow", "--t", "0.3,1.2,0.5"], 4),
        (["tau"], 4),
        (["moment", "--quotient"], 2),
    ],
)
def test_stages_make_pinned_calls_per_chunk(argv, residuals, monkeypatch):
    # two chunks (_CHUNK + 3 rows), each with no json.dumps call and no
    # SimplexPoint, and one moment_coordinates call; relation_residual runs once
    # per chunk for the output columns and once in new_checked on input (moment
    # has no output column); fixed-points classifies each chunk in one call
    lines = _sampled(["--count", str(_CHUNK + 3), "--seed", "3"])
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*a, **k):
            calls[name] += 1
            return real(*a, **k)

        return wrapper

    for owner, name in _COUNTED:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    assert _run_on(argv, lines, monkeypatch)[0] == 0
    assert {name: calls[name] for _, name in _COUNTED} == {
        "dumps": 0, "relation_residual": residuals, "moment_coordinates": 2, "SimplexPoint": 0,
        "classify_fixed_point": 2 * (argv[0] == "fixed-points"),
    }


@pytest.mark.parametrize("argv", [["flow", "--t", "0.3,1.2,0.5"], ["moment"], ["tau"]])
def test_input_is_checked_once_per_chunk_by_new_checked(argv, monkeypatch):
    # two chunks of good lines: one new_checked call each (one unit check of
    # all four slots, inside it; cli has no check of its own) and, for flow, one act
    lines = _sampled(["--count", str(_CHUNK + 3), "--seed", "3"])
    calls = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return real(*a, **k)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((cli, "new_checked"), (repvar, "_unit_slots"), (cli, "act")):
        counted(owner, name)
    assert _run_on(argv, lines, monkeypatch)[0] == 0
    assert "_unit_slots" not in vars(cli)
    assert calls == collections.Counter(new_checked=2, _unit_slots=2, act=2 * (argv[0] == "flow"))


_SPELLINGS = {
    "separate": lambda path: ["--config", path],
    "equals": lambda path: [f"--config={path}"],
    "prefix": lambda path: ["--conf", path],
}


class TestConfig:
    @pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, spelling):
        cfg = tmp_path / "charvar.cfg"
        cfg.write_text("count=2\nseed=11\ntarget=vertex\n# comment line\n\n")
        config = _SPELLINGS[spelling](str(cfg))
        lines = sample_lines([*config, "sample"])
        assert len(lines) == 2
        lines = sample_lines([*config, "sample", "--count", "5"])
        assert len(lines) == 5

    def test_config_keys_are_each_commands_long_flags(self):
        _, commands = cli._build_parser()
        keys = {name: set(actions) for name, actions in cli._config_actions(commands).items()}
        assert keys == {
            "sample": {"count", "seed", "target", "base", "conjugate", "out"},
            "flow": {"t", "in", "out"},
            "moment": {"in", "out", "quotient", "tol"},
            "tau": {"in", "out", "check", "tol"},
            "fixed-points": {"count", "seed", "out", "tol"},
            "certify-sigma": {"samples", "seed", "grid", "out", "tol"},
            "verify": {"suite", "samples", "seed", "tol"},
        }
        assert cli._config_actions(commands)["flow"]["in"].dest == "infile"

    def test_twist_from_config(self, tmp_path):
        # --t is optional at parse time, so a t= line reaches flow
        src = tmp_path / "in.jsonl"
        src.write_text(run(["sample", "--count", "6", "--seed", "4"])[1])
        cfg = tmp_path / "twist.cfg"
        cfg.write_text("t=0.3,1.2,0.5\n")
        configured = run(["--config", str(cfg), "flow", "--in", str(src)])
        assert configured == run(["flow", "--t", "0.3,1.2,0.5", "--in", str(src)])
        assert configured[0] == 0 and configured[1]
        flag = run(["--config", str(cfg), "flow", "--t", "0,0,0", "--in", str(src)])
        assert flag == run(["flow", "--t", "0,0,0", "--in", str(src)]) != configured
        cfg.write_text("t=nan,0,0\n")
        code, err = run_err(["--config", str(cfg), "flow", "--in", str(src)])
        assert code == 2
        assert "--t expects finite numbers" in err

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _ = run(["--config", str(cfg), "sample"])
        assert code == 2

    def test_bool_values(self, tmp_path):
        cfg = tmp_path / "flags.cfg"
        for word, expect in (("ON", True), ("yes", True), ("0", False), ("off", False)):
            cfg.write_text(f"count=1\nconjugate={word}\n")
            plain = sample_lines(["sample", "--count", "1"])
            lines = sample_lines(["--config", str(cfg), "sample"])
            assert (lines != plain) is expect

    def test_bad_bool_exit_2(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# flags\nconjugate=ture\n")
        code, err = run_err(["--config", str(cfg), "sample"])
        assert code == 2
        assert f"{cfg}:2: bad value" in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            pytest.param("sample", "target", "bogus", id="bogus"),
            pytest.param("sample", "target", "fixed-base", id="fixed-base"),
            pytest.param("verify", "suite", "bogus", id="suite-bogus"),
        ],
    )
    def test_bad_target_exit_2(self, tmp_path, command, key, value):
        # a config value meets its flag's choices, at its own line
        cfg = tmp_path / "target.cfg"
        cfg.write_text(f"count=1\n{key}={value}\n")
        code, err = run_err(["--config", str(cfg), command])
        assert code == 2
        assert f"{cfg}:2: bad value for {key}" in err

    def test_missing_file_exit_2(self, tmp_path):
        # a path that cannot be opened or decoded is one error line, not a traceback
        undecodable = tmp_path / "utf16.jsonl"
        undecodable.write_bytes(b"\xff\xfe")
        for argv in (
            ["--config", "/nonexistent/path.cfg", "sample"],
            ["--config", str(tmp_path), "sample"],
            ["--config", str(undecodable), "sample"],
            ["moment", "--in", str(tmp_path)],
            ["moment", "--in", str(undecodable)],
            ["sample", "--out", str(tmp_path)],
        ):
            code, err = run_err(argv)
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1


# a config setting every key the command takes but --in/--out, and the plain
# run that must not see it
_LEAK_CASES = {
    "sample": ("count=3\nseed=5\nbase=0.2,0.3,0.2\nconjugate=yes\n", ["sample"]),
    "sample-vertex": ("target=vertex\ncount=3\nseed=5\nconjugate=yes\n", ["sample"]),
    "moment": ("quotient=on\ntol=1e-3\n", ["moment"]),
    "verify": ("suite=density\nsamples=3\nseed=9\ntol=1e-5\n", ["verify"]),
}


def _config_defaults() -> dict:
    """Every config-settable default of every command on the shared parser."""
    _, commands = cli._build_parser()
    return {
        (name, key): commands[name].get_default(action.dest)
        for name, keys in cli._config_actions(commands).items()
        for key, action in keys.items()
    }


def _output(argv, lines, monkeypatch) -> tuple[int, str]:
    """Exit code and stdout of one run on the given stdin; the wall time of a
    verify report is blanked."""
    code, out = _run_on(argv, lines, monkeypatch)
    if code == 0 and "verify" in argv:
        out = json.dumps({**json.loads(out), "wall_time_s": None})
    return code, out


@pytest.fixture(params=sorted(_LEAK_CASES))
def leak_case(request, tmp_path, interior_lines):
    """(config path, plain argv, stdin lines) of a command run; the cases of a
    command together set every key it takes, each to other than its default."""
    body, plain = _LEAK_CASES[request.param]
    keys = {
        line.partition("=")[0]
        for case, command in _LEAK_CASES.values()
        if command == plain
        for line in case.splitlines()
    }
    _, commands = cli._build_parser()
    assert keys == set(cli._config_actions(commands)[plain[0]]) - {"in", "out"}
    cfg = tmp_path / "all-keys.cfg"
    cfg.write_text(body)
    for dest, value in cli._load_config(str(cfg), commands, plain[0]).items():
        assert repr(value) != repr(commands[plain[0]].get_default(dest)), dest
    return str(cfg), plain, interior_lines[:20]


def test_config_does_not_leak_into_the_next_call(leak_case, monkeypatch):
    cfg, plain, lines = leak_case
    defaults = _config_defaults()
    before = _output(plain, lines, monkeypatch)
    configured = _output(["--config", cfg, *plain], lines, monkeypatch)
    assert before[0] == configured[0] == 0
    assert configured[1] != before[1]
    assert _output(plain, lines, monkeypatch) == before
    assert _config_defaults() == defaults


@pytest.mark.parametrize("failure", ["bad flag", "second parse"])
def test_failed_config_run_restores_defaults(leak_case, failure, monkeypatch):
    cfg, plain, lines = leak_case
    defaults = _config_defaults()
    before = _output(plain, lines, monkeypatch)
    with monkeypatch.context() as patch:
        argv = ["--config", cfg, *plain]
        if failure == "bad flag":
            argv.append("--bogus")
        else:  # the parse made with the config installed reports a flag error
            parser = cli._build_parser()[0]
            parse, parses = parser.parse_args, []

            def parse_then_fail(args):
                parses.append(parse(args))
                if len(parses) == 2:
                    parser.error("forced failure of the parse with the config installed")
                return parses[-1]

            patch.setattr(parser, "parse_args", parse_then_fail)
        with contextlib.redirect_stderr(io.StringIO()):
            assert _output(argv, lines, monkeypatch)[0] == 2
    assert _config_defaults() == defaults
    assert _output(plain, lines, monkeypatch) == before


def test_parser_built_once_across_main_calls(tmp_path, monkeypatch):
    cfg = tmp_path / "count.cfg"
    cfg.write_text("count=2\n")
    assert run(["sample", "--count", "1"])[0] == 0  # builds the parser if nothing has yet
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["sample"], ["--config", str(cfg), "sample"], ["verify", "--samples", "0"]) * 3:
        run_err(argv)
    assert built == []
