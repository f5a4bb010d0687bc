"""End-to-end tests of the command-line interface and verify suites."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

from charvar import cli
from charvar.cli import main, rep_from_obj, rep_to_obj, run_sigma_certification, run_verify
from charvar.errors import PreconditionViolated
from charvar.flows import TorusElement, act
from charvar.repvar import Representation, relation_residual
from charvar.su2 import haar_sample


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


PILLOW_OBJ = {
    "g1": [0.0, 0.0, 0.0, 1.0],
    "h1": [0.0, -1.0, 0.0, 0.0],
    "g2": [0.0, -1.0, 0.0, 0.0],
    "h2": [0.0, 0.0, 0.0, 1.0],
}


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(30)
        a, b = haar_sample(rng), haar_sample(rng)
        rho = Representation(a, b, b, a)
        back = rep_from_obj(json.loads(json.dumps(rep_to_obj(rho))))
        for x, y in zip(back.elements(), rho.elements()):
            assert np.array_equal(x.q, y.q)

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionViolated):
            rep_from_obj({"g1": [1, 0, 0, 0]})
        bad = dict(PILLOW_OBJ)
        bad["g1"] = [2.0, 0.0, 0.0, 0.0]
        with pytest.raises(PreconditionViolated):
            rep_from_obj(bad)
        for value in (float("nan"), float("inf")):
            bad["g1"] = [value] * 4
            with pytest.raises(PreconditionViolated, match="non-finite"):
                rep_from_obj(bad)

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

    @pytest.mark.parametrize("line", ['{"g1": [1, 0, 0', "5", '{"g1": "abcd"}'])
    def test_malformed_line_exit_2(self, tmp_path, line):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(PILLOW_OBJ) + "\n\n" + line + "\n")
        code, err = run_err(["moment", "--in", str(src)])
        assert code == 2
        assert "line 3:" in err


class TestSample:
    def test_interior_lines(self):
        lines = sample_lines(["sample", "--count", "10", "--seed", "7", "--target", "interior"])
        assert len(lines) == 10
        for obj in lines:
            assert obj["residual"] < 1e-8
            rho = rep_from_obj(obj)
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

    def test_solve_failure_exit_3(self, tmp_path):
        # not a relation solution: rejected where the line is read
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(rep_to_obj(non_solution())) + "\n")
        code, err = run_err(["tau", "--in", str(src)])
        assert code == 3
        assert "line 1: surface relation violated" in err


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


class TestCertifySigma:
    def test_report_shape_and_exit(self):
        code, out = run(["certify-sigma", "--samples", "12", "--seed", "4", "--grid", "4"])
        assert code == 0
        rep = json.loads(out)
        assert rep["violations"] == []
        assert sum(rep["counts"].values()) == 12
        assert rep["max_residual"]["conjugator-residual"] < 1e-8

    def test_library_entry_point(self):
        rep = run_sigma_certification(8, seed=9, grid=4)
        assert rep["violations"] == []
        assert any("factor-2" in note for note in rep["notes"])


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
        monkeypatch.setattr(cli, "tau", lambda rho: act(TorusElement(0.3, 0.0, 0.0), rho))
        rep = run_verify("tau", samples=5, seed=5)
        assert rep.failures == 5
        assert rep.max_residual["involution"] > 0.1
        assert rep.max_residual["reversal"] > 0.1


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


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "charvar.cfg"
        cfg.write_text("count=2\nseed=11\ntarget=vertex\n# comment line\n\n")
        lines = sample_lines(["--config", str(cfg), "sample"])
        assert len(lines) == 2
        lines = sample_lines(["--config", str(cfg), "sample", "--count", "5"])
        assert len(lines) == 5

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

    @pytest.mark.parametrize("value", ["bogus", "fixed-base"])
    def test_bad_target_exit_2(self, tmp_path, value):
        # config values skip argparse's choices; the converter checks them
        cfg = tmp_path / "target.cfg"
        cfg.write_text(f"count=1\ntarget={value}\n")
        code, err = run_err(["--config", str(cfg), "sample"])
        assert code == 2
        assert f"{cfg}:2: bad value for target" in err

    def test_missing_file_exit_2(self):
        code, _ = run(["--config", "/nonexistent/path.cfg", "sample"])
        assert code == 2
