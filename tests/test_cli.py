"""End-to-end tests of the command-line interface and verify suites."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
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
from charvar.tolerances import Tolerances


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
        code, _ = run(["sample", "--base", "nan,0.2,0.2"])
        assert code == 2

    def test_base_near_the_vertex(self):
        # about 1e-170 from x = 0 the section's closed form is 0/0; at 1e-9
        # it solves (at 1e-12 h1 is within EPS_CENTER of the center, and the
        # twist flows of the sampler refuse it)
        code, err = run_err(["sample", "--base", "1e-170,1e-170,1e-170"])
        assert code == 3
        assert "vertex" in err
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

    def test_ambiguous_row_exit_3_after_the_rows_before(self):
        # at --tol 0.1 the fifth sample's [g1,h1] centrality residual (0.508)
        # lies in the gray zone: the four lines before it are written, and
        # the run ends as a solve failure
        argv = ["fixed-points", "--count", "40", "--seed", "3", "--tol", "0.1"]
        code, out = run(argv)
        assert code == 3
        assert out.count("\n") == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "14258d5211203f600bc334ae2fad2543d7752e0a1bba81be7e285e94bf2d0e8a"
        )
        code, err = run_err(argv)
        assert code == 3
        assert err.splitlines() == [
            "solve failure: [g1,h1] centrality residual 5.079e-01 in the gray zone"
        ]


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
            "solve failure: [g1,h1] centrality residual 2.187e+00 in the gray zone"
        ]

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
        "_sigma_fixed",
        "classify_fixed_points",
        "_class_equal",
        "is_abelian",
    ):
        fn = getattr(cli, name)

        def recorded(*args, _fn=fn, _name=name, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(_name, set()).add(bound.arguments["tol"])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    code, _ = run([*command, "--tol", "3e-9"])
    assert code == 0
    want = {Tolerances.with_mat(3e-9).mat}
    assert seen and {name: tols for name, tols in seen.items() if tols != want} == {}
    if "sigma" in command:  # the pillow and interior fixedness reads
        assert "_sigma_fixed" in seen


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


# sha256 of the README pipeline's files (300 tuples: more than one sampler
# batch)
PIPELINE_SHA256 = {
    "cloud.jsonl": "d17a329653da3dbdfa334d088bab05f8f4942eed71da9dfa1e4dbe468cf52339",
    "twisted.jsonl": "76436d5e7ef5f803d69041572a5f9d87f007c4801c6fa6cd12db2ef738023b45",
    "points.csv": "0b669650b5dd5ae68d02f79138e55d63fff4aaa9347db77d184f9b44ef85d711",
}


def test_readme_pipeline_output_pinned(tmp_path):
    cloud, twisted, points = (str(tmp_path / name) for name in PIPELINE_SHA256)
    assert main(["sample", "--count", "300", "--seed", "7", "--conjugate", "--out", cloud]) == 0
    assert main(["flow", "--t", "0.3,1.2,0.5", "--in", cloud, "--out", twisted]) == 0
    assert main(["moment", "--quotient", "--in", twisted, "--out", points]) == 0
    for name, digest in PIPELINE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
    _, partial = _run_on(argv, lines, monkeypatch)
    assert partial == _run_on(argv, lines[:299], monkeypatch)[1]


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


# a config setting every key the command takes but --in/--out, and the plain
# run that must not see it
_LEAK_CASES = {
    "sample": ("count=3\nseed=5\ntarget=vertex\nbase=0.2,0.3,0.2\nconjugate=yes\n", ["sample"]),
    "moment": ("quotient=on\ntol=1e-3\n", ["moment"]),
    "verify": ("suite=density\nsamples=3\nseed=9\ntol=1e-3\n", ["verify"]),
}


def _config_defaults() -> dict:
    """Every config-settable default of every command on the shared parser."""
    _, commands = cli._build_parser()
    return {
        (name, key): commands[name].get_default(cli._DESTS.get(key, key))
        for name, keys in cli._COMMAND_KEYS.items()
        for key in keys
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
    """(config path, plain argv, stdin lines) of a command, with every key it takes set."""
    body, plain = _LEAK_CASES[request.param]
    keys = {line.partition("=")[0] for line in body.splitlines()}
    assert keys == cli._COMMAND_KEYS[request.param] - {"in", "out"}
    cfg = tmp_path / "all-keys.cfg"
    cfg.write_text(body)
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
