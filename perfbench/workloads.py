"""The three benchmark workloads and their output checks.

Each workload is a closed loop with one caller: round ``i`` gets its inputs
from ``(seed, i)``, calls charvar through its public functions inside a
timing ``Window``, then checks the outputs outside the window.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import charvar
from charvar import cli

RESIDUAL_TOL = 1e-9
BASE_POINT_TOL = 1e-7
_SLOTS = ("g1", "h1", "g2", "h2")


@dataclass
class RoundResult:
    """One round: items attempted and failed, seconds inside the program,
    a digest of the outputs, and the calls the workload made directly into
    charvar as ``name -> [calls, batch elements]``."""

    items: int
    failed: int
    seconds: float
    digest: str
    calls: dict


class Window:
    """Times the program calls of one round; installs the tracer, if given,
    only while the window is open, so output checks are never traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.uninstall()


# ---------------------------------------------------------------------------
# independent arithmetic for the checks (the program's own kernels are what
# is being measured, so the checks do not reuse them)
# ---------------------------------------------------------------------------


def _qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def _inv(a: np.ndarray) -> np.ndarray:
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def relation_residual_oracle(g1, h1, g2, h2) -> np.ndarray:
    """Frobenius distance of [g1,h1][g2,h2] from 1, from raw quaternions."""
    c1 = _qmul(_qmul(g1, h1), _qmul(_inv(g1), _inv(h1)))
    c2 = _qmul(_qmul(g2, h2), _qmul(_inv(g2), _inv(h2)))
    word = _qmul(c1, c2)
    word[..., 0] -= 1.0
    return np.sqrt(2.0) * np.linalg.norm(word, axis=-1)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# stream: sample | flow | moment through the CLI entry point, on files
# ---------------------------------------------------------------------------


class Stream:
    """``charvar sample --conjugate`` -> ``flow --t`` -> ``moment --quotient``
    via ``charvar.cli.main``; an item is one tuple through all three stages."""

    name = "stream"
    round_s = 0.2  # nominal round time at the seed commit, sizes traced runs

    def __init__(self, seed: int, workdir: str, chunk: int = 25):
        self.seed = seed
        self.chunk = chunk
        self.files = [os.path.join(workdir, f) for f in ("sampled.jsonl", "flowed.jsonl", "moment.csv")]

    def describe(self) -> dict:
        return {"round": f"{self.chunk} tuples through 3 CLI stages"}

    def _argvs(self, i: int, count: int) -> list[list[str]]:
        rng = np.random.default_rng((self.seed, i))
        sample_seed = int(rng.integers(2**63))
        t = ",".join(repr(float(v)) for v in rng.uniform(0.0, 2.0 * np.pi, size=3))
        sampled, flowed, moment = self.files
        return [
            ["sample", "--count", str(count), "--seed", str(sample_seed), "--conjugate", "--out", sampled],
            ["flow", "--t", t, "--in", sampled, "--out", flowed],
            ["moment", "--quotient", "--in", flowed, "--out", moment],
        ]

    def warm_up(self) -> None:
        for argv in self._argvs(0, 1):
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up stage {argv[0]} failed")

    def run_round(self, i: int, window: Window) -> RoundResult:
        argvs = self._argvs(i, self.chunk)
        with window:
            codes = [cli.main(argv) for argv in argvs]
        calls = {f"cli.stage.{argv[0]}": [1, 0] for argv in argvs}
        if any(codes):
            return RoundResult(self.chunk, self.chunk, window.seconds, "error", calls)
        bad = self._check()
        with open(self.files[1], "rb") as f1, open(self.files[2], "rb") as f2:
            digest = _digest(f1.read(), f2.read())
        return RoundResult(self.chunk, int(bad.sum()), window.seconds, digest, calls)

    def _check(self) -> np.ndarray:
        """Per tuple: residual < 1e-9 on every JSONL line written, and the CSV
        row strictly inside the simplex."""
        bad = np.zeros(self.chunk, bool)
        try:
            for path in self.files[:2]:
                with open(path) as fh:
                    lines = [json.loads(line) for line in fh if line.strip()]
                if len(lines) != self.chunk:
                    return np.ones(self.chunk, bool)
                q = np.array([[obj[s] for s in _SLOTS] for obj in lines], dtype=float)
                bad |= ~(relation_residual_oracle(*np.moveaxis(q, 1, 0)) < RESIDUAL_TOL)
            with open(self.files[2], newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != self.chunk:
                return np.ones(self.chunk, bool)
            x = np.array([[float(v) for v in row[:3]] for row in rows])
            region = np.array([row[3] for row in rows])
            bad |= ~((x > 0.0).all(axis=1) & (x.sum(axis=1) < 1.0) & (region == "interior"))
        except (ValueError, KeyError, IndexError):
            return np.ones(self.chunk, bool)
        return bad


# ---------------------------------------------------------------------------
# ensemble: batched flows over one section per base point
# ---------------------------------------------------------------------------


class Ensemble:
    """section(x) once, then batched act -> conjugated -> act ->
    relation_residual and mu_lambda_coordinates over ``batch`` elements; an
    item is one (rho, t) pair."""

    name = "ensemble"
    round_s = 1.0

    def __init__(self, seed: int, workdir: str, batch: int = 100_000):
        self.seed = seed
        self.batch = batch
        self.working_set_bytes = 0

    def describe(self) -> dict:
        return {
            "round": f"1 base point, {self.batch} (rho, t) pairs",
            "working_set_bytes_computed": self.working_set_bytes,
        }

    def _inputs(self, i: int, n: int):
        rng = np.random.default_rng((self.seed, i))
        while True:  # strictly interior, at least 0.02 from every facet
            x = rng.uniform(0.02, 1.0, size=3)
            if x.sum() < 0.98:
                break
        k = rng.normal(size=(n, 4))
        k /= np.linalg.norm(k, axis=-1, keepdims=True)
        t1 = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
        t2 = rng.uniform(0.0, 2.0 * np.pi, size=(n, 3))
        return x, t1, k, t2

    @staticmethod
    def _pipeline(x, t1, k, t2):
        rho = charvar.section(x)
        moved = charvar.act(charvar.TorusElement.from_array(t1), rho)
        turned = moved.conjugated(charvar.GroupElement(k))
        final = charvar.act(charvar.TorusElement.from_array(t2), turned)
        residual = charvar.relation_residual(final)
        base = charvar.mu_lambda_coordinates(final)
        return (rho, moved, turned, final), residual, base

    def warm_up(self) -> None:
        x, t1, k, t2 = self._inputs(0, self.batch)
        self._pipeline(x, t1[:64], k[:64], t2[:64])

    def run_round(self, i: int, window: Window) -> RoundResult:
        n = self.batch
        x, t1, k, t2 = self._inputs(i, n)
        calls = {
            "tau.section": [1, 0],
            "flows.act": [2, 2 * n],
            "su2.conjugate": [4, 4 * n],
            "repvar.relation_residual": [1, n],
            "polytope.mu_lambda_coordinates": [1, 0],
        }
        try:
            with window:
                reps, residual, base = self._pipeline(x, t1, k, t2)
        except charvar.CharVarError:
            return RoundResult(n, n, window.seconds, "error", calls)
        final = reps[-1]
        slots = [s.q for s in final.elements()]
        ok = (residual < RESIDUAL_TOL) & (relation_residual_oracle(*slots) < RESIDUAL_TOL)
        ok &= np.max(np.abs(base - x), axis=-1) < BASE_POINT_TOL
        # the kernel element (pi, pi, pi) must fix every slot bitwise
        fixed = charvar.act(charvar.TorusElement.kernel(), final)
        for a, b in zip(fixed.elements(), final.elements()):
            ok &= np.all(a.q == b.q, axis=-1)
        self.working_set_bytes = sum(
            a.nbytes for a in (t1, k, t2, residual, base)
        ) + sum(s.q.nbytes for r in reps for s in r.elements())
        digest = _digest(residual.tobytes(), base.tobytes(), *(s.tobytes() for s in slots))
        return RoundResult(n, int(n - ok.sum()), window.seconds, digest, calls)


# ---------------------------------------------------------------------------
# certify: the scalar decision layer through the verification entry points
# ---------------------------------------------------------------------------


class Certify:
    """run_verify("all", samples) then run_sigma_certification(sigma_samples,
    grid=10); an item is one trial as counted in the two reports."""

    name = "certify"
    round_s = 0.8

    def __init__(self, seed: int, workdir: str, samples: int = 10, sigma_samples: int = 10):
        self.seed = seed
        self.samples = samples
        self.sigma_samples = sigma_samples

    def describe(self) -> dict:
        return {"round": f"verify all x {self.samples} samples + certify-sigma x {self.sigma_samples}, grid 10"}

    def _seeds(self, i: int) -> tuple[int, int]:
        rng = np.random.default_rng((self.seed, i))
        return int(rng.integers(2**32)), int(rng.integers(2**32))

    def warm_up(self) -> None:
        s1, s2 = self._seeds(0)
        cli.run_verify("all", samples=1, seed=s1)
        cli.run_sigma_certification(samples=1, seed=s2, grid=10)

    def run_round(self, i: int, window: Window) -> RoundResult:
        s1, s2 = self._seeds(i)
        calls = {f"cli.verify.{name}": [1, 0] for name in ("flows", "polytope", "tau", "sigma", "density")}
        calls["cli.run_sigma_certification"] = [1, 0]
        try:
            with window:
                report = cli.run_verify("all", samples=self.samples, seed=s1)
                sig = cli.run_sigma_certification(samples=self.sigma_samples, seed=s2, grid=10)
        except charvar.CharVarError:
            n = 5 * self.samples + self.sigma_samples
            return RoundResult(n, n, window.seconds, "error", calls)
        items = report.trials + sig["samples"]
        failed = min(items, report.failures + len(sig["violations"]))
        digest = _digest(
            json.dumps(
                [report.trials, report.failures, report.max_residual, sig["counts"], sig["max_residual"], sig["violations"]],
                sort_keys=True,
            ).encode()
        )
        return RoundResult(items, failed, window.seconds, digest, calls)


WORKLOADS = {w.name: w for w in (Stream, Ensemble, Certify)}


def make(name: str, seed: int, workdir: str, **sizes):
    return WORKLOADS[name](seed, workdir, **sizes)

