"""Command-line front end: sampling, flowing, involutions, verification.

Formats: JSONL for representation streams, CSV for point clouds, JSON for
reports.  Every run is a deterministic function of its flags: all randomness
flows from ``--seed``.

Exit codes: 0 success, 1 verification failures, 2 flag errors, 3 solve
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateGenerator,
    OutsidePolytope,
    PreconditionViolated,
    RelationViolated,
    SectionSolveFailure,
)
from .flows import TorusElement, act, verify_flow_identities
from .polytope import (
    M_P,
    NU_NORMALIZATION_NOTE,
    STD_DELTA,
    TILDE_DELTA,
    boundary_commutation_check,
    moment_coordinates,
    moment_mu,
    mu_lambda,
    mu_lambda_coordinates,
    write_simplex_csv,
)
from .repvar import Representation, class_equal, is_abelian, new_checked, relation_residual
from .sampler import SampleSpec, Target, _diag, _random_torus, density_witness, sample
from .sigma import (
    Piece,
    Stratum,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_point,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma,
    sigma_fixed_conjugator,
)
from .su2 import (
    AlgebraElement,
    GroupElement,
    _cross,
    commutator,
    exp_alg,
    haar_sample,
    trace_angle,
)
from .tau import section, tau
from .tolerances import DEFAULT, Tolerances

__all__ = ["main", "run_verify", "run_sigma_certification", "VerifyReport"]

_SLOTS = ("g1", "h1", "g2", "h2")
_ID = GroupElement.identity()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rep_to_obj(rho: Representation) -> dict:
    """JSON-ready dict for one representation, plus residual and moment columns."""
    obj = {name: [float(v) for v in x.q] for name, x in zip(_SLOTS, rho.elements())}
    obj["residual"] = float(relation_residual(rho))
    mu = moment_coordinates(rho)
    obj["mu"] = [float(v) for v in mu]
    obj["mu_lambda"] = [float(v) for v in M_P.apply_inverse(mu)]
    return obj


def rep_from_obj(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise PreconditionViolated("input line is not a JSON object")
    slots = []
    for key in _SLOTS:
        if key not in obj:
            raise PreconditionViolated(f"input line lacks slot {key!r}")
        try:
            q = np.asarray(obj[key], dtype=float)
        except (TypeError, ValueError):
            raise PreconditionViolated(f"slot {key!r} must hold numbers") from None
        if q.shape != (4,):
            raise PreconditionViolated(f"slot {key!r} must hold four components")
        if not np.all(np.isfinite(q)):
            raise PreconditionViolated(f"slot {key!r} has a non-finite component")
        if abs(float(q @ q) - 1.0) > 1e-9:
            raise PreconditionViolated(f"slot {key!r} is not a unit quaternion")
        # keep the parsed bits verbatim so parse/serialize round-trips exactly
        slots.append(GroupElement(q))
    return Representation(*slots)


def read_jsonl(stream: IO[str], rel_tol: float) -> Iterator[Representation]:
    """Representations from JSONL lines, each a solution of the relation to rel_tol."""
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rho = new_checked(*rep_from_obj(json.loads(line)).elements(), rel_tol)
        except RelationViolated as bad:
            raise RelationViolated(f"line {lineno}: {bad}") from None
        except (json.JSONDecodeError, PreconditionViolated) as bad:
            raise PreconditionViolated(f"line {lineno}: {bad}") from None
        yield rho


def _write_line(stream: IO[str], obj: dict) -> None:
    stream.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable outcome of one verification run."""

    suite: str
    trials: int
    failures: int
    max_residual: dict
    wall_time_s: float
    seed: int
    tolerances: dict
    notes: tuple

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _interior_stream(n: int, rng: np.random.Generator) -> Iterator[Representation]:
    spec = SampleSpec(count=n, seed=0, target=Target.INTERIOR_UNIFORM_BASE, conjugate=True)
    return sample(spec, rng)


def _nonkernel_torus(rng: np.random.Generator) -> TorusElement:
    while True:
        t = _random_torus(rng)
        if float(t.kernel_distance()) > 1e-3:
            return t


def _flows_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    failures = 0
    res = {
        "relation-after-flow": 0.0,
        "intertwine-h2": 0.0,
        "intertwine-h1": 0.0,
        "kernel-fix": 0.0,
    }
    for i, rho in enumerate(_interior_stream(n, rng)):
        ok = True
        moved = act(_random_torus(rng), rho)
        r = float(relation_residual(moved))
        res["relation-after-flow"] = max(res["relation-after-flow"], r)
        ok &= r < tol.mat

        ident = verify_flow_identities(rho, float(rng.uniform(0.0, 2.0 * np.pi)))
        res["intertwine-h2"] = max(res["intertwine-h2"], float(ident.residual_h2))
        res["intertwine-h1"] = max(res["intertwine-h1"], float(ident.residual_h1))
        ok &= ident.passed(tol.mat)

        k = act(TorusElement.kernel(), rho).slot_distance(rho)
        res["kernel-fix"] = max(res["kernel-fix"], k)
        ok &= k == 0.0

        if i % 10 == 0:
            ok &= not class_equal(act(_nonkernel_torus(rng), rho), rho, tol=tol.mat)
        failures += 0 if ok else 1
    return n, failures, res


def _near_boundary_pair(rng: np.random.Generator, eps: float) -> tuple[GroupElement, GroupElement]:
    a = _diag(float(rng.uniform(0.3, np.pi - 0.3)))
    b = _diag(float(rng.uniform(0.3, np.pi - 0.3)))
    bump = exp_alg(AlgebraElement(np.array([eps, 0.0, 0.0])))
    return a, bump * b


def _polytope_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    failures = 0
    res = {
        "tetra-membership": -np.inf,
        "vertex-bijection": 0.0,
        "quotient-interior": -np.inf,
        "section-roundtrip": 0.0,
    }
    # Haar pairs land inside the trace tetrahedron
    a = haar_sample(rng, (n,))
    b = haar_sample(rng, (n,))
    coords = np.stack([trace_angle(a), trace_angle(b), trace_angle(a * b)], axis=-1)
    margins = TILDE_DELTA.margin(coords)
    res["tetra-membership"] = float(np.max(margins))
    failures += int(np.count_nonzero(margins > tol.poly))

    # boundary <=> commuting on near-boundary constructions, both directions
    small = n // 10 + 1
    for _ in range(small):
        eps = 10.0 ** float(rng.uniform(-8.0, -4.0))
        h1, h2 = _near_boundary_pair(rng, eps)
        rho = Representation(_diag(0.1), h1, _diag(0.2), h2)
        if not boundary_commutation_check(rho, poly_tol=10.0 * eps, mat_tol=10.0 * eps):
            failures += 1
    for rho in _interior_stream(small, rng):
        if not boundary_commutation_check(rho, poly_tol=tol.poly, mat_tol=tol.mat):
            failures += 1

    # integer vertex bijection, exact arithmetic
    images = (M_P.m.astype(np.int64) @ STD_DELTA.vertices.astype(np.int64).T).T
    got = {tuple(int(x) for x in v) for v in images}
    want = {tuple(int(x) for x in v) for v in TILDE_DELTA.vertices.astype(np.int64)}
    if got != want or len(got) != len(STD_DELTA.vertices):
        failures += 1
        res["vertex-bijection"] = 1.0

    # quotient coordinates of interior samples stay strictly interior,
    # and the section inverts the quotient moment
    for rho in _interior_stream(small, rng):
        m = float(STD_DELTA.margin(mu_lambda_coordinates(rho)))
        res["quotient-interior"] = max(res["quotient-interior"], m)
        if m >= 0.0:
            failures += 1
    for _ in range(small):
        x = rng.uniform(0.05, 0.45, size=3)
        if float(STD_DELTA.margin(x)) > -0.02:
            continue
        err = float(np.max(np.abs(mu_lambda_coordinates(section(x)) - x)))
        res["section-roundtrip"] = max(res["section-roundtrip"], err)
        if err > 100.0 * tol.f:
            failures += 1
    return n + 3 * small, failures, res


def _tau_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    failures = 0
    res = {"moment-drift": 0.0, "involution": 0.0, "reversal": 0.0}
    for rho in _interior_stream(n, rng):
        image = tau(rho)
        drift = float(np.max(np.abs(mu_lambda_coordinates(image) - mu_lambda_coordinates(rho))))
        t = _random_torus(rng)
        involution = tau(image).slot_distance(rho)
        reversal = tau(act(t, rho)).slot_distance(act(t.inverse(), image))
        res["moment-drift"] = max(res["moment-drift"], drift)
        res["involution"] = max(res["involution"], involution)
        res["reversal"] = max(res["reversal"], reversal)
        ok = drift < 100.0 * tol.f and involution < tol.mat and reversal < tol.mat
        failures += 0 if ok else 1
    return n, failures, res


def _pure_unit(rng: np.random.Generator) -> GroupElement:
    v = AlgebraElement(rng.normal(size=3)).unit()
    return GroupElement(np.concatenate(([0.0], v.v)))


def _axis_unit(g: GroupElement) -> GroupElement:
    return GroupElement(np.concatenate(([0.0], AlgebraElement(g.vec).unit().v)))


def _sigma_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    failures = 0
    res = {"pillow-conjugator": 0.0, "interval-fix": 0.0}
    small = max(n // 10, 1)

    for _ in range(n):
        k = sigma_fixed_conjugator(pillow_point(haar_sample(rng), haar_sample(rng)))
        if k is None:
            failures += 1
            continue
        dev = float(min(np.linalg.norm(k.q - _ID.q), np.linalg.norm(k.q + _ID.q)))
        res["pillow-conjugator"] = max(res["pillow-conjugator"], dev)
        if dev > tol.mat * 10.0:
            failures += 1

    for _ in range(small):
        k1, k2 = _pure_unit(rng), _pure_unit(rng)
        if not class_equal(rp2_fiber_point(k1), rp2_fiber_point(-k1), tol=tol.mat):
            failures += 1
        if float(np.linalg.norm(_cross(k1.vec, k2.vec))) > 1e-2:
            if class_equal(rp2_fiber_point(k1), rp2_fiber_point(k2), tol=tol.mat):
                failures += 1

    for _ in range(small):
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
        report = certify_interval_injectivity(float(theta), float(s), grid=5)
        if not report.passed:
            failures += 1

    one = GroupElement.identity()
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rho = Representation(
            one if signs[0] > 0 else -one,
            one if signs[1] > 0 else -one,
            one if signs[1] > 0 else -one,
            one if signs[0] > 0 else -one,
        )
        if classify_fixed_point(rho, tol=tol.mat).stratum is not Stratum.III:
            failures += 1

    for rho in _interior_stream(small, rng):  # interior classes are never swap-fixed
        if sigma_fixed_conjugator(rho, tol=tol.mat) is not None:
            failures += 1
    return n + 4 * small + 4, failures, res


def _density_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    failures = 0
    res = {"witness-approach": 0.0}
    for _ in range(n):
        angles = rng.uniform(0.3, np.pi - 0.3, size=4)
        rho = Representation(*(_diag(float(v)) for v in angles))
        ok = not is_abelian(density_witness(rho, 0.5))
        ok &= not is_abelian(density_witness(rho, 1.0))
        near = density_witness(rho, 1e-4)
        gap = near.slot_distance(rho)
        res["witness-approach"] = max(res["witness-approach"], gap)
        ok &= gap < 1e-3
        failures += 0 if ok else 1
    return n, failures, res


_SUITES = {
    "flows": _flows_suite,
    "polytope": _polytope_suite,
    "tau": _tau_suite,
    "sigma": _sigma_suite,
    "density": _density_suite,
}


def run_verify(
    suite: str,
    samples: int = 1000,
    seed: int = 0,
    tol: Optional[Tolerances] = None,
) -> VerifyReport:
    """Run one named verification suite (or ``"all"``) and build its report."""
    tol = tol or DEFAULT
    names = list(_SUITES) if suite == "all" else [suite]
    if any(name not in _SUITES for name in names):
        raise PreconditionViolated(f"unknown suite {suite!r}")
    start = time.perf_counter()
    trials = 0
    failures = 0
    residuals: dict = {}
    for offset, name in enumerate(names):
        t, f, res = _SUITES[name](samples, np.random.default_rng(seed + offset), tol)
        trials += t
        failures += f
        prefix = f"{name}." if suite == "all" else ""
        for key, val in res.items():
            residuals[prefix + key] = val
    return VerifyReport(
        suite=suite,
        trials=trials,
        failures=failures,
        max_residual=residuals,
        wall_time_s=time.perf_counter() - start,
        seed=seed,
        tolerances=asdict(tol),
        notes=(NU_NORMALIZATION_NOTE,),
    )


# ---------------------------------------------------------------------------
# fixed-point enumeration and certification
# ---------------------------------------------------------------------------


def _fixed_point_stream(count: int, rng: np.random.Generator) -> Iterator[Representation]:
    i = 0
    while i < count:
        kind = i % 4
        if kind == 0:
            g, h = haar_sample(rng), haar_sample(rng)
            if float(np.linalg.norm(commutator(g, h).vec)) < 1e-3:
                continue
            yield pillow_point(g, h)
        elif kind == 1:
            g, h = haar_sample(rng), haar_sample(rng)
            comm = commutator(g, h)
            if float(np.linalg.norm(comm.vec)) < 1e-3:
                continue
            yield blowup_point(g, h, _axis_unit(comm))
        elif kind == 2:
            yield rp2_fiber_point(_pure_unit(rng))
        else:
            theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
            yield n2_interval(float(theta), float(s), float(rng.uniform(0.1, np.pi / 2 - 0.1)))
        i += 1


def run_sigma_certification(
    samples: int, seed: int, tol: Optional[Tolerances] = None, grid: int = 10
) -> dict:
    """Full certification of the swap fixed locus; returns a JSON-ready report."""
    tol = tol or DEFAULT
    rng = np.random.default_rng(seed)
    counts: dict = {piece.value: 0 for piece in Piece}
    violations: list[str] = []
    worst = {"conjugator-residual": 0.0}

    for idx, rho in enumerate(_fixed_point_stream(samples, rng)):
        point = classify_fixed_point(rho, tol=tol.mat)
        counts[point.piece.value] += 1
        resid = rho.conjugated(point.conjugator).slot_distance(sigma(rho))
        worst["conjugator-residual"] = max(worst["conjugator-residual"], resid)
        if resid >= tol.mat * 10.0:
            violations.append(f"sample {idx}: conjugator residual {resid:.3e}")

    for _ in range(max(samples // 10, 1)):
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
        report = certify_interval_injectivity(float(theta), float(s), grid=grid)
        if not report.passed:
            violations.append(
                f"interval ({theta:.4f},{s:.4f}): "
                f"{len(report.fixed_failures)} unfixed, {len(report.collisions)} collisions"
            )
    return {
        "suite": "sigma-certification",
        "samples": samples,
        "grid": grid,
        "seed": seed,
        "counts": counts,
        "max_residual": worst,
        "violations": violations,
        "tolerances": asdict(tol),
        "notes": [NU_NORMALIZATION_NOTE],
    }


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _open_out(path: Optional[str]):
    return open(path, "w") if path else sys.stdout


def _open_in(path: Optional[str]):
    return open(path, "r") if path else sys.stdin


def _close(stream, path: Optional[str]) -> None:
    if path:
        stream.close()


def _parse_triple(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise PreconditionViolated(f"{flag} expects three comma-separated numbers")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise PreconditionViolated(f"{flag} expects numbers, got {text!r}") from None


def _tolerances(args: argparse.Namespace) -> Tolerances:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT
    # a NaN tolerance passes every "residual >= tol" check
    if not (np.isfinite(tol) and tol > 0.0):
        raise PreconditionViolated(f"tol must be a positive finite number, got {tol!r}")
    return Tolerances.with_mat(tol)


def cmd_sample(args: argparse.Namespace) -> int:
    target = Target(args.target)
    base = None
    if args.base is not None:
        base = _parse_triple(args.base, "--base")
        if target is Target.INTERIOR_UNIFORM_BASE:
            target = Target.FIXED_BASE
    spec = SampleSpec(
        count=args.count, seed=args.seed, target=target, base=base, conjugate=args.conjugate
    )
    out = _open_out(args.out)
    try:
        for rho in sample(spec):
            _write_line(out, rep_to_obj(rho))
    finally:
        _close(out, args.out)
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    phi = _parse_triple(args.t, "--t")
    t = TorusElement(float(phi[0]), float(phi[1]), float(phi[2]))
    src = _open_in(args.infile)
    out = _open_out(args.out)
    try:
        for rho in read_jsonl(src, DEFAULT.rel):
            _write_line(out, rep_to_obj(act(t, rho)))
    finally:
        _close(src, args.infile)
        _close(out, args.out)
    return 0


def cmd_moment(args: argparse.Namespace) -> int:
    mapper = mu_lambda if args.quotient else moment_mu
    tol = _tolerances(args)
    src = _open_in(args.infile)
    out = _open_out(args.out)
    try:
        points = (mapper(rho, tol=tol.poly) for rho in read_jsonl(src, tol.rel))
        write_simplex_csv(points, out)
    finally:
        _close(src, args.infile)
        _close(out, args.out)
    return 0


def cmd_tau(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    src = _open_in(args.infile)
    out = _open_out(args.out)
    bad = 0
    try:
        for rho in read_jsonl(src, tol.rel):
            image = tau(rho)
            if args.check and not class_equal(tau(image), rho, tol=tol.mat):
                bad += 1
            _write_line(out, rep_to_obj(image))
    finally:
        _close(src, args.infile)
        _close(out, args.out)
    return 1 if bad else 0


def cmd_fixed_points(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    rng = np.random.default_rng(args.seed)
    out = _open_out(args.out)
    try:
        for rho in _fixed_point_stream(args.count, rng):
            point = classify_fixed_point(rho, tol=tol.mat)
            obj = rep_to_obj(rho)
            obj["stratum"] = point.stratum.name
            obj["piece"] = point.piece.value
            _write_line(out, obj)
    finally:
        _close(out, args.out)
    return 0


def cmd_certify_sigma(args: argparse.Namespace) -> int:
    report = run_sigma_certification(args.samples, args.seed, _tolerances(args), args.grid)
    out = _open_out(args.out)
    try:
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    finally:
        _close(out, args.out)
    return 1 if report["violations"] else 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.suite, samples=args.samples, seed=args.seed, tol=_tolerances(args))
    sys.stdout.write(report.to_json() + "\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_TARGETS = [t.value for t in Target if t is not Target.FIXED_BASE]


def _target(text: str) -> str:
    if text not in _TARGETS:
        raise ValueError(text)
    return text


def _at_least(minimum: int):
    """Integer converter with a floor, shared by the count flags and config lines."""

    def convert(text: str) -> int:
        if int(text) < minimum:
            raise ValueError(text)
        return int(text)

    convert.__name__ = f"integer >= {minimum}"  # argparse names the type in its message
    return convert


_COUNT = _at_least(1)
_GRID = _at_least(2)


def _flag(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


_CONFIG_KEYS = {
    "count": _COUNT,
    "seed": int,
    "samples": _COUNT,
    "grid": _GRID,
    "tol": float,
    "target": _target,
    "base": str,
    "t": str,
    "suite": str,
    "out": str,
    "in": str,
    "conjugate": _flag,
    "check": _flag,
    "quotient": _flag,
}

_COMMAND_KEYS = {
    "sample": {"count", "seed", "target", "base", "conjugate", "out"},
    "flow": {"t", "in", "out"},
    "moment": {"in", "out", "quotient", "tol"},
    "tau": {"in", "out", "check", "tol"},
    "fixed-points": {"count", "seed", "out", "tol"},
    "certify-sigma": {"samples", "seed", "grid", "out", "tol"},
    "verify": {"suite", "samples", "seed", "tol"},
}

_DESTS = {"in": "infile"}


def _load_config(path: str) -> dict:
    values: dict = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionViolated(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise PreconditionViolated(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val)
            except ValueError:
                raise PreconditionViolated(
                    f"{path}:{lineno}: bad value for {key}: {val!r}"
                ) from None
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Sample, flow, and verify conjugacy classes of"
        " commutator-relation quadruples in SU(2).",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict = {}

    sp = sub.add_parser("sample", help="draw representations and write JSONL")
    sp.add_argument("--count", type=_COUNT, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--target",
        choices=_TARGETS,
        default="interior",
    )
    sp.add_argument("--base", help="x1,x2,x3 interior base point (pins the fiber)")
    sp.add_argument("--conjugate", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_sample)
    registry["sample"] = sp

    fp = sub.add_parser("flow", help="apply a twist triple to a JSONL stream")
    fp.add_argument("--t", required=True, help="phi1,phi2,phi3 twist angles")
    fp.add_argument("--in", dest="infile")
    fp.add_argument("--out")
    fp.set_defaults(handler=cmd_flow)
    registry["flow"] = fp

    mp = sub.add_parser("moment", help="trace coordinates of a JSONL stream as CSV")
    mp.add_argument("--in", dest="infile")
    mp.add_argument("--out")
    mp.add_argument("--quotient", action="store_true", help="emit simplex coordinates")
    mp.add_argument("--tol", type=float)
    mp.set_defaults(handler=cmd_moment)
    registry["moment"] = mp

    tp = sub.add_parser("tau", help="apply the involution (h1 g1, h1^-1, h2 g2, h2^-1)")
    tp.add_argument("--in", dest="infile")
    tp.add_argument("--out")
    tp.add_argument("--check", action="store_true", help="verify the involution squares to id")
    tp.add_argument("--tol", type=float)
    tp.set_defaults(handler=cmd_tau)
    registry["tau"] = tp

    xp = sub.add_parser("fixed-points", help="sample swap-fixed classes with tags")
    xp.add_argument("--count", type=_COUNT, default=20)
    xp.add_argument("--seed", type=int, default=0)
    xp.add_argument("--out")
    xp.add_argument("--tol", type=float)
    xp.set_defaults(handler=cmd_fixed_points)
    registry["fixed-points"] = xp

    cp = sub.add_parser("certify-sigma", help="certify the swap fixed-locus suites")
    cp.add_argument("--samples", type=_COUNT, default=100)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--grid", type=_GRID, default=10)
    cp.add_argument("--out")
    cp.add_argument("--tol", type=float)
    cp.set_defaults(handler=cmd_certify_sigma)
    registry["certify-sigma"] = cp

    vp = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    vp.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    vp.add_argument("--samples", type=_COUNT, default=200)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=float)
    vp.set_defaults(handler=cmd_verify)
    registry["verify"] = vp

    return parser, registry


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        # flags override config-file defaults: install the config first
        if "--config" in argv:
            at = argv.index("--config")
            if at + 1 >= len(argv):
                parser.error("--config needs a path")
            values = _load_config(argv[at + 1])
            for name, sp in registry.items():
                allowed = _COMMAND_KEYS[name]
                sp.set_defaults(
                    **{
                        _DESTS.get(k, k): v
                        for k, v in values.items()
                        if k in allowed
                    }
                )
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as stop:  # argparse reports flag errors with code 2
        code = stop.code
        return code if isinstance(code, int) else 2
    except (
        RelationViolated,
        SectionSolveFailure,
        OutsidePolytope,
        DegenerateGenerator,
    ) as bad:
        print(f"solve failure: {bad}", file=sys.stderr)
        return 3
    except PreconditionViolated as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except FileNotFoundError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
