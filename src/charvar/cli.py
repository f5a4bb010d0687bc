"""Command-line front end: sampling, flowing, involutions, verification.

Formats: JSONL for representation streams, CSV for point clouds, JSON for
reports.  Every run is a deterministic function of its flags: all randomness
flows from ``--seed``.

Exit codes: 0 success, 1 verification failures, 2 flag errors, 3 solve
failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from itertools import islice
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ClassificationAmbiguity,
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
    moment_points,
    mu_lambda_coordinates,
    trace_triple,
    write_simplex_csv,
)
from .repvar import (
    Representation,
    _class_equal,
    is_abelian,
    relation_residual,
)
from .sampler import (
    _CHUNK,
    SampleSpec,
    Target,
    _diag,
    _interior_build,
    _interior_draw,
    _random_torus,
    density_witness,
    sample_batches,
)
from .sigma import (
    Piece,
    _sigma_fixed,
    Stratum,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_points,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma,
)
from .su2 import (
    AlgebraElement,
    GroupElement,
    _cross,
    _vector_norm,
    commutator,
    exp_alg,
    haar_sample,
)
from .tau import section, tau
from .tolerances import DEFAULT, Tolerances

__all__ = ["main", "run_verify", "run_sigma_certification", "VerifyReport"]

_SLOTS = ("g1", "h1", "g2", "h2")
_KEYS = (*_SLOTS, "residual", "mu", "mu_lambda")
_ID = GroupElement.identity()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _rep_objs(rho: Representation) -> list[dict]:
    """JSON-ready dicts of a batch: slots, residual and moment columns, each computed once."""
    mu = moment_coordinates(rho)
    columns = (rho.slots(), relation_residual(rho), mu, M_P.apply_inverse(mu))
    rows = zip(*(column.tolist() for column in columns))
    return [dict(zip(_KEYS, (*slots, *rest))) for slots, *rest in rows]


def rep_to_obj(rho: Representation) -> dict:
    """JSON-ready dict for one representation: the one-row case of _rep_objs."""
    return _rep_objs(rho[None])[0]


def rep_from_obj(obj: dict) -> Representation:
    if not isinstance(obj, dict):
        raise PreconditionViolated("input line is not a JSON object")
    slots = []
    for key in _SLOTS:
        if key not in obj:
            raise PreconditionViolated(f"input line lacks slot {key!r}")
        try:
            q = np.asarray(obj[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
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


def _checked_slots(lines: list[str]) -> tuple[np.ndarray, Optional[PreconditionViolated]]:
    """The (n, 4, 4) slot array of JSONL lines, checked as one batch: the rows
    before the first line rep_from_obj rejects, and its error (or None)."""
    try:
        objs = [json.loads(line) for line in lines]
        q = np.array([[obj[key] for key in _SLOTS] for obj in objs], dtype=float)
        # np.vecdot is the arithmetic of rep_from_obj's q @ q on each slot
        unit = np.abs(np.vecdot(q, q) - 1.0) <= 1e-9
        if q.shape == (len(lines), 4, 4) and np.isfinite(q).all() and unit.all():
            return q, None
    except (TypeError, KeyError, ValueError, OverflowError):  # JSONDecodeError too
        pass
    rows = []  # some line is bad: read them one by one to find the first
    for line in lines:
        try:
            rows.append(rep_from_obj(json.loads(line)).slots())
        except (ValueError, PreconditionViolated) as bad:  # JSONDecodeError is a ValueError
            return np.reshape(rows, (-1, 4, 4)), PreconditionViolated(str(bad))
    return np.array(rows), None


def read_jsonl(stream: IO[str], rel_tol: float) -> Iterator[Representation]:
    """Representations from JSONL lines, each a solution of the relation to rel_tol,
    checked and yielded in batches of up to _CHUNK lines.  At a bad line the
    rows before it are yielded first; the error then names the line."""
    lines = ((n, text) for n, text in enumerate((raw.strip() for raw in stream), 1) if text)
    while chunk := list(islice(lines, _CHUNK)):
        q, error = _checked_slots([text for _, text in chunk])
        rho = Representation.from_slots(q)
        residual = relation_residual(rho)
        off = np.flatnonzero(residual >= rel_tol)
        if off.size:
            rho, error = rho[: off[0]], RelationViolated(
                f"surface relation violated: residual {residual[off[0]]:.3e} >= {rel_tol:.3e}"
            )
        if rho.batch_shape[0]:
            yield rho
        if error is not None:
            raise type(error)(f"line {chunk[rho.batch_shape[0]][0]}: {error}")


def _write_lines(stream: IO[str], objs: list[dict]) -> None:
    stream.write("".join(json.dumps(obj) + "\n" for obj in objs))


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


def _nonkernel_torus(rng: np.random.Generator) -> TorusElement:
    while True:
        t = _random_torus(rng)
        if float(t.kernel_distance()) > 1e-3:
            return t


def _worst(start: float, values: np.ndarray) -> float:
    return max(start, float(np.max(values)))


def _flows_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    # every draw first, in per-item order; then each check once over the batch
    draws, turns, times, probes = [], [], [], []
    for i in range(n):
        draws.append(_interior_draw(rng))
        turns.append(rng.uniform(0.0, 2.0 * np.pi, size=3))
        times.append(rng.uniform(0.0, 2.0 * np.pi))
        if i % 10 == 0:
            probes.append(_nonkernel_torus(rng).as_array())
    rho = _interior_build(draws)

    moved = act(TorusElement.from_array(turns), rho)
    r = relation_residual(moved)
    ident = verify_flow_identities(rho, np.array(times))
    k = act(TorusElement.kernel(), rho).slot_distance(rho)
    ok = (r < tol.mat) & ident.passed(tol.mat) & (k == 0.0)
    every = rho[::10]
    ok[::10] &= ~_class_equal(act(TorusElement.from_array(probes), every), every, tol.mat)
    res = {
        "relation-after-flow": _worst(0.0, r),
        "intertwine-h2": _worst(0.0, ident.residual_h2),
        "intertwine-h1": _worst(0.0, ident.residual_h1),
        "kernel-fix": _worst(0.0, k),
    }
    return n, int(np.count_nonzero(~ok)), res


def _near_boundary_draw(rng: np.random.Generator) -> tuple[float, float, float]:
    """One near-boundary item's draws in stream order: the size eps of the
    bump off the torus, then the angles of h1 and h2."""
    eps = 10.0 ** float(rng.uniform(-8.0, -4.0))
    return eps, float(rng.uniform(0.3, np.pi - 0.3)), float(rng.uniform(0.3, np.pi - 0.3))


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
    margins = TILDE_DELTA.margin(trace_triple(a, b))
    res["tetra-membership"] = float(np.max(margins))
    failures += int(np.count_nonzero(margins > tol.poly))

    # boundary <=> commuting on near-boundary constructions, both directions,
    # each row read against its own eps
    small = n // 10 + 1
    eps, t1, t2 = np.array([_near_boundary_draw(rng) for _ in range(small)]).T
    zero = np.zeros(small)
    bump = exp_alg(AlgebraElement(np.stack([eps, zero, zero], axis=-1)))
    rho = Representation(_diag(zero + 0.1), _diag(t1), _diag(zero + 0.2), bump * _diag(t2))
    failures += int(np.count_nonzero(~boundary_commutation_check(rho, 10.0 * eps, 10.0 * eps)))
    # nothing is drawn between the two uses of interior samples below, so
    # both halves are built as one batch
    interior = _interior_build([_interior_draw(rng) for _ in range(2 * small)])
    ok = boundary_commutation_check(interior[:small], tol.poly, tol.mat)
    failures += int(np.count_nonzero(~ok))

    # integer vertex bijection, exact arithmetic
    images = (M_P.m.astype(np.int64) @ STD_DELTA.vertices.astype(np.int64).T).T
    got = {tuple(int(x) for x in v) for v in images}
    want = {tuple(int(x) for x in v) for v in TILDE_DELTA.vertices.astype(np.int64)}
    if got != want or len(got) != len(STD_DELTA.vertices):
        failures += 1
        res["vertex-bijection"] = 1.0

    # quotient coordinates of interior samples stay strictly interior,
    # and the section inverts the quotient moment
    m = STD_DELTA.margin(mu_lambda_coordinates(interior[small:]))
    res["quotient-interior"] = _worst(res["quotient-interior"], m)
    failures += int(np.count_nonzero(m >= 0.0))
    xs = [rng.uniform(0.05, 0.45, size=3) for _ in range(small)]
    xs = np.array([x for x in xs if float(STD_DELTA.margin(x)) <= -0.02])
    if len(xs):
        err = np.max(np.abs(mu_lambda_coordinates(section(xs)) - xs), axis=-1)
        res["section-roundtrip"] = _worst(res["section-roundtrip"], err)
        failures += int(np.count_nonzero(err > 100.0 * tol.f))
    return n + 3 * small, failures, res


def _tau_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    # every draw first, in per-item order; then each check once over the batch
    draws, turns = [], []
    for _ in range(n):
        draws.append(_interior_draw(rng))
        turns.append(rng.uniform(0.0, 2.0 * np.pi, size=3))
    rho = _interior_build(draws)
    t = TorusElement.from_array(turns)

    image = tau(rho)
    drift = np.max(np.abs(mu_lambda_coordinates(image) - mu_lambda_coordinates(rho)), axis=-1)
    involution = tau(image).slot_distance(rho)
    reversal = tau(act(t, rho)).slot_distance(act(t.inverse(), image))
    ok = (drift < 100.0 * tol.f) & (involution < tol.mat) & (reversal < tol.mat)
    res = {
        "moment-drift": _worst(0.0, drift),
        "involution": _worst(0.0, involution),
        "reversal": _worst(0.0, reversal),
    }
    return n, int(np.count_nonzero(~ok)), res


def _pure_unit(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> GroupElement:
    v = AlgebraElement(rng.normal(size=shape + (3,))).unit()
    return GroupElement(np.concatenate((np.zeros(shape + (1,)), v.v), axis=-1))


def _sigma_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    # the pillow points, projective pairs, central points and interior points
    # are one batch each, drawn in the per-item order; the arcs loop
    small = max(n // 10, 1)

    gh = haar_sample(rng, (n, 2))
    k, fixed = _sigma_fixed(pillow_point(gh[:, 0], gh[:, 1]), tol.mat)
    dev = np.minimum(_vector_norm(k.q - _ID.q), _vector_norm(k.q + _ID.q))[fixed]
    res = {"pillow-conjugator": float(np.max(dev, initial=0.0)), "interval-fix": 0.0}
    failures = int(np.count_nonzero(~fixed)) + int(np.count_nonzero(dev > tol.mat * 10.0))

    pairs = _pure_unit(rng, (small, 2))
    k1, k2 = pairs[:, 0], pairs[:, 1]
    distinct = _vector_norm(np.stack(_cross(k1.vec.T, k2.vec.T), axis=-1)) > 1e-2
    base = rp2_fiber_point(k1)
    same = _class_equal(base, rp2_fiber_point(-k1), tol.mat)
    collide = _class_equal(base, rp2_fiber_point(k2), tol.mat)
    failures += int(np.count_nonzero(~same)) + int(np.count_nonzero(distinct & collide))

    for _ in range(small):
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
        report = certify_interval_injectivity(float(theta), float(s), grid=5, tol=tol.mat)
        if not report.passed:
            failures += 1

    # the four central swap quadruples (s1, s2, s2, s1), s1 and s2 = +-1
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[:, [0, 1, 1, 0], None]
    points = classify_fixed_points(Representation.from_slots(signs * _ID.q), tol=tol.mat)
    failures += sum(point.stratum is not Stratum.III for point in points)

    # interior classes are never swap-fixed
    _, fixed = _sigma_fixed(_interior_build([_interior_draw(rng) for _ in range(small)]), tol.mat)
    failures += int(np.count_nonzero(fixed))
    return n + 4 * small + 4, failures, res


def _density_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    angles = rng.uniform(0.3, np.pi - 0.3, size=(n, 4))
    rho = Representation(*(_diag(angles[:, i]) for i in range(4)))
    gap = density_witness(rho, 1e-4).slot_distance(rho)
    ok = ~is_abelian(density_witness(rho, 0.5), tol.mat)
    ok &= ~is_abelian(density_witness(rho, 1.0), tol.mat)
    ok &= gap < 1e-3
    return n, int(np.count_nonzero(~ok)), {"witness-approach": _worst(0.0, gap)}


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
    if samples < 1:
        raise PreconditionViolated(f"samples must be >= 1, got {samples}")
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
    # pillow, blow-up, RP^2 and arc points in turn, drawn item by item and stacked
    for start in range(0, count, _CHUNK):
        rows: list[np.ndarray] = []
        while len(rows) < min(_CHUNK, count - start):
            kind = (start + len(rows)) % 4
            if kind < 2:
                g, h = haar_sample(rng), haar_sample(rng)
                axis = commutator(g, h).vec
                if float(np.linalg.norm(axis)) < 1e-3:
                    continue
                k = GroupElement(np.concatenate(([0.0], AlgebraElement(axis).unit().v)))
                rho = pillow_point(g, h) if kind == 0 else blowup_point(g, h, k)
            elif kind == 2:
                rho = rp2_fiber_point(_pure_unit(rng))
            else:
                theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
                rho = n2_interval(float(theta), float(s), float(rng.uniform(0.1, np.pi / 2 - 0.1)))
            rows.append(rho.slots())
        yield Representation.from_slots(np.stack(rows))


def run_sigma_certification(
    samples: int, seed: int, tol: Optional[Tolerances] = None, grid: int = 10
) -> dict:
    """Full certification of the swap fixed locus; returns a JSON-ready report."""
    tol = tol or DEFAULT
    if samples < 1 or grid < 2:
        raise PreconditionViolated(f"need samples >= 1 and grid >= 2, got {samples} and {grid}")
    rng = np.random.default_rng(seed)
    counts: dict = {piece.value: 0 for piece in Piece}
    violations: list[str] = []
    worst = {"conjugator-residual": 0.0}

    for start, batch in zip(range(0, samples, _CHUNK), _fixed_point_stream(samples, rng)):
        points = list(classify_fixed_points(batch, tol=tol.mat))
        for point in points:
            counts[point.piece.value] += 1
        k = GroupElement(np.stack([point.conjugator.q for point in points]))
        resid = batch.conjugated(k).slot_distance(sigma(batch))
        worst["conjugator-residual"] = max(worst["conjugator-residual"], float(np.max(resid)))
        for idx in np.flatnonzero(resid >= tol.mat * 10.0):
            violations.append(f"sample {start + idx}: conjugator residual {resid[idx]:.3e}")

    for _ in range(max(samples // 10, 1)):
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=2)
        report = certify_interval_injectivity(float(theta), float(s), grid=grid, tol=tol.mat)
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
        for rho in sample_batches(spec):
            _write_lines(out, _rep_objs(rho))
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
            try:
                moved = act(t, rho)
            except DegenerateGenerator:  # write the rows before the boundary class
                for i in range(rho.batch_shape[0]):
                    _write_lines(out, _rep_objs(act(t, rho[i : i + 1])))
                raise
            _write_lines(out, _rep_objs(moved))
    finally:
        _close(src, args.infile)
        _close(out, args.out)
    return 0


def cmd_moment(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    src = _open_in(args.infile)
    out = _open_out(args.out)
    try:
        rows = read_jsonl(src, tol.rel)
        points = (p for rho in rows for p in moment_points(rho, tol.poly, args.quotient))
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
            if args.check:
                bad += int(np.count_nonzero(~_class_equal(tau(image), rho, tol.mat)))
            _write_lines(out, _rep_objs(image))
    finally:
        _close(src, args.infile)
        _close(out, args.out)
    return 1 if bad else 0


def cmd_fixed_points(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    rng = np.random.default_rng(args.seed)
    out = _open_out(args.out)
    try:
        for batch in _fixed_point_stream(args.count, rng):
            # at an unclassifiable row, the lines before it are written
            for obj, point in zip(_rep_objs(batch), classify_fixed_points(batch, tol=tol.mat)):
                obj["stratum"], obj["piece"] = point.stratum.name, point.piece.value
                _write_lines(out, [obj])
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


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its command -> subparser map, built on the first call
    and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="charvar",
        description="Sample, flow, and verify conjugacy classes of"
        " commutator-relation quadruples in SU(2).",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

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

    fp = sub.add_parser("flow", help="apply a twist triple to a JSONL stream")
    fp.add_argument("--t", required=True, help="phi1,phi2,phi3 twist angles")
    fp.add_argument("--in", dest="infile")
    fp.add_argument("--out")
    fp.set_defaults(handler=cmd_flow)

    mp = sub.add_parser("moment", help="trace coordinates of a JSONL stream as CSV")
    mp.add_argument("--in", dest="infile")
    mp.add_argument("--out")
    mp.add_argument("--quotient", action="store_true", help="emit simplex coordinates")
    mp.add_argument("--tol", type=float)
    mp.set_defaults(handler=cmd_moment)

    tp = sub.add_parser("tau", help="apply the involution (h1 g1, h1^-1, h2 g2, h2^-1)")
    tp.add_argument("--in", dest="infile")
    tp.add_argument("--out")
    tp.add_argument("--check", action="store_true", help="verify the involution squares to id")
    tp.add_argument("--tol", type=float)
    tp.set_defaults(handler=cmd_tau)

    xp = sub.add_parser("fixed-points", help="sample swap-fixed classes with tags")
    xp.add_argument("--count", type=_COUNT, default=20)
    xp.add_argument("--seed", type=int, default=0)
    xp.add_argument("--out")
    xp.add_argument("--tol", type=float)
    xp.set_defaults(handler=cmd_fixed_points)

    cp = sub.add_parser("certify-sigma", help="certify the swap fixed-locus suites")
    cp.add_argument("--samples", type=_COUNT, default=100)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--grid", type=_GRID, default=10)
    cp.add_argument("--out")
    cp.add_argument("--tol", type=float)
    cp.set_defaults(handler=cmd_certify_sigma)

    vp = sub.add_parser("verify", help="run a verification suite, print a JSON report")
    vp.add_argument("--suite", choices=["all", *sorted(_SUITES)], default="all")
    vp.add_argument("--samples", type=_COUNT, default=200)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--tol", type=float)
    vp.set_defaults(handler=cmd_verify)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # flags override config-file values: install them as this command's
            # defaults for one more parse, then put the shared parser's back
            config, allowed = _load_config(args.config), _COMMAND_KEYS[args.command]
            values = {_DESTS.get(k, k): v for k, v in config.items() if k in allowed}
            sp = commands[args.command]
            saved = {dest: sp.get_default(dest) for dest in values}
            sp.set_defaults(**values)
            try:
                args = parser.parse_args(argv)
            finally:
                sp.set_defaults(**saved)
        return args.handler(args)
    except SystemExit as stop:  # argparse reports flag errors with code 2
        code = stop.code
        return code if isinstance(code, int) else 2
    except (
        RelationViolated,
        SectionSolveFailure,
        OutsidePolytope,
        DegenerateGenerator,
        ClassificationAmbiguity,
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
