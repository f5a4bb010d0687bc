"""The paper's claims as seeded verification suites: one registry, read by
``charvar verify`` and ``certify-sigma`` and by the acceptance tests.

A suite maps ``(n, rng, tol)`` to (trials, failures, worst residual per check).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ClassificationAmbiguity, PreconditionViolated, _relabelled
from .flows import TorusElement, act, verify_flow_identities
from .polytope import (
    M_P,
    NU_NORMALIZATION_NOTE,
    STD_DELTA,
    TILDE_DELTA,
    boundary_commutation_check,
    mu_lambda_coordinates,
    trace_triple,
)
from .repvar import Representation, _class_equal, is_abelian, relation_residual
from .sampler import (
    _CHUNK,
    _build,
    _diag,
    _diag_build,
    _draw,
    _random_torus,
    density_witness,
)
from .sigma import (
    Piece,
    Stratum,
    _stacked,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_point,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma_fixed_conjugator,
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

__all__ = ["VerifyReport", "run_verify", "run_sigma_certification"]

_ID = GroupElement.identity()


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
        draws.append(_draw(rng))
        turns.append(rng.uniform(0.0, 2.0 * np.pi, size=3))
        times.append(rng.uniform(0.0, 2.0 * np.pi))
        if i % 10 == 0:
            probes.append(_nonkernel_torus(rng).as_array())
    rho = _build(draws)
    every = rho[::10]

    # the turns, the kernel element (pi, pi, pi) and the probes are one act
    angles = np.concatenate((turns, np.full((n, 3), np.pi), probes))
    moved = act(TorusElement.from_array(angles), _stacked(rho, rho, every))
    r = relation_residual(moved[:n])
    ident = verify_flow_identities(rho, np.array(times))
    k = moved[n : 2 * n].slot_distance(rho)
    ok = (r < tol.mat) & ident.passed(tol.mat) & (k == 0.0)
    ok[::10] &= ~_class_equal(moved[2 * n :], every, tol.mat)
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
    # nothing is drawn between the uses of interior samples below, so both
    # halves are built as one batch, and both boundary checks are one call
    interior = _build([_draw(rng) for _ in range(2 * small)])
    poly, mat = (np.concatenate((10.0 * eps, np.full(small, t))) for t in (tol.poly, tol.mat))
    ok = boundary_commutation_check(_stacked(rho, interior[:small]), poly, mat)
    failures += int(np.count_nonzero(~ok))

    # integer vertex bijection, exact arithmetic
    images = (M_P.m.astype(np.int64) @ STD_DELTA.vertices.astype(np.int64).T).T
    got = {tuple(int(x) for x in v) for v in images}
    want = {tuple(int(x) for x in v) for v in TILDE_DELTA.vertices.astype(np.int64)}
    if got != want or len(got) != len(STD_DELTA.vertices):
        failures += 1
        res["vertex-bijection"] = 1.0

    # quotient coordinates of interior samples stay strictly interior,
    # and the section inverts the quotient moment: one quotient moment call
    xs = [rng.uniform(0.05, 0.45, size=3) for _ in range(small)]
    xs = np.array([x for x in xs if float(STD_DELTA.margin(x)) <= -0.02])
    rows = _stacked(interior[small:], section(xs)) if len(xs) else interior[small:]
    moments = mu_lambda_coordinates(rows)
    m = STD_DELTA.margin(moments[:small])
    res["quotient-interior"] = _worst(res["quotient-interior"], m)
    failures += int(np.count_nonzero(m >= 0.0))
    if len(xs):
        err = np.max(np.abs(moments[small:] - xs), axis=-1)
        res["section-roundtrip"] = _worst(res["section-roundtrip"], err)
        failures += int(np.count_nonzero(err > 100.0 * tol.f))
    return n + 3 * small, failures, res


def _tau_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    # every draw first, in per-item order; then each check once over the batch
    draws, turns = [], []
    for _ in range(n):
        draws.append(_draw(rng))
        turns.append(rng.uniform(0.0, 2.0 * np.pi, size=3))
    rho = _build(draws)

    # one call per map over stacked rows; the reversed angles are the negated
    # draws, which TorusElement reduces as t.inverse() does
    image = tau(rho)
    moments = mu_lambda_coordinates(_stacked(image, rho))
    drift = np.max(np.abs(moments[:n] - moments[n:]), axis=-1)
    angles = TorusElement.from_array(np.concatenate((turns, np.negative(turns))))
    moved = act(angles, _stacked(rho, image))
    dist = tau(_stacked(image, moved[:n])).slot_distance(_stacked(rho, moved[n:]))
    involution, reversal = dist[:n], dist[n:]
    ok = (drift < 100.0 * tol.f) & (involution < tol.mat) & (reversal < tol.mat)
    res = {
        "moment-drift": _worst(0.0, drift),
        "involution": _worst(0.0, involution),
        "reversal": _worst(0.0, reversal),
    }
    return n, int(np.count_nonzero(~ok)), res


def _pure(v: np.ndarray) -> GroupElement:
    """The pure unit quaternions along the vectors v, of shape (..., 3)."""
    u = AlgebraElement(v).unit().v
    return GroupElement(np.concatenate((np.zeros(u.shape[:-1] + (1,)), u), axis=-1))


def _pure_unit(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> GroupElement:
    return _pure(rng.normal(size=shape + (3,)))


def _sigma_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    # every batch drawn first, in the per-item order; then one call for the
    # pillow and interior fixedness, and one each for the projective builds and reads
    small = max(n // 10, 1)
    gh = haar_sample(rng, (n, 2))
    pairs = _pure_unit(rng, (small, 2))
    arcs = rng.uniform(0.3, np.pi - 0.3, size=(small, 2))
    interior = _build([_draw(rng) for _ in range(small)])

    k, fixed = sigma_fixed_conjugator(_stacked(pillow_point(gh[:, 0], gh[:, 1]), interior), tol.mat)
    k, fixed, interior_fixed = k[:n], fixed[:n], fixed[n:]
    dev = np.minimum(_vector_norm(k.q - _ID.q), _vector_norm(k.q + _ID.q))[fixed]
    res = {"pillow-conjugator": float(np.max(dev, initial=0.0))}
    failures = int(np.count_nonzero(~fixed)) + int(np.count_nonzero(dev > tol.mat * 10.0))

    k1, k2 = pairs[:, 0], pairs[:, 1]
    distinct = _vector_norm(np.stack(_cross(k1.vec.T, k2.vec.T), axis=-1)) > 1e-2
    fibers = rp2_fiber_point(GroupElement(np.concatenate((k1.q, -k1.q, k2.q))))
    base = fibers[:small]
    same, collide = _class_equal(_stacked(base, base), fibers[small:], tol.mat).reshape(2, -1)
    failures += int(np.count_nonzero(~same)) + int(np.count_nonzero(distinct & collide))

    passed = certify_interval_injectivity(arcs[:, 0], arcs[:, 1], grid=5, tol=tol.mat).passed
    failures += int(np.count_nonzero(~passed))

    # the four central swap quadruples (s1, s2, s2, s1), s1 and s2 = +-1
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[:, [0, 1, 1, 0], None]
    point = classify_fixed_point(Representation.from_slots(signs * _ID.q), tol=tol.mat)
    failures += int(np.count_nonzero(point.stratum != Stratum.III))

    # interior classes are never swap-fixed
    failures += int(np.count_nonzero(interior_fixed))
    return n + 4 * small + 4, failures, res


def _density_suite(n: int, rng: np.random.Generator, tol: Tolerances) -> tuple[int, int, dict]:
    angles = rng.uniform(0.3, np.pi - 0.3, size=(n, 4))
    rho = _diag_build(angles)
    witnesses = density_witness(_stacked(rho, rho, rho), np.repeat([1e-4, 0.5, 1.0], n))
    gap = witnesses[:n].slot_distance(rho)
    ok = ~np.any(is_abelian(witnesses, tol.mat).reshape(3, n), axis=0) & (gap < 1e-3)
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
    if seed < 0:
        raise PreconditionViolated(f"seed must be >= 0, got {seed}")
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


_FIXED_POINT_BUILDS = (
    lambda g, h, _: pillow_point(GroupElement(g), GroupElement(h)),
    lambda g, h, axis: blowup_point(GroupElement(g), GroupElement(h), _pure(axis)),
    lambda v: rp2_fiber_point(_pure(v)),
    n2_interval,
)


def _fixed_point_stream(count: int, rng: np.random.Generator) -> Iterator[Representation]:
    # pillow, blow-up, RP^2 and arc points in turn.  Each chunk makes every
    # item's draws in stream order (a pair whose commutator's axis is shorter
    # than 1e-3 is drawn again), then builds each kind in one call; as _CHUNK
    # is a multiple of 4, kind j is every fourth row from row j.
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        draws: list[list] = [[], [], [], []]
        for kind in (np.arange(size) % 4).tolist():
            if kind < 2:
                axis = np.zeros(3)
                while float(np.linalg.norm(axis)) < 1e-3:
                    g, h = haar_sample(rng), haar_sample(rng)
                    axis = commutator(g, h).vec
                draws[kind].append((g.q, h.q, axis))
            elif kind == 2:
                draws[2].append((rng.normal(size=3),))
            else:
                theta_s = rng.uniform(0.3, np.pi - 0.3, size=2)
                draws[3].append((*theta_s, rng.uniform(0.1, np.pi / 2 - 0.1)))
        slots = np.empty((size, 4, 4))
        for kind, rows in enumerate(draws):
            if rows:
                slots[kind::4] = _build(rows, _FIXED_POINT_BUILDS[kind], conjugate=False).slots()
        yield Representation.from_slots(slots)


def run_sigma_certification(
    samples: int, seed: int, tol: Optional[Tolerances] = None, grid: int = 10
) -> dict:
    """Full certification of the swap fixed locus; returns a JSON-ready report."""
    tol = tol or DEFAULT
    if samples < 1 or grid < 2:
        raise PreconditionViolated(f"need samples >= 1 and grid >= 2, got {samples} and {grid}")
    if seed < 0:
        raise PreconditionViolated(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    counts: dict = {piece.value: 0 for piece in Piece}
    violations: list[str] = []
    worst = {"conjugator-residual": 0.0}

    for start, batch in zip(range(0, samples, _CHUNK), _fixed_point_stream(samples, rng)):
        try:
            point = classify_fixed_point(batch, tol=tol.mat)
        except (PreconditionViolated, ClassificationAmbiguity) as bad:
            raise _relabelled(bad, f"sample {start + bad.row[0]}") from None
        for piece in point.piece.tolist():
            counts[piece.value] += 1
        # the plain swap: classify_fixed_point has checked the batch against the relation
        swapped = Representation(batch.h2, batch.g2, batch.h1, batch.g1)
        resid = batch.conjugated(point.conjugator).slot_distance(swapped)
        worst["conjugator-residual"] = max(worst["conjugator-residual"], float(np.max(resid)))
        for idx in np.flatnonzero(resid >= tol.mat * 10.0):
            violations.append(f"sample {start + idx}: conjugator residual {resid[idx]:.3e}")

    arcs = rng.uniform(0.3, np.pi - 0.3, size=(max(samples // 10, 1), 2))
    report = certify_interval_injectivity(arcs[:, 0], arcs[:, 1], grid=grid, tol=tol.mat)
    for a in np.flatnonzero(~report.passed):
        violations.append(
            f"interval ({arcs[a, 0]:.4f},{arcs[a, 1]:.4f}): "
            f"{np.count_nonzero(~report.fixed[a])} unfixed, "
            f"{np.count_nonzero(report.equal[a])} collisions"
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
