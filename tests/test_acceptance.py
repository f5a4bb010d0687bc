"""Acceptance suite: one test per criterion, one printed pass line each.

Every criterion pins its own tolerance and trial count.  Interior ensembles
are built fiber-wise (a random strictly interior base point, a batch of
random twist angles on its fiber, a batch of random global conjugations) so
the large-scale checks run vectorized.
"""

from __future__ import annotations

import numpy as np
import pytest

from charvar.flows import TorusElement, act, verify_flow_identities
from charvar.polytope import (
    M_P,
    STD_DELTA,
    TILDE_DELTA,
    boundary_commutation_check,
    moment_coordinates,
    mu_lambda_coordinates,
)
from charvar.repvar import (
    Representation,
    _class_equal,
    class_equal,
    is_abelian,
    relation_residual,
)
from charvar.sampler import density_witness
from charvar.sigma import (
    Piece,
    Stratum,
    classify_fixed_point,
    certify_interval_injectivity,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma_fixed_conjugator,
)
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    commutator,
    distance,
    exp_alg,
    haar_sample,
)
from charvar.tau import section, tau
from charvar.tolerances import EPS_MAT
from charvar.cli import run_verify

RELATION_TOL = 1e-9  # criterion 1
INTERTWINE_TOL = 1e-10  # criterion 2
MEMBERSHIP_TOL = 1e-9  # criterion 3
ROUNDTRIP_TOL = 1e-7  # criteria 4 and 6
DENSITY_TOL = 1e-3  # criterion 8

I4 = GroupElement.identity()
MINUS_I = GroupElement.minus_identity()
DIAG_I = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))
J = GroupElement(np.array([0.0, -1.0, 0.0, 0.0]))


def _report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def diag(theta) -> GroupElement:
    """exp of theta * e_z, batched over the shape of theta."""
    zero = np.zeros(np.shape(theta))
    return exp_alg(AlgebraElement(np.stack([zero, zero, theta], axis=-1)))


def interior_base(rng: np.random.Generator) -> np.ndarray:
    while True:
        x = rng.uniform(0.0, 1.0, size=3)
        if float(STD_DELTA.margin(x)) < -1e-4:
            return x


def batched_torus(rng: np.random.Generator, n: int) -> TorusElement:
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(3, n))
    return TorusElement(phi[0], phi[1], phi[2])


def scalar_torus(rng: np.random.Generator) -> TorusElement:
    phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
    return TorusElement(float(phi[0]), float(phi[1]), float(phi[2]))


def _concat(a: Representation, b: Representation) -> Representation:
    """Two quadruple batches joined along the batch axis."""
    return Representation(
        *(GroupElement(np.concatenate([x.q, y.q])) for x, y in zip(a.elements(), b.elements()))
    )


def interior_fibers(rng: np.random.Generator, bases: int, per_base: int):
    """Batched interior representations, one batch per random fiber."""
    for _ in range(bases):
        rho = act(batched_torus(rng, per_base), section(interior_base(rng)))
        yield rho.conjugated(haar_sample(rng, (per_base,)))


def test_criterion_1_relation_preserved_under_torus_action():
    rng = np.random.default_rng(101)
    trials = 0
    worst = 0.0
    failures = 0
    for rho in interior_fibers(rng, bases=100, per_base=1000):
        moved = act(batched_torus(rng, 1000), rho)
        res = relation_residual(moved)
        worst = max(worst, float(np.max(res)))
        failures += int(np.count_nonzero(res >= RELATION_TOL))
        trials += res.size
    assert trials == 100_000
    assert failures == 0
    _report("1", f"{trials} (rho, t) pairs, max residual {worst:.3e} < {RELATION_TOL}")


def test_criterion_2_intertwining_identities():
    rng = np.random.default_rng(102)
    bases = section(np.array([interior_base(rng) for _ in range(100)]))
    rho = act(batched_torus(rng, 10_000), bases[np.repeat(np.arange(100), 100)])
    ident = verify_flow_identities(rho, rng.uniform(0.0, 2.0 * np.pi, size=10_000))
    assert ident.max_residual.shape == (10_000,)
    worst = float(np.max(ident.max_residual))
    assert worst < INTERTWINE_TOL
    _report("2", f"10000 (rho, t) pairs, both residuals <= {worst:.3e} < {INTERTWINE_TOL}")


def test_criterion_3_tetrahedron_coincidence():
    rng = np.random.default_rng(103)
    a = haar_sample(rng, (100_000,))
    b = haar_sample(rng, (100_000,))
    coords = np.stack(
        [
            np.arccos(np.clip(a.w, -1.0, 1.0)) / np.pi,
            np.arccos(np.clip(b.w, -1.0, 1.0)) / np.pi,
            np.arccos(np.clip((a * b).w, -1.0, 1.0)) / np.pi,
        ],
        axis=-1,
    )
    margins = TILDE_DELTA.margin(coords)
    outside = int(np.count_nonzero(margins > MEMBERSHIP_TOL))
    assert outside == 0

    # boundary <=> commuting, matched tolerances, both construction styles
    mismatches = 0
    for _ in range(5000):
        eps = 10.0 ** float(rng.uniform(-8.0, -4.0))
        bump = exp_alg(AlgebraElement(np.array([eps, 0.0, 0.0])))
        rho = Representation(
            diag(float(rng.uniform(0.3, np.pi - 0.3))),
            diag(float(rng.uniform(0.3, np.pi - 0.3))),
            diag(float(rng.uniform(0.3, np.pi - 0.3))),
            bump * diag(float(rng.uniform(0.3, np.pi - 0.3))),
        )
        if not boundary_commutation_check(rho, poly_tol=10.0 * eps, mat_tol=10.0 * eps):
            mismatches += 1
    checked = 0
    for rho in interior_fibers(rng, bases=10, per_base=500):
        for i in range(500):
            if not boundary_commutation_check(rho[i]):
                mismatches += 1
            checked += 1
    assert checked == 5000
    assert mismatches == 0
    _report(
        "3",
        f"100000 Haar pairs inside the tetrahedron (max margin {float(np.max(margins)):.3e}),"
        " 10000 near-boundary checks consistent",
    )


def test_criterion_4_moment_image_and_quotient():
    # vertex bijection in exact integer arithmetic
    images = (M_P.m.astype(np.int64) @ STD_DELTA.vertices.astype(np.int64).T).T
    got = {tuple(int(v) for v in row) for row in images}
    want = {tuple(int(v) for v in row) for row in TILDE_DELTA.vertices.astype(np.int64)}
    assert got == want and len(got) == 4

    rng = np.random.default_rng(104)
    checked = 0
    for rho in interior_fibers(rng, bases=10, per_base=1000):
        margins = STD_DELTA.margin(mu_lambda_coordinates(rho))
        assert float(np.max(margins)) < 0.0
        checked += margins.size
    assert checked == 10_000

    worst = 0.0
    for _ in range(1000):
        x = interior_base(rng)
        err = float(np.max(np.abs(mu_lambda_coordinates(section(x)) - x)))
        worst = max(worst, err)
    assert worst < ROUNDTRIP_TOL
    _report(
        "4",
        "vertex bijection exact, 10000 interior moments strictly inside,"
        f" 1000 section round-trips max {worst:.3e} < {ROUNDTRIP_TOL}",
    )


def test_criterion_5_kernel_and_freeness():
    rng = np.random.default_rng(105)
    for rho in interior_fibers(rng, bases=10, per_base=100):
        pinned = act(TorusElement.kernel(), rho)
        for a, b in zip(pinned.elements(), rho.elements()):
            assert np.array_equal(a.q, b.q)

    # every draw in per-item order, then one section, one act per torus
    # batch and one class decision
    xs, angles, twists = [], [], []
    for _ in range(1000):
        xs.append(interior_base(rng))
        angles.append(rng.uniform(0.0, 2.0 * np.pi, size=3))
        while True:
            t = scalar_torus(rng)
            if float(t.kernel_distance()) > 1e-3:
                break
        twists.append([t.phi1, t.phi2, t.phi3])
    rho = act(TorusElement.from_array(angles), section(np.array(xs)))
    twisted = act(TorusElement.from_array(twists), rho)
    moved = int(np.count_nonzero(~_class_equal(twisted, rho, EPS_MAT)))
    assert moved == 1000
    _report("5", "kernel element fixes 1000 tuples bitwise; 1000 non-kernel twists all move the class")


def test_criterion_6_tau_suite():
    rng = np.random.default_rng(106)
    rho = act(batched_torus(rng, 1000), section(np.array([interior_base(rng) for _ in range(1000)])))
    image = tau(rho)
    drift = float(np.max(np.abs(mu_lambda_coordinates(image) - mu_lambda_coordinates(rho))))
    t = batched_torus(rng, 1000)
    # involution and flow reversal: one class decision over both checks' pairs
    equal = _class_equal(
        _concat(tau(image), tau(act(t, rho))), _concat(rho, act(t.inverse(), image)), EPS_MAT
    )
    assert equal.shape == (2000,)
    assert equal.all()
    assert drift < ROUNDTRIP_TOL
    _report(
        "6",
        f"1000 trials: involution and flow reversal hold, moment drift {drift:.3e} < {ROUNDTRIP_TOL}",
    )


def test_criterion_7_sigma_suite():
    rng = np.random.default_rng(107)
    # (a) pillow points are fixed with conjugator +-1
    for _ in range(1000):
        k = sigma_fixed_conjugator(pillow_point(haar_sample(rng), haar_sample(rng)))
        assert k is not None
        assert min(
            float(np.linalg.norm(k.q - I4.q)), float(np.linalg.norm(k.q + I4.q))
        ) < 1e-7

    # (b) canonical pillow point: zero trace triple, commutator exactly -1
    canon = pillow_point(DIAG_I, J)
    assert np.array_equal(moment_coordinates(canon), [0.5, 0.5, 0.5])  # trace 0 throughout
    assert float(distance(commutator(canon.g1, canon.h1), MINUS_I)) == 0.0

    # (c) the +-k identification, and no spurious identifications
    for _ in range(100):
        v = AlgebraElement(rng.normal(size=3)).unit()
        k = GroupElement(np.concatenate(([0.0], v.v)))
        assert class_equal(rp2_fiber_point(k), rp2_fiber_point(-k))
    done = 0
    while done < 100:
        v1 = AlgebraElement(rng.normal(size=3)).unit()
        v2 = AlgebraElement(rng.normal(size=3)).unit()
        if float(np.linalg.norm(np.cross(v1.v, v2.v))) < 1e-2:
            continue
        k1 = GroupElement(np.concatenate(([0.0], v1.v)))
        k2 = GroupElement(np.concatenate(([0.0], v2.v)))
        assert not class_equal(rp2_fiber_point(k1), rp2_fiber_point(k2))
        done += 1

    # (d) interval arcs: endpoints on the two surfaces, interior grid injective
    for _ in range(100):
        theta, s = (float(v) for v in rng.uniform(0.3, np.pi - 0.3, size=2))
        start = classify_fixed_point(n2_interval(theta, s, 0.0))
        stop = classify_fixed_point(n2_interval(theta, s, np.pi / 2))
        assert start.piece is Piece.PILLOW_SURFACE
        assert stop.piece is Piece.INTERVAL_ENDPOINT
        assert certify_interval_injectivity(theta, s, grid=10).passed

    # (e) the four swap-symmetric central points sit in the deepest stratum
    for s1 in (I4, MINUS_I):
        for s2 in (I4, MINUS_I):
            rho = Representation(s1, s2, s2, s1)
            assert classify_fixed_point(rho).stratum is Stratum.III
    _report(
        "7",
        "pillow conjugators trivial (1000), canonical point exact, 200 projective-pair checks,"
        " 100 interval grids injective with endpoints on both surfaces, 4 central points stratum III",
    )


def test_criterion_8_density_witnesses():
    rng = np.random.default_rng(108)
    angles = rng.uniform(0.3, np.pi - 0.3, size=(1000, 4))
    rho = Representation(*(diag(angles[:, i]) for i in range(4)))
    for t in (1e-4, 0.5, 1.0):
        assert not np.any(is_abelian(density_witness(rho, t)))
    worst = float(np.max(density_witness(rho, 1e-4).slot_distance(rho)))
    assert worst < DENSITY_TOL
    _report("8", f"1000 abelian starts leave the torus for t > 0; gap at t=1e-4 max {worst:.3e}")


def test_criterion_9_normalization_note_in_report():
    report = run_verify("polytope", samples=50, seed=109)
    assert report.passed
    assert any("factor-2" in note for note in report.notes)
    _report("9", "verify report carries the factor-2 normalization note")
