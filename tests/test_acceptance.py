"""Acceptance suite: one test per criterion, one printed pass line each.

Criteria 2-9 read the reports of the ``charvar verify`` suites
(``claims.run_verify``), each run once at a pinned seed and sample count, and
assert the criterion's pinned tolerance against the report's worst
residuals; the few checks no suite makes are extra asserts.  Criterion 1 is
built fiber-wise (a random strictly interior base point, a batch of random
twist angles on its fiber, a batch of random global conjugations) so it runs
vectorized.
"""

from __future__ import annotations

import functools

import numpy as np

from charvar.claims import run_verify
from charvar.flows import TorusElement, act
from charvar.polytope import STD_DELTA, moment_coordinates, mu_lambda_coordinates
from charvar.repvar import relation_residual
from charvar.sigma import (
    Piece,
    certify_interval_injectivity,
    classify_fixed_point,
    n2_interval,
    pillow_point,
)
from charvar.su2 import GroupElement, commutator, distance, haar_sample
from charvar.tau import section
from charvar.tolerances import EPS_MAT

RELATION_TOL = 1e-9  # criterion 1
INTERTWINE_TOL = 1e-10  # criterion 2
MEMBERSHIP_TOL = 1e-9  # criterion 3
ROUNDTRIP_TOL = 1e-7  # criteria 4 and 6
PILLOW_TOL = 1e-7  # criterion 7
DENSITY_TOL = 1e-3  # criterion 8

DIAG_I = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))
J = GroupElement(np.array([0.0, -1.0, 0.0, 0.0]))

# suite -> (samples, seed): the seed of the first criterion that reads it
PINNED = {
    "flows": (10_000, 102),
    "polytope": (100_000, 103),
    "tau": (1000, 106),
    "sigma": (1000, 107),
    "density": (1000, 108),
}


@functools.cache
def report(suite: str):
    """The suite's verify report at its pinned samples and seed, run once per session."""
    samples, seed = PINNED[suite]
    return run_verify(suite, samples=samples, seed=seed)


def _report(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def interior_base(rng: np.random.Generator) -> np.ndarray:
    while True:
        x = rng.uniform(0.0, 1.0, size=3)
        if float(STD_DELTA.margin(x)) < -1e-4:
            return x


def batched_torus(rng: np.random.Generator, n: int) -> TorusElement:
    phi = rng.uniform(0.0, 2.0 * np.pi, size=(3, n))
    return TorusElement(phi[0], phi[1], phi[2])


def test_criterion_1_relation_preserved_under_torus_action():
    # fiber-wise, not through the registry: flows at 100,000 samples takes
    # 8.8 s against 0.7 s here (2 vCPU), most of it in per-item draws whose
    # order the golden pins fix
    rng = np.random.default_rng(101)
    trials = 0
    worst = 0.0
    failures = 0
    for _ in range(100):
        rho = act(batched_torus(rng, 1000), section(interior_base(rng)))
        rho = rho.conjugated(haar_sample(rng, (1000,)))
        res = relation_residual(act(batched_torus(rng, 1000), rho))
        worst = max(worst, float(np.max(res)))
        failures += int(np.count_nonzero(res >= RELATION_TOL))
        trials += res.size
    assert trials == 100_000
    assert failures == 0
    _report("1", f"{trials} (rho, t) pairs, max residual {worst:.3e} < {RELATION_TOL}")


def test_criterion_2_intertwining_identities():
    rep = report("flows")
    assert rep.trials == 10_000 and rep.failures == 0
    worst = max(rep.max_residual["intertwine-h1"], rep.max_residual["intertwine-h2"])
    assert worst < INTERTWINE_TOL
    _report("2", f"10000 (rho, t) pairs, both residuals <= {worst:.3e} < {INTERTWINE_TOL}")


def test_criterion_3_tetrahedron_coincidence():
    # 100,000 Haar pairs, 10,001 near-boundary and 10,001 interior boundary
    # <=> commuting checks (each near-boundary row read against its own
    # 10 * eps) and the 10,001 interior moments of criterion 4
    rep = report("polytope")
    assert rep.trials == 100_000 + 3 * 10_001 and rep.failures == 0
    margin = rep.max_residual["tetra-membership"]
    assert margin <= MEMBERSHIP_TOL
    _report(
        "3",
        f"100000 Haar pairs inside the tetrahedron (max margin {margin:.3e}),"
        " 20002 near-boundary and interior checks consistent",
    )


def test_criterion_4_moment_image_and_quotient():
    rep = report("polytope")
    assert rep.failures == 0
    assert rep.max_residual["vertex-bijection"] == 0.0  # exact integer arithmetic
    assert rep.max_residual["quotient-interior"] < 0.0  # 10,001 interior moments
    # the suite's round trips stay 0.02 inside the simplex; these reach the facets
    rng = np.random.default_rng(104)
    x = np.array([interior_base(rng) for _ in range(1000)])
    worst = float(np.max(np.abs(mu_lambda_coordinates(section(x)) - x)))
    worst = max(worst, rep.max_residual["section-roundtrip"])
    assert worst < ROUNDTRIP_TOL
    _report(
        "4",
        "vertex bijection exact, 10001 interior moments strictly inside,"
        f" section round-trips (the suite's and 1000 to the facets) max {worst:.3e} < {ROUNDTRIP_TOL}",
    )


def test_criterion_5_kernel_and_freeness():
    # every class is fixed by the kernel, and every tenth is moved by a twist
    # at least 1e-3 from the kernel: 1,000 non-kernel twists
    rep = report("flows")
    assert rep.trials == 10_000 and rep.failures == 0
    assert rep.max_residual["kernel-fix"] == 0.0
    _report("5", "kernel element fixes 10000 tuples bitwise; 1000 non-kernel twists all move the class")


def test_criterion_6_tau_suite():
    rep = report("tau")
    assert rep.trials == 1000 and rep.failures == 0
    assert max(rep.max_residual["involution"], rep.max_residual["reversal"]) < EPS_MAT
    drift = rep.max_residual["moment-drift"]
    assert drift < ROUNDTRIP_TOL
    _report(
        "6",
        f"1000 trials: involution and flow reversal hold, moment drift {drift:.3e} < {ROUNDTRIP_TOL}",
    )


def test_criterion_7_sigma_suite():
    # 1,000 pillow points, 100 projective pairs, 100 grid-5 arcs, the four
    # central points and 100 interior points
    rep = report("sigma")
    assert rep.trials == 1000 + 4 * 100 + 4 and rep.failures == 0
    assert rep.max_residual["pillow-conjugator"] < PILLOW_TOL

    # canonical pillow point: zero trace triple, commutator exactly -1
    canon = pillow_point(DIAG_I, J)
    assert np.array_equal(moment_coordinates(canon), [0.5, 0.5, 0.5])  # trace 0 throughout
    assert float(distance(commutator(canon.g1, canon.h1), GroupElement.minus_identity())) == 0.0

    # interval arcs: endpoints on the two surfaces, grid-10 interior injective
    rng = np.random.default_rng(107)
    theta, s = rng.uniform(0.3, np.pi - 0.3, size=(100, 2)).T
    ends = n2_interval(theta[:, None], s[:, None], np.array([0.0, np.pi / 2]))
    pieces = classify_fixed_point(ends).piece.ravel()
    assert pieces.tolist() == [Piece.PILLOW_SURFACE, Piece.INTERVAL_ENDPOINT] * 100
    assert certify_interval_injectivity(theta, s, grid=10).passed.all()
    _report(
        "7",
        "pillow conjugators trivial (1000), canonical point exact, 100 projective pairs,"
        " 100 interval grids injective with endpoints on both surfaces, 4 central points stratum III",
    )


def test_criterion_8_density_witnesses():
    rep = report("density")
    assert rep.trials == 1000 and rep.failures == 0  # non-abelian at t = 1e-4, 0.5 and 1
    worst = rep.max_residual["witness-approach"]
    assert worst < DENSITY_TOL
    _report("8", f"1000 abelian starts leave the torus for t > 0; gap at t=1e-4 max {worst:.3e}")


def test_criterion_9_normalization_note_in_report():
    assert any("factor-2" in note for note in report("polytope").notes)
    _report("9", "verify report carries the factor-2 normalization note")
