"""Tests for the swap involution, its fixed-point detection, and the
stratum/piece classification of the fixed locus."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from charvar.errors import ClassificationAmbiguity, PreconditionViolated
from charvar.polytope import moment_coordinates
from charvar.repvar import (
    Representation,
    class_equal,
    is_abelian,
    relation_residual,
)
from charvar.sigma import (
    DIAG_I,
    J,
    InjectivityReport,
    Piece,
    Stratum,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_point,
    classify_fixed_points,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma,
    sigma_fixed_conjugator,
)
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    commutator,
    conjugate,
    distance,
    exp_alg,
    haar_sample,
    mul,
)

EPS_MAT = 1e-9
I4 = GroupElement.identity()
MINUS_I = GroupElement.minus_identity()


def diag(theta: float) -> GroupElement:
    return GroupElement(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)]))


def swap_rep(rng) -> Representation:
    a, b = haar_sample(rng), haar_sample(rng)
    return Representation(a, b, b, a)


def axis_conjugator(comm: GroupElement) -> GroupElement:
    """One of the two pure-imaginary units in the stabilizer of comm."""
    return GroupElement(np.concatenate(([0.0], AlgebraElement(comm.vec).unit().v)))


def blowup_rep(rng) -> tuple[Representation, GroupElement]:
    g, h = haar_sample(rng), haar_sample(rng)
    k = axis_conjugator(commutator(g, h))
    return blowup_point(g, h, k), k


EVERY_PIECE = [
    Piece.PILLOW_INTERIOR,
    Piece.BLOWUP_INTERIOR,
    Piece.RP2_FIBER,
    Piece.INTERVAL_INTERIOR,
    Piece.PILLOW_SURFACE,
    Piece.INTERVAL_ENDPOINT,
    Piece.CENTRAL_VERTEX,
]


def every_piece_batch() -> Representation:
    """One quadruple of each piece, in the order of EVERY_PIECE."""
    rng = np.random.default_rng(94)
    arc = n2_interval(0.7, 1.3, np.array([0.4, 0.0, np.pi / 2]))
    rows = [
        pillow_point(diag(0.3), exp_alg(AlgebraElement(np.array([0.8, 0.0, 0.0])))),
        blowup_rep(rng)[0],
        rp2_fiber_point(DIAG_I),
        arc[0],
        arc[1],
        arc[2],
        Representation(I4, MINUS_I, MINUS_I, I4),
    ]
    return Representation.from_slots(np.stack([rho.slots() for rho in rows]))


# ---------------------------------------------------------------------------
# sigma itself
# ---------------------------------------------------------------------------


class TestSigma:
    def test_swaps_slots(self):
        rng = np.random.default_rng(70)
        rho = swap_rep(rng)
        out = sigma(rho)
        assert np.array_equal(out.g1.q, rho.h2.q)
        assert np.array_equal(out.h1.q, rho.g2.q)
        assert np.array_equal(out.g2.q, rho.h1.q)
        assert np.array_equal(out.h2.q, rho.g1.q)

    def test_involution_exact(self):
        rho = swap_rep(np.random.default_rng(71))
        back = sigma(sigma(rho))
        for a, b in zip(back.elements(), rho.elements()):
            assert np.array_equal(a.q, b.q)

    def test_preserves_relation(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            rho = swap_rep(rng)
            assert float(relation_residual(sigma(rho))) < 1e-13

    def test_rejects_nonsolutions(self):
        rng = np.random.default_rng(73)
        with pytest.raises(PreconditionViolated):
            sigma(
                Representation(
                    haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
                )
            )

    def test_rejects_nonfinite(self):
        # a NaN slot gives a NaN relation residual, which no tolerance
        # comparison may read as on the relation; the stacked conjugator
        # solve behind fixedness and classification would fail on it
        rng = np.random.default_rng(73)
        g, h = haar_sample(rng), haar_sample(rng)
        bad = Representation(g, h, h, GroupElement(np.full(4, np.nan)))
        for call in (sigma, sigma_fixed_conjugator, classify_fixed_point):
            with pytest.raises(PreconditionViolated):
                call(bad)
        batch = Representation.from_slots(np.stack([pillow_point(g, h).slots(), bad.slots()]))
        with pytest.raises(PreconditionViolated):
            next(classify_fixed_points(batch))

    def test_descends_to_classes(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            rho = swap_rep(rng)
            k = haar_sample(rng)
            assert class_equal(sigma(rho.conjugated(k)), sigma(rho))


# ---------------------------------------------------------------------------
# fixed-point detection
# ---------------------------------------------------------------------------


class TestSigmaFixedConjugator:
    def test_pillow_gives_identity(self):
        rng = np.random.default_rng(75)
        for _ in range(25):
            k = sigma_fixed_conjugator(pillow_point(haar_sample(rng), haar_sample(rng)))
            assert k is not None
            assert_allclose(k.q, [1.0, 0.0, 0.0, 0.0], atol=1e-7)

    def test_construct_then_recover_blowup(self):
        rng = np.random.default_rng(76)
        for _ in range(25):
            rho, k = blowup_rep(rng)
            found = sigma_fixed_conjugator(rho)
            assert found is not None
            swapped = sigma(rho)
            worst = max(
                float(distance(conjugate(found, a), b))
                for a, b in zip(rho.elements(), swapped.elements())
            )
            assert worst < EPS_MAT
            assert min(
                float(np.linalg.norm(found.q - k.q)),
                float(np.linalg.norm(found.q + k.q)),
            ) < 1e-7

    def test_swap_classes_fixed_even_after_conjugation(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            assert sigma_fixed_conjugator(swap_rep(rng).conjugated(haar_sample(rng))) is not None

    def test_interior_torus_moved_class_not_fixed(self):
        # a genuine relation solution that is NOT sigma-fixed: twist a swap
        # quadruple by a non-torsion torus angle
        from charvar.flows import TorusElement, act

        rng = np.random.default_rng(78)
        misses = 0
        for _ in range(25):
            rho = act(TorusElement(0.7, 0.0, 0.0), swap_rep(rng))
            if sigma_fixed_conjugator(rho) is None:
                misses += 1
        assert misses == 25

    def test_abelian_fixed_and_not(self):
        fixed = Representation(diag(0.3), diag(1.1), diag(1.1), diag(0.3))
        assert sigma_fixed_conjugator(fixed) is not None
        loose = Representation(diag(0.3), diag(1.1), diag(0.7), diag(2.0))
        assert sigma_fixed_conjugator(loose) is None


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


class TestPillowPoint:
    def test_identity_vertex(self):
        rho = pillow_point(I4, I4)
        sp = classify_fixed_point(rho)
        assert sp.stratum is Stratum.III
        assert sp.piece is Piece.CENTRAL_VERTEX

    def test_canonical_zero_trace_point(self):
        rho = pillow_point(DIAG_I, J)
        assert np.array_equal(moment_coordinates(rho), [0.5, 0.5, 0.5])  # trace 0 throughout
        assert float(distance(commutator(rho.g1, rho.h1), MINUS_I)) == 0.0

    def test_random_sigma_fixed(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            rho = pillow_point(haar_sample(rng), haar_sample(rng))
            assert sigma_fixed_conjugator(rho) is not None


class TestBlowupPoint:
    def test_constructed_points_valid(self):
        rng = np.random.default_rng(80)
        for _ in range(25):
            rho, _ = blowup_rep(rng)
            assert float(relation_residual(rho)) < 1e-12
            assert sigma_fixed_conjugator(rho) is not None

    def test_central_commutator_any_pure_k(self):
        # [diag(i,-i), J] = -1, whose stabilizer is everything
        rng = np.random.default_rng(81)
        v = AlgebraElement(rng.normal(size=3)).unit()
        k = GroupElement(np.concatenate(([0.0], v.v)))
        rho = blowup_point(DIAG_I, J, k)
        assert sigma_fixed_conjugator(rho) is not None

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(82)
        g, h = haar_sample(rng), haar_sample(rng)
        with pytest.raises(PreconditionViolated):
            blowup_point(g, h, I4)  # k^2 = +1

    @pytest.mark.parametrize("case", ["long-k", "nan-k", "nan-g"])
    def test_rejects_nonunit_or_nonfinite_input(self, case):
        # mul renormalizes and NaN comparisons read False, so k^2 = -1 alone
        # passes a k off the unit sphere or a NaN k
        rng = np.random.default_rng(82)
        g, h = haar_sample(rng), haar_sample(rng)
        k = axis_conjugator(commutator(g, h))
        if case == "long-k":
            k = GroupElement(1.001 * k.q)
        elif case == "nan-k":
            k = GroupElement(np.full(4, np.nan))
        else:
            g = GroupElement(np.full(4, np.nan))
        with pytest.raises(PreconditionViolated):
            blowup_point(g, h, k)

    def test_rejects_commuting_pair(self):
        with pytest.raises(PreconditionViolated):
            blowup_point(diag(0.3), diag(0.9), GroupElement(np.array([0.0, 0.0, 0.0, 1.0])))

    def test_rejects_noncommuting_k(self):
        rng = np.random.default_rng(83)
        g, h = haar_sample(rng), haar_sample(rng)
        # a random pure k almost surely fails [k, [g,h]] = 1
        v = AlgebraElement(rng.normal(size=3)).unit()
        k = GroupElement(np.concatenate(([0.0], v.v)))
        with pytest.raises(PreconditionViolated):
            blowup_point(g, h, k)

    def test_stabilizer_pure_units_unique_up_to_sign(self):
        # the pure-imaginary stabilizer of a noncentral commutator is exactly
        # the +-(axis) pair: any pure unit commuting with it is parallel
        rng = np.random.default_rng(84)
        for _ in range(100):
            g, h = haar_sample(rng), haar_sample(rng)
            comm = commutator(g, h)
            if float(np.linalg.norm(comm.vec)) < 1e-3:
                continue
            k = axis_conjugator(comm)
            assert float(distance(commutator(comm, k), I4)) < 1e-12
            u = AlgebraElement(rng.normal(size=3)).unit()
            if float(np.linalg.norm(np.cross(u.v, k.vec))) > 1e-3:
                ku = GroupElement(np.concatenate(([0.0], u.v)))
                assert float(distance(commutator(comm, ku), I4)) > 1e-6


class TestRP2FiberPoint:
    def test_direct_evaluation_at_diag(self):
        rho = rp2_fiber_point(DIAG_I)
        assert np.array_equal(rho.g1.q, DIAG_I.q)
        assert np.array_equal(rho.h1.q, J.q)
        assert np.array_equal(rho.g2.q, (-J).q)
        assert np.array_equal(rho.h2.q, DIAG_I.q)

    def test_plus_minus_k_same_class(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            v = AlgebraElement(rng.normal(size=3)).unit()
            k = GroupElement(np.concatenate(([0.0], v.v)))
            assert class_equal(rp2_fiber_point(k), rp2_fiber_point(-k))

    def test_generic_pairs_distinct(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            v1 = AlgebraElement(rng.normal(size=3)).unit()
            v2 = AlgebraElement(rng.normal(size=3)).unit()
            if float(np.linalg.norm(np.cross(v1.v, v2.v))) < 1e-2:
                continue
            k1 = GroupElement(np.concatenate(([0.0], v1.v)))
            k2 = GroupElement(np.concatenate(([0.0], v2.v)))
            assert not class_equal(rp2_fiber_point(k1), rp2_fiber_point(k2))

    def test_not_on_the_pillow(self):
        # the fiber over trace -2 is disjoint from the swap pillow's own
        # canonical point
        assert not class_equal(rp2_fiber_point(DIAG_I), pillow_point(DIAG_I, J))

    def test_rejects_bad_k(self):
        with pytest.raises(PreconditionViolated):
            rp2_fiber_point(I4)
        with pytest.raises(PreconditionViolated):
            rp2_fiber_point(GroupElement(np.array([[0.0, 0.0, 0.0, 1.0], [np.nan] * 4])))


class TestN2Interval:
    def test_alpha_zero_is_pillow_bitwise(self):
        rho = n2_interval(0.7, 1.3, 0.0)
        pil = pillow_point(diag(0.7), diag(1.3))
        for a, b in zip(rho.elements(), pil.elements()):
            assert np.array_equal(a.q, b.q)

    def test_alpha_half_pi_inverts_bitwise(self):
        rho = n2_interval(0.7, 1.3, np.pi / 2)
        assert np.array_equal(rho.g2.q, diag(1.3).inverse().q)
        assert np.array_equal(rho.h2.q, diag(0.7).inverse().q)

    def test_k_alpha_properties(self):
        for alpha in np.linspace(0, np.pi / 2, 7):
            c, s = np.cos(alpha), np.sin(alpha)
            k = GroupElement(np.array([0.0, s, 0.0, c]))
            k = GroupElement(k.q / np.linalg.norm(k.q))
            assert abs(float(k.trace())) < 1e-15
            assert float(distance(mul(k, k), MINUS_I)) < 1e-15

    def test_interior_distinct_from_endpoints(self):
        rho = n2_interval(0.7, 1.3, 0.3)
        assert not class_equal(rho, n2_interval(0.7, 1.3, 0.0))
        assert not class_equal(rho, n2_interval(0.7, 1.3, np.pi / 2))

    def test_all_points_sigma_fixed(self):
        for alpha in np.linspace(0, np.pi / 2, 9):
            assert sigma_fixed_conjugator(n2_interval(0.9, 0.4, float(alpha))) is not None

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionViolated):
            n2_interval(0.0, 0.0, 0.3)
        with pytest.raises(PreconditionViolated):
            n2_interval(np.pi, 2 * np.pi, 0.3)

    @pytest.mark.parametrize("theta, s", [(np.nan, 1.3), (0.7, np.inf)])
    def test_nonfinite_angles_rejected(self, theta, s):
        with pytest.raises(PreconditionViolated):
            n2_interval(theta, s, 0.4)
        with pytest.raises(PreconditionViolated):
            certify_interval_injectivity(theta, s, grid=5)

    def test_alpha_out_of_range(self):
        with pytest.raises(PreconditionViolated):
            n2_interval(0.7, 1.3, -0.1)
        with pytest.raises(PreconditionViolated):
            n2_interval(0.7, 1.3, 2.0)
        with pytest.raises(PreconditionViolated):
            n2_interval(0.7, 1.3, np.array([0.1, np.nan, 0.2]))

    def test_batched_rows_match_scalar_bitwise(self):
        alphas = np.linspace(0.0, np.pi / 2, 11)
        arc = n2_interval(0.7, np.pi / 2, alphas)
        assert arc.batch_shape == (11,)
        for i, alpha in enumerate(alphas):
            one = n2_interval(0.7, np.pi / 2, float(alpha))
            for a, b in zip(arc[i].elements(), one.elements()):
                assert np.array_equal(a.q.view(np.int64), b.q.view(np.int64))


class TestInjectivity:
    def test_generic_grid_clean(self):
        rep = certify_interval_injectivity(0.7, 1.3, grid=10)
        assert rep.passed
        assert rep.collisions == ()
        assert rep.fixed_failures == ()

    def test_spec_grid_point(self):
        rep = certify_interval_injectivity(np.pi / 2, np.pi / 3, grid=10)
        assert rep.passed

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionViolated):
            certify_interval_injectivity(0.0, np.pi, grid=5)
        with pytest.raises(PreconditionViolated):  # also with no grid point
            certify_interval_injectivity(0.0, np.pi, grid=0)

    @given(
        st.one_of(st.floats(0.0, 2 * np.pi), st.sampled_from([0.0, np.pi / 2, np.pi, 1.5 * np.pi])),
        st.one_of(st.floats(0.0, 2 * np.pi), st.sampled_from([0.0, np.pi / 2, np.pi, 1.5 * np.pi])),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_loop(self, theta, s, grid):
        try:
            want = loop_certify(theta, s, grid)
        except PreconditionViolated:
            with pytest.raises(PreconditionViolated):
                certify_interval_injectivity(theta, s, grid)
            return
        got = certify_interval_injectivity(theta, s, grid)
        assert (got.theta, got.s) == (want.theta, want.s)
        assert np.array_equal(got.alphas, want.alphas)
        assert got.fixed_failures == want.fixed_failures
        assert got.collisions == want.collisions


def loop_certify(theta: float, s: float, grid: int, tol: float = EPS_MAT) -> InjectivityReport:
    """The reference certificate: one scalar fixedness solve per grid point
    and one class_equal per pair."""
    alphas = np.linspace(0.0, np.pi / 2, grid)
    points = [n2_interval(theta, s, float(a)) for a in alphas]
    fixed_failures = tuple(
        float(a) for a, p in zip(alphas, points) if sigma_fixed_conjugator(p, tol) is None
    )
    collisions = tuple(
        (float(alphas[i]), float(alphas[j]))
        for i in range(grid)
        for j in range(i + 1, grid)
        if class_equal(points[i], points[j], tol)
    )
    return InjectivityReport(float(theta), float(s), alphas, fixed_failures, collisions)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_central_vertices(self):
        for rho in (
            Representation(I4, I4, I4, I4),
            Representation(I4, MINUS_I, MINUS_I, I4),
        ):
            sp = classify_fixed_point(rho)
            assert sp.stratum is Stratum.III
            assert sp.piece is Piece.CENTRAL_VERTEX
            assert np.array_equal(sp.conjugator.q, DIAG_I.q)

    def test_pillow_interior(self):
        rng = np.random.default_rng(87)
        for _ in range(10):
            rho = pillow_point(haar_sample(rng), haar_sample(rng))
            if float(distance(commutator(rho.g1, rho.h1), I4)) < 1e-2:
                continue
            sp = classify_fixed_point(rho)
            assert sp.stratum is Stratum.I
            assert sp.piece is Piece.PILLOW_INTERIOR
            assert float(distance(mul(sp.conjugator, sp.conjugator), I4)) < 1e-12

    def test_canonical_pillow_point(self):
        sp = classify_fixed_point(pillow_point(DIAG_I, J))
        assert sp.piece is Piece.PILLOW_INTERIOR

    def test_blowup_interior(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            rho, _ = blowup_rep(rng)
            if abs(float(commutator(rho.g1, rho.h1).trace()) + 2.0) < 1e-2:
                continue
            sp = classify_fixed_point(rho)
            assert sp.stratum is Stratum.I
            assert sp.piece is Piece.BLOWUP_INTERIOR
            assert float(distance(mul(sp.conjugator, sp.conjugator), MINUS_I)) < 1e-12

    def test_rp2_fiber(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            v = AlgebraElement(rng.normal(size=3)).unit()
            k = GroupElement(np.concatenate(([0.0], v.v)))
            sp = classify_fixed_point(rp2_fiber_point(k))
            assert sp.stratum is Stratum.I
            assert sp.piece is Piece.RP2_FIBER

    def test_interval_pieces_and_strata(self):
        theta, s = 0.7, 1.3
        sp0 = classify_fixed_point(n2_interval(theta, s, 0.0))
        assert sp0.piece is Piece.PILLOW_SURFACE
        assert sp0.stratum is Stratum.II
        sp1 = classify_fixed_point(n2_interval(theta, s, np.pi / 2))
        assert sp1.piece is Piece.INTERVAL_ENDPOINT
        assert sp1.stratum is Stratum.II
        spm = classify_fixed_point(n2_interval(theta, s, 0.4))
        assert spm.piece is Piece.INTERVAL_INTERIOR
        # interior arc points use two distinct axes: stabilizer is central
        assert spm.stratum is Stratum.I

    def test_stratum_matches_axis_check(self):
        # classifier's stratum must agree with a brute-force shared-axis test
        theta, s = 0.9, 0.4
        for alpha in np.linspace(0, np.pi / 2, 9):
            rho = n2_interval(theta, s, float(alpha))
            sp = classify_fixed_point(rho)
            vecs = [x.vec for x in rho.elements() if np.linalg.norm(x.vec) > 1e-9]
            shares_axis = all(
                float(np.linalg.norm(np.cross(vecs[0], v))) < 1e-9 for v in vecs[1:]
            )
            assert (sp.stratum is Stratum.II) == shares_axis

    def test_n2_conjugators_pure_imaginary(self):
        for alpha in (0.0, 0.4, np.pi / 2):
            sp = classify_fixed_point(n2_interval(0.7, 1.3, float(alpha)))
            assert sp.conjugator.q[0] == 0.0
            assert float(distance(mul(sp.conjugator, sp.conjugator), MINUS_I)) < 1e-12

    def test_conjugator_witnesses_fixedness(self):
        rng = np.random.default_rng(90)
        cases = [
            pillow_point(haar_sample(rng), haar_sample(rng)),
            blowup_rep(rng)[0],
            rp2_fiber_point(DIAG_I),
            n2_interval(0.9, 0.4, 0.25),
        ]
        for rho in cases:
            sp = classify_fixed_point(rho)
            swapped = sigma(rho)
            worst = max(
                float(distance(conjugate(sp.conjugator, a), b))
                for a, b in zip(rho.elements(), swapped.elements())
            )
            assert worst < 1e-8

    def test_not_fixed_raises(self):
        from charvar.flows import TorusElement, act

        rng = np.random.default_rng(91)
        rho = act(TorusElement(0.9, 0.0, 0.0), swap_rep(rng))
        with pytest.raises(PreconditionViolated):
            classify_fixed_point(rho)

    def test_centrality_gray_zone_raises(self):
        # an exact swap quadruple whose [g1,h1] is 3.64e-9 from the identity,
        # inside the gray zone (tol, 10*tol) of the N1/N2 split
        h = mul(exp_alg(AlgebraElement(np.array([2e-9, 0.0, 0.0]))), diag(1.3))
        with pytest.raises(ClassificationAmbiguity, match="centrality"):
            classify_fixed_point(pillow_point(diag(0.7), h))

    @pytest.mark.parametrize(
        "eps, error", [(3e-10, None), (1e-9, ClassificationAmbiguity), (4e-9, PreconditionViolated)]
    )
    def test_fixedness_gray_zone(self, eps, error):
        # (g, h, h, e g) is off the swap locus and off the relation by about
        # |e|: at 3e-10 it classifies, at 1e-9 the fixedness residual lies in
        # the gray zone (tol, 10*tol), and at 4e-9 sigma rejects it as off
        # the relation
        rng = np.random.default_rng(3)
        g, h = haar_sample(rng), haar_sample(rng)
        rho = Representation(g, h, h, mul(exp_alg(AlgebraElement(np.array([0.0, eps, 0.0]))), g))
        if error is None:
            assert classify_fixed_point(rho).piece is Piece.PILLOW_INTERIOR
            return
        with pytest.raises(error) as raised:
            classify_fixed_point(rho)
        assert type(raised.value) is error

    @pytest.mark.parametrize("case", ["gray-zone", "interval", "batch"])
    def test_one_swap_and_one_solve(self, monkeypatch, case):
        # the fixedness solve reads fixed, gray zone and not fixed from one
        # residual, and the N2 pieces reuse the swap it was built from; a
        # batch makes one swap and one solve for all its rows
        import charvar.su2 as su2

        sigma_module = sys.modules["charvar.sigma"]  # the package exports a function of that name
        counts = {"sigma": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sigma_module, "sigma", counted("sigma", sigma))
        solve = counted("solve", su2._find_conjugators)
        monkeypatch.setattr(sigma_module, "_find_conjugators", solve)
        monkeypatch.setattr(su2, "_find_conjugators", solve)
        if case == "gray-zone":  # the eps = 1e-9 point of test_fixedness_gray_zone
            rng = np.random.default_rng(3)
            g, h = haar_sample(rng), haar_sample(rng)
            rho = Representation(g, h, h, mul(exp_alg(AlgebraElement(np.array([0.0, 1e-9, 0.0]))), g))
            with pytest.raises(ClassificationAmbiguity, match="sigma-fixedness"):
                classify_fixed_point(rho)
        elif case == "interval":
            assert classify_fixed_point(n2_interval(0.7, 1.3, 0.4)).piece is Piece.INTERVAL_INTERIOR
        else:
            points = list(classify_fixed_points(every_piece_batch()))
            assert {point.piece for point in points} == set(Piece)
        assert counts == {"sigma": 1, "solve": 1}

    def test_batch_rows_match_single_calls(self):
        batch = every_piece_batch()
        points = list(classify_fixed_points(batch))
        assert [point.piece for point in points] == EVERY_PIECE
        for i, point in enumerate(points):
            one = classify_fixed_point(batch[i])
            assert (point.piece, point.stratum) == (one.piece, one.stratum)
            bits = (p.conjugator.q.view(np.int64) for p in (point, one))
            assert np.array_equal(*bits)
            assert np.array_equal(point.rep.slots(), batch[i].slots())

    @pytest.mark.parametrize("error", [PreconditionViolated, ClassificationAmbiguity])
    def test_batch_raises_at_first_failing_row(self, error):
        from charvar.flows import TorusElement, act

        rng = np.random.default_rng(93)
        if error is PreconditionViolated:  # a class that is not sigma-fixed
            bad = act(TorusElement(0.9, 0.0, 0.0), swap_rep(rng))
        else:  # [g1,h1] in the centrality gray zone, as in test_centrality_gray_zone_raises
            h = mul(exp_alg(AlgebraElement(np.array([2e-9, 0.0, 0.0]))), diag(1.3))
            bad = pillow_point(diag(0.7), h)
        rows = every_piece_batch().slots()
        batch = Representation.from_slots(np.concatenate([rows[:3], bad.slots()[None], rows[3:]]))
        points = classify_fixed_points(batch)
        assert [next(points).piece for _ in range(3)] == EVERY_PIECE[:3]
        with pytest.raises(error) as raised:
            next(points)
        assert type(raised.value) is error

    def test_conjugated_fixed_points_still_classified(self):
        rng = np.random.default_rng(92)
        k = haar_sample(rng)
        rho, _ = blowup_rep(rng)
        sp = classify_fixed_point(rho.conjugated(k))
        assert sp.piece is Piece.BLOWUP_INTERIOR
