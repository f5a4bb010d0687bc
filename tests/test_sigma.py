"""Tests for the swap involution, its fixed-point detection, and the
stratum/piece classification of the fixed locus."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from charvar.errors import ClassificationAmbiguity, PreconditionViolated
from charvar.polytope import moment_coordinates
from charvar.repvar import (
    Representation,
    _class_equal,
    class_equal,
    is_abelian,
    relation_residual,
)
from charvar.sigma import (
    DIAG_I,
    J,
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
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    StabilizerType,
    commutator,
    conjugate,
    distance,
    exp_alg,
    haar_sample,
    mul,
    stabilizer_type,
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
            classify_fixed_point(batch)

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
            k, fixed = sigma_fixed_conjugator(pillow_point(haar_sample(rng), haar_sample(rng)))
            assert fixed is True
            assert_allclose(k.q, [1.0, 0.0, 0.0, 0.0], atol=1e-7)

    def test_construct_then_recover_blowup(self):
        rng = np.random.default_rng(76)
        for _ in range(25):
            rho, k = blowup_rep(rng)
            found, fixed = sigma_fixed_conjugator(rho)
            assert fixed is True
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
            assert sigma_fixed_conjugator(swap_rep(rng).conjugated(haar_sample(rng)))[1]

    def test_interior_torus_moved_class_not_fixed(self):
        # a genuine relation solution that is NOT sigma-fixed: twist a swap
        # quadruple by a non-torsion torus angle
        from charvar.flows import TorusElement, act

        rng = np.random.default_rng(78)
        misses = 0
        for _ in range(25):
            rho = act(TorusElement(0.7, 0.0, 0.0), swap_rep(rng))
            if not sigma_fixed_conjugator(rho)[1]:
                misses += 1
        assert misses == 25

    def test_abelian_fixed_and_not(self):
        fixed = Representation(diag(0.3), diag(1.1), diag(1.1), diag(0.3))
        assert sigma_fixed_conjugator(fixed)[1] is True
        loose = Representation(diag(0.3), diag(1.1), diag(0.7), diag(2.0))
        assert sigma_fixed_conjugator(loose)[1] is False


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
            assert sigma_fixed_conjugator(rho)[1]


class TestBlowupPoint:
    def test_constructed_points_valid(self):
        rng = np.random.default_rng(80)
        for _ in range(25):
            rho, _ = blowup_rep(rng)
            assert float(relation_residual(rho)) < 1e-12
            assert sigma_fixed_conjugator(rho)[1]

    def test_central_commutator_any_pure_k(self):
        # [diag(i,-i), J] = -1, whose stabilizer is everything
        rng = np.random.default_rng(81)
        v = AlgebraElement(rng.normal(size=3)).unit()
        k = GroupElement(np.concatenate(([0.0], v.v)))
        rho = blowup_point(DIAG_I, J, k)
        assert sigma_fixed_conjugator(rho)[1]

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

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(85)
        g, h = haar_sample(rng, (3,)), haar_sample(rng, (3,))
        k = GroupElement(np.stack([axis_conjugator(commutator(g[i], h[i])).q for i in range(3)]))
        batch = blowup_point(g, h, k)
        assert batch.batch_shape == (3,)
        for i in range(3):
            one = blowup_point(g[i], h[i], k[i])
            assert np.array_equal(batch[i].slots().view(np.int64), one.slots().view(np.int64))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("k-squared", "k\\^2 = -1"),
            ("commuting-pair", "\\[g,h\\] != 1"),
            ("noncommuting-k", "commute"),
            ("nan-g", "relation"),
        ],
    )
    def test_batch_with_one_bad_row_raises(self, case, message):
        # each check reads every row; a bad middle row raises as it does alone
        rng = np.random.default_rng(86)
        g, h = haar_sample(rng, (3,)), haar_sample(rng, (3,))
        k = np.stack([axis_conjugator(commutator(g[i], h[i])).q for i in range(3)])
        g, h = g.q.copy(), h.q.copy()
        if case == "k-squared":
            k[1] = I4.q
        elif case == "commuting-pair":
            g[1], h[1] = diag(0.3).q, diag(0.9).q
            k[1] = DIAG_I.q
        elif case == "noncommuting-k":
            k[1] = np.concatenate(([0.0], AlgebraElement(rng.normal(size=3)).unit().v))
        else:
            g[1] = np.nan
        for args in ((g, h, k), (g[1], h[1], k[1])):
            with pytest.raises(PreconditionViolated, match=message):
                blowup_point(*(GroupElement(q) for q in args))

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
            assert sigma_fixed_conjugator(n2_interval(0.9, 0.4, float(alpha)))[1]

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
        # (m, 1) angle arrays against a (grid,) parameter array, with exact
        # multiples of pi/2 (where cos and sin snap) among the angles
        theta = np.array([[0.7], [np.pi / 2], [np.pi], [1.5 * np.pi], [0.0], [2.9]])
        s = np.array([[1.3], [np.pi], [np.pi / 2], [0.4], [1.5 * np.pi], [2 * np.pi / 3]])
        alphas = np.linspace(0.0, np.pi / 2, 7)
        arcs = n2_interval(theta, s, alphas)
        assert arcs.batch_shape == (6, 7)
        for m in range(6):
            for i, alpha in enumerate(alphas):
                one = n2_interval(float(theta[m, 0]), float(s[m, 0]), float(alpha))
                for a, b in zip(arcs[m, i].elements(), one.elements()):
                    assert np.array_equal(a.q.view(np.int64), b.q.view(np.int64))

    @pytest.mark.parametrize(
        "theta, s",
        [((0.7, 0.0), (1.3, np.pi)), ((0.7, np.nan), (1.3, 0.4)), ((0.7, 0.9), (1.3, np.inf))],
    )
    def test_bad_arc_anywhere_in_batch_rejected(self, theta, s):
        # one degenerate or non-finite arc among good ones fails the batch
        theta, s = np.array(theta), np.array(s)
        with pytest.raises(PreconditionViolated):
            n2_interval(theta[:, None], s[:, None], np.array([0.0, 0.4]))
        with pytest.raises(PreconditionViolated):
            certify_interval_injectivity(theta, s, grid=5)
        with pytest.raises(PreconditionViolated):  # and a grid of no point
            certify_interval_injectivity(theta, s, grid=0)


# arc angles, exact multiples of pi/2 included
ANGLE = st.one_of(
    st.floats(0.0, 2 * np.pi), st.sampled_from([0.0, np.pi / 2, np.pi, 1.5 * np.pi])
)


# arc parameters, both endpoints included
ARC_PARAMETER = st.one_of(st.floats(0.0, np.pi / 2), st.sampled_from([0.0, np.pi / 2]))


class TestInjectivity:
    def test_generic_grid_clean(self):
        rep = certify_interval_injectivity(0.7, 1.3, grid=10)
        assert rep.passed
        assert not rep.equal.any()
        assert rep.fixed.all()

    def test_spec_grid_point(self):
        rep = certify_interval_injectivity(np.pi / 2, np.pi / 3, grid=10)
        assert rep.passed

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionViolated):
            certify_interval_injectivity(0.0, np.pi, grid=5)
        with pytest.raises(PreconditionViolated):  # and a grid of no point
            certify_interval_injectivity(0.0, np.pi, grid=0)

    @pytest.mark.parametrize("grid", [-1, 0, 2.5])
    def test_bad_grid_rejected(self, grid):
        # a precondition, not the ValueError or TypeError of NumPy
        with pytest.raises(PreconditionViolated, match="grid must be an integer >= 1"):
            certify_interval_injectivity(0.7, 1.3, grid)

    @given(ANGLE, ANGLE, st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_loop(self, theta, s, grid):
        try:
            want_fixed, want_equal = loop_certify(theta, s, grid)
        except PreconditionViolated:
            with pytest.raises(PreconditionViolated):
                certify_interval_injectivity(theta, s, grid)
            return
        got = certify_interval_injectivity(theta, s, grid)
        assert (got.theta, got.s) == (theta, s)
        assert np.array_equal(got.alphas, np.linspace(0.0, np.pi / 2, grid))
        assert np.array_equal(got.fixed, want_fixed)
        assert np.array_equal(got.equal, want_equal)
        assert got.passed == (want_fixed.all() and not want_equal.any())

    @given(st.lists(st.tuples(ANGLE, ANGLE), min_size=1, max_size=6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_arcs_one_at_a_time(self, arcs, grid):
        theta, s = np.array(arcs).T
        try:
            ones = [certify_interval_injectivity(float(t), float(u), grid) for t, u in arcs]
        except PreconditionViolated:
            with pytest.raises(PreconditionViolated):
                certify_interval_injectivity(theta, s, grid)
            return
        got = certify_interval_injectivity(theta[:, None], s[:, None], grid)
        assert got.fixed.shape == (len(arcs), 1, grid)
        assert got.equal.shape == (len(arcs), 1, grid * (grid - 1) // 2)
        for m, one in enumerate(ones):
            assert np.array_equal(got.fixed[m, 0], one.fixed)
            assert np.array_equal(got.equal[m, 0], one.equal)
            assert got.passed[m, 0] == one.passed

    @pytest.mark.parametrize("arcs", [1, 2, 3])
    @pytest.mark.parametrize("grid", range(2, 13))
    def test_one_class_read_equals_the_two_reads(self, grid, arcs):
        # the fixedness read is each point's class read against its swap, in
        # the same call as the pairs: the masks are those of the separate
        # reads (2e-16 splits the fixed mask, 1.0 the pair mask)
        rng = np.random.default_rng(100 * grid + arcs)
        theta, s = rng.uniform(0.3, np.pi - 0.3, size=(2, arcs))
        points = n2_interval(theta[:, None], s[:, None], np.linspace(0.0, np.pi / 2, grid))
        flat = Representation.from_slots(points.slots().reshape(-1, 4, 4))
        i, j = np.triu_indices(grid, 1)
        for tol in (EPS_MAT, 2e-16, 1.0):
            got = certify_interval_injectivity(theta, s, grid, tol)
            _, fixed = sigma_fixed_conjugator(flat, tol)
            equal = [_class_equal(points[a, i], points[a, j], tol) for a in range(arcs)]
            assert np.array_equal(got.fixed, fixed.reshape(arcs, grid))
            assert np.array_equal(got.equal, np.stack(equal))

    def test_failures_read_per_arc(self):
        # a tolerance everything meets: every pair of every arc collides
        rep = certify_interval_injectivity(np.array([0.7, 0.9]), 1.3, grid=4, tol=1e290)
        assert rep.fixed.shape == (2, 4) and rep.fixed.all()
        assert rep.equal.shape == (2, 6) and rep.equal.all()
        assert rep.passed.tolist() == [False, False]


def loop_certify(
    theta: float, s: float, grid: int, tol: float = EPS_MAT
) -> tuple[np.ndarray, np.ndarray]:
    """The reference masks of one arc: one scalar fixedness solve per grid
    point and one class_equal per pair, pairs in np.triu_indices order."""
    alphas = np.linspace(0.0, np.pi / 2, grid)
    points = [n2_interval(theta, s, float(a)) for a in alphas]
    fixed = np.array([sigma_fixed_conjugator(p, tol)[1] for p in points], dtype=bool)
    equal = np.array(
        [class_equal(points[i], points[j], tol) for i, j in zip(*np.triu_indices(grid, 1))],
        dtype=bool,
    )
    return fixed, equal


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
        solve = counted("solve", su2.find_conjugator)
        monkeypatch.setattr(sigma_module, "find_conjugator", solve)
        monkeypatch.setattr(su2, "find_conjugator", solve)
        if case == "gray-zone":  # the eps = 1e-9 point of test_fixedness_gray_zone
            rng = np.random.default_rng(3)
            g, h = haar_sample(rng), haar_sample(rng)
            rho = Representation(g, h, h, mul(exp_alg(AlgebraElement(np.array([0.0, 1e-9, 0.0]))), g))
            with pytest.raises(ClassificationAmbiguity, match="sigma-fixedness"):
                classify_fixed_point(rho)
        elif case == "interval":
            assert classify_fixed_point(n2_interval(0.7, 1.3, 0.4)).piece is Piece.INTERVAL_INTERIOR
        else:
            assert set(classify_fixed_point(every_piece_batch()).piece) == set(Piece)
        assert counts == {"sigma": 1, "solve": 1}

    @given(st.lists(st.tuples(ANGLE, ANGLE, ARC_PARAMETER), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_n2_conjugators_from_one_pure_solve(self, rows):
        # every N2 conjugator of a batch is pure imaginary, sign-canonical
        # and a witness, and strata and pieces are those of the per-row read
        try:
            batch = Representation.from_slots(
                np.stack([n2_interval(t, u, a).slots() for t, u, a in rows])
            )
        except PreconditionViolated:  # a degenerate (central) pair of angles
            assume(False)
        point = classify_fixed_point(batch)
        for i in range(len(rows)):
            conj, swapped = point.conjugator[i], sigma(batch[i])
            assert conj.q[0] == 0.0
            assert conj.q[np.argmax(np.abs(conj.q))] > 0.0
            assert batch[i].conjugated(conj).slot_distance(swapped) < EPS_MAT
            assert (point.stratum[i], point.piece[i]) == frozen_n2_read(batch[i])

    def test_classification_never_reads_the_nullspace_basis(self, monkeypatch):
        import charvar.su2 as su2

        def refuse(*args, **kwargs):
            raise AssertionError("conjugator_nullspace called")

        monkeypatch.setattr(su2, "conjugator_nullspace", refuse)
        assert classify_fixed_point(every_piece_batch()).piece.tolist() == EVERY_PIECE

    def test_pure_solve_only_on_batches_with_n2_rows(self, monkeypatch):
        sigma_module = sys.modules["charvar.sigma"]
        calls = []
        solve = sigma_module._pure_imaginary_conjugators

        def counted(*args):
            calls.append(args[0].batch_shape)
            return solve(*args)

        monkeypatch.setattr(sigma_module, "_pure_imaginary_conjugators", counted)
        no_arc = every_piece_batch().slots()[[0, 1, 2, 6]]
        classify_fixed_point(Representation.from_slots(no_arc))
        assert calls == []
        classify_fixed_point(every_piece_batch())
        assert calls == [(3,)]  # the three N2 rows, in one solve

    @pytest.mark.parametrize(
        "rows",
        [range(7), [3, 4, 5, 0], [0, 1, 2, 6], [6, 6, 6, 6]],
        ids=["all", "n2", "no-n2", "central"],
    )
    def test_one_surface_read_equals_the_two_reads(self, monkeypatch, rows):
        # the pillow-surface and other-surface reads of the N2 rows are one
        # class-equality call over those rows stacked twice, and none without
        # an N2 row; pieces and conjugators are those of the two-call read
        sigma_module = sys.modules["charvar.sigma"]
        calls, read = [], sigma_module._class_equal

        def counted(rho, other, tol):
            calls.append(rho.batch_shape)
            return read(rho, other, tol)

        batch = Representation.from_slots(every_piece_batch().slots()[list(rows)])
        monkeypatch.setattr(sigma_module, "_class_equal", counted)
        point = classify_fixed_point(batch)
        monkeypatch.undo()
        n2 = [i for i, r in enumerate(rows) if 3 <= r <= 5]
        assert calls == ([(2 * len(n2),)] if n2 else [])
        assert point.piece.tolist() == [EVERY_PIECE[r] for r in rows]
        if n2:
            assert list(point.piece[n2]) == list(two_call_arc_pieces(batch[np.array(n2)]))
        for i in range(len(rows)):
            one = classify_fixed_point(batch[i])
            assert np.array_equal(point.conjugator.q[i].view(np.int64), one.conjugator.q.view(np.int64))

    def test_batch_rows_match_single_calls(self):
        batch = every_piece_batch()
        point = classify_fixed_point(batch)
        assert point.rep is batch and point.piece.tolist() == EVERY_PIECE
        for i in range(len(EVERY_PIECE)):
            one = classify_fixed_point(batch[i])
            assert (point.piece[i], point.stratum[i]) == (one.piece, one.stratum)
            assert isinstance(one.piece, Piece) and isinstance(one.stratum, Stratum)
            assert np.array_equal(point.conjugator.q[i].view(np.int64), one.conjugator.q.view(np.int64))
            assert np.array_equal(one.rep.slots(), batch[i].slots())

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
        with pytest.raises(error) as raised:
            classify_fixed_point(batch)
        assert type(raised.value) is error
        assert raised.value.row == (3,) and str(raised.value).endswith(" (row (3,))")
        # the rows before it classify; a single quadruple's refusal names no row
        assert classify_fixed_point(batch[:3]).piece.tolist() == EVERY_PIECE[:3]
        with pytest.raises(error) as alone:
            classify_fixed_point(bad)
        assert alone.value.row == () and "(row" not in str(alone.value)

    def test_conjugated_fixed_points_still_classified(self):
        rng = np.random.default_rng(92)
        k = haar_sample(rng)
        rho, _ = blowup_rep(rng)
        sp = classify_fixed_point(rho.conjugated(k))
        assert sp.piece is Piece.BLOWUP_INTERIOR


_STRATUM = {StabilizerType.CENTER: Stratum.I, StabilizerType.TORUS: Stratum.II}


def two_call_arc_pieces(arc: Representation, tol: float = EPS_MAT) -> np.ndarray:
    """The pieces of a batch of N2 rows as the classification read them in
    two class-equality calls, one per surface: kept as a reference."""
    surface = _class_equal(arc, pillow_point(arc.g1, arc.h1), tol)
    other = Representation(arc.g1, arc.h1, arc.h1.inverse(), arc.g1.inverse())
    endpoint = _class_equal(arc, other, tol)
    interval = np.where(endpoint, Piece.INTERVAL_ENDPOINT, Piece.INTERVAL_INTERIOR)
    return np.where(surface, Piece.PILLOW_SURFACE, interval)


def frozen_n2_read(rho: Representation, tol: float = EPS_MAT) -> tuple[Stratum, Piece]:
    """(stratum, piece) of one N2 quadruple read row by row, with scalar
    calls, as the classification read it before it ran in batches: kept as
    an oracle."""
    if class_equal(rho, pillow_point(rho.g1, rho.h1), tol):
        piece = Piece.PILLOW_SURFACE
    elif class_equal(rho, Representation(rho.g1, rho.h1, rho.h1.inverse(), rho.g1.inverse()), tol):
        piece = Piece.INTERVAL_ENDPOINT
    else:
        piece = Piece.INTERVAL_INTERIOR
    return _STRATUM[stabilizer_type(GroupElement(rho.slots()), axis_tol=tol)], piece
