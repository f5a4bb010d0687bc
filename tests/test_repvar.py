"""Tests for representation quadruples and their conjugation invariants.

Exact-solution families used throughout:
  * swap family (a, b, b, a): [a,b][b,a] = [a,b][a,b]^{-1} = 1 for any a, b;
  * diagonal (abelian) quadruples: all commutators vanish;
  * the quaternion pair D = diag(i,-i), K = [[0,-1],[1,0]] with [D,K] = -1.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charvar.errors import PreconditionViolated, RelationViolated
from charvar.polytope import RegionKind
from charvar.repvar import (
    F2Pair,
    Representation,
    class_equal,
    diagonalize_abelian,
    goldman_Phi,
    is_abelian,
    new_checked,
    new_projected,
    psi_F2,
    relation_residual,
)
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    exp_alg,
    haar_sample,
    mul,
)

RESIDUAL_TOL = 1e-14

DIAG_I = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))
J = GroupElement(np.array([0.0, -1.0, 0.0, 0.0]))
PILLOW = Representation(DIAG_I, J, J, DIAG_I)


def diag(theta: float) -> GroupElement:
    return GroupElement(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)]))


def swap_rep(rng) -> Representation:
    """Haar-random exact solution of the surface relation."""
    a, b = haar_sample(rng), haar_sample(rng)
    return Representation(a, b, b, a)


def trace_oracle(g: GroupElement) -> float:
    return float(np.trace(g.matrix).real)


# ---------------------------------------------------------------------------
# relation residual and constructors
# ---------------------------------------------------------------------------


class TestRelation:
    def test_identity_quadruple_exact(self):
        rho = Representation(*([GroupElement.identity()] * 4))
        assert relation_residual(rho) == 0.0

    def test_swap_family_satisfies_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert relation_residual(swap_rep(rng)) < RESIDUAL_TOL

    def test_pillow_satisfies_relation_exactly(self):
        # [D, J] = -1 exactly in this arithmetic, and (-1)(-1) = 1
        assert relation_residual(PILLOW) == 0.0

    def test_abelian_quadruples_satisfy_relation(self):
        rng = np.random.default_rng(1)
        angles = rng.uniform(0, 2 * np.pi, size=4)
        rho = Representation(*(diag(t) for t in angles))
        assert relation_residual(rho) < RESIDUAL_TOL

    def test_batched_residual(self):
        rng = np.random.default_rng(2)
        rho = Representation(
            haar_sample(rng, (64,)),
            haar_sample(rng, (64,)),
            haar_sample(rng, (64,)),
            haar_sample(rng, (64,)),
        )
        res = relation_residual(rho)
        assert res.shape == (64,)
        assert np.min(res) > 1e-3  # random quadruples are far off the relation

    def test_conjugation_preserves_residual(self):
        rng = np.random.default_rng(3)
        rho = swap_rep(rng)
        k = haar_sample(rng)
        assert relation_residual(rho.conjugated(k)) < 10 * RESIDUAL_TOL

    def test_new_checked_accepts_solutions(self):
        rng = np.random.default_rng(4)
        rho = swap_rep(rng)
        new_checked(*rho.elements())

    def test_new_checked_rejects_random_quadruple(self):
        rng = np.random.default_rng(5)
        with pytest.raises(RelationViolated):
            new_checked(
                haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
            )
        assert issubclass(RelationViolated, PreconditionViolated)

    def test_mismatched_batch_shapes_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            Representation(
                haar_sample(rng, (3,)),
                haar_sample(rng, (4,)),
                haar_sample(rng, (3,)),
                haar_sample(rng, (3,)),
            )


class TestNewProjected:
    def test_repairs_roundoff_scale_drift(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = swap_rep(rng)
            wiggle = exp_alg(AlgebraElement(1e-6 * rng.normal(size=3)))
            h2_off = mul(wiggle, rho.h2)
            drifted = Representation(rho.g1, rho.h1, rho.g2, h2_off)
            assert relation_residual(drifted) > 1e-8
            fixed = new_projected(rho.g1, rho.h1, rho.g2, h2_off)
            assert relation_residual(fixed) < 1e-8

    def test_rejects_gross_violations(self):
        rng = np.random.default_rng(8)
        with pytest.raises(PreconditionViolated):
            new_projected(
                haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
            )


# ---------------------------------------------------------------------------
# abelianness
# ---------------------------------------------------------------------------


class TestAbelian:
    def test_diagonal_quadruple_is_abelian(self):
        rho = Representation(diag(0.3), diag(1.2), diag(2.8), diag(0.1))
        assert is_abelian(rho) is True

    def test_common_axis_off_diagonal_is_abelian(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        slots = [exp_alg(AlgebraElement(t * axis)) for t in (0.4, 1.1, 2.0, 0.7)]
        assert is_abelian(Representation(*slots)) is True

    def test_pillow_is_not_abelian(self):
        assert is_abelian(PILLOW) is False

    def test_swap_family_generically_nonabelian(self):
        rng = np.random.default_rng(9)
        assert is_abelian(swap_rep(rng)) is False

    def test_batched(self):
        rho = Representation(
            GroupElement(np.stack([DIAG_I.q, DIAG_I.q])),
            GroupElement(np.stack([J.q, DIAG_I.q])),
            GroupElement(np.stack([J.q, DIAG_I.q])),
            GroupElement(np.stack([DIAG_I.q, DIAG_I.q])),
        )
        out = is_abelian(rho)
        assert out.tolist() == [False, True]


class TestDiagonalizeAbelian:
    def test_constructive_witness(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            slots = [
                exp_alg(AlgebraElement(t * axis))
                for t in rng.uniform(0.1, 3.0, size=4)
            ]
            rho = Representation(*slots)
            k, d = diagonalize_abelian(rho)
            assert abs(float(np.linalg.norm(k.q)) - 1.0) < 1e-12
            for slot in d.elements():
                assert np.max(np.abs(slot.q[..., 1:3])) < 1e-12
            assert class_equal(rho, d)

    def test_already_diagonal(self):
        rho = Representation(diag(0.3), diag(1.2), diag(2.8), diag(0.1))
        k, d = diagonalize_abelian(rho)
        assert np.array_equal(k.q, [1.0, 0.0, 0.0, 0.0])

    def test_negative_axis(self):
        slots = [
            exp_alg(AlgebraElement(t * np.array([0.0, 0.0, -1.0])))
            for t in (0.4, 1.1, 2.0, 0.7)
        ]
        _, d = diagonalize_abelian(Representation(*slots))
        for slot in d.elements():
            assert np.max(np.abs(slot.q[..., 1:3])) < 1e-12

    def test_central_quadruple(self):
        rho = Representation(*([GroupElement.minus_identity()] * 4))
        k, d = diagonalize_abelian(rho)
        assert relation_residual(d) == 0.0

    def test_rejects_nonabelian(self):
        with pytest.raises(PreconditionViolated):
            diagonalize_abelian(PILLOW)


# ---------------------------------------------------------------------------
# class equality
# ---------------------------------------------------------------------------


class TestClassEqual:
    def test_conjugation_invariance_irreducible(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = swap_rep(rng)
            k = haar_sample(rng)
            assert class_equal(rho, rho.conjugated(k))

    def test_distinct_random_classes_differ(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            assert not class_equal(swap_rep(rng), swap_rep(rng))

    def test_central_sign_twist_changes_class(self):
        rng = np.random.default_rng(13)
        rho = swap_rep(rng)
        flipped = Representation(-rho.g1, rho.h1, rho.g2, rho.h2)
        assert not class_equal(rho, flipped)

    def test_abelian_vs_irreducible_never_equal(self):
        rng = np.random.default_rng(14)
        abelian = Representation(diag(0.3), diag(1.2), diag(2.8), diag(0.1))
        assert not class_equal(abelian, swap_rep(rng))
        assert not class_equal(swap_rep(rng), abelian)

    def test_abelian_weyl_flip_is_equal(self):
        angles = (0.3, 1.2, 2.8, 0.1)
        rho = Representation(*(diag(t) for t in angles))
        flip = Representation(*(diag(-t) for t in angles))
        assert class_equal(rho, flip)

    def test_abelian_partial_flip_differs(self):
        angles = (0.3, 1.2, 2.8, 0.1)
        rho = Representation(*(diag(t) for t in angles))
        partial = Representation(
            diag(-0.3), diag(1.2), diag(2.8), diag(0.1)
        )
        assert not class_equal(rho, partial)

    def test_abelian_off_axis_same_class(self):
        angles = (0.3, 1.2, 2.8, 0.1)
        rho = Representation(*(diag(t) for t in angles))
        axis = np.array([2.0, -1.0, 0.5])
        axis /= np.linalg.norm(axis)
        other = Representation(
            *(exp_alg(AlgebraElement(t * axis)) for t in angles)
        )
        assert class_equal(rho, other)

    def test_reflexive(self):
        rng = np.random.default_rng(15)
        rho = swap_rep(rng)
        assert class_equal(rho, rho)


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


class TestGoldmanPhi:
    def test_central_h_slots(self):
        g = haar_sample(np.random.default_rng(16))
        rho = Representation(g, GroupElement.identity(), g, GroupElement.identity())
        assert np.array_equal(goldman_Phi(rho), [2.0, 2.0, 2.0])

    def test_pillow_value(self):
        assert np.array_equal(goldman_Phi(PILLOW), [0.0, 0.0, 0.0])

    def test_matches_matrix_trace_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = swap_rep(rng)
            phi = goldman_Phi(rho)
            expect = [
                trace_oracle(rho.h1),
                trace_oracle(rho.h2),
                trace_oracle(mul(rho.h1, rho.h2)),
            ]
            assert_allclose(phi, expect, rtol=0, atol=1e-14)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(18)
        rho = swap_rep(rng)
        k = haar_sample(rng)
        assert_allclose(
            goldman_Phi(rho.conjugated(k)), goldman_Phi(rho), rtol=0, atol=1e-14
        )

    def test_batched_shape(self):
        rng = np.random.default_rng(19)
        rho = Representation(
            haar_sample(rng, (10,)),
            haar_sample(rng, (10,)),
            haar_sample(rng, (10,)),
            haar_sample(rng, (10,)),
        )
        assert goldman_Phi(rho).shape == (10, 3)


class TestPsiF2:
    def test_identity_pair_hits_origin_vertex(self):
        p = psi_F2(F2Pair(GroupElement.identity(), GroupElement.identity()))
        assert np.array_equal(p.x, [0.0, 0.0, 0.0])
        assert p.region.kind is RegionKind.VERTEX

    def test_minus_identity_pair_hits_far_vertex(self):
        m = GroupElement.minus_identity()
        p = psi_F2(F2Pair(m, m))
        assert np.array_equal(p.x, [1.0, 1.0, 0.0])
        assert p.region.kind is RegionKind.VERTEX

    def test_commuting_pair_on_boundary(self):
        p = psi_F2(F2Pair(diag(0.3 * np.pi), diag(0.5 * np.pi)))
        assert p.on_boundary

    def test_generic_pairs_interior(self):
        rng = np.random.default_rng(20)
        inside = 0
        for _ in range(500):
            p = psi_F2(F2Pair(haar_sample(rng), haar_sample(rng)))
            if p.is_interior:
                inside += 1
        assert inside == 500
