"""Tests for representation quadruples and their conjugation invariants.

Exact-solution families used throughout:
  * swap family (a, b, b, a): [a,b][b,a] = [a,b][a,b]^{-1} = 1 for any a, b;
  * diagonal (abelian) quadruples: all commutators vanish;
  * the quaternion pair D = diag(i,-i), K = [[0,-1],[1,0]] with [D,K] = -1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from charvar.errors import PreconditionViolated, RelationViolated
from charvar.polytope import moment_coordinates
from charvar.repvar import (
    Representation,
    _class_equal,
    class_equal,
    is_abelian,
    new_checked,
    relation_residual,
)
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    commutator,
    distance,
    exp_alg,
    find_conjugator,
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

    def test_new_checked_rejects_non_finite_slots(self):
        # a NaN residual is not >= tol, so the relation test alone let it through
        rng = np.random.default_rng(7)
        g1, h1, g2, h2 = swap_rep(rng).elements()
        nan = GroupElement(np.full(4, np.nan))
        with pytest.raises(PreconditionViolated, match="slot g1 is not a finite unit quaternion"):
            new_checked(nan, h1, g2, h2)
        with pytest.raises(RelationViolated):  # nor does a NaN tolerance accept
            new_checked(g1, h1, g2, h2, tol=float("nan"))

    def test_new_checked_takes_an_empty_batch(self):
        empty = GroupElement(np.zeros((0, 4)))
        rho = new_checked(empty, empty, empty, empty)
        assert rho.batch_shape == (0,) and all(x is empty for x in rho.elements())

    def test_new_checked_rejects_non_unit_slots(self):
        # the products renormalize: four copies of 2*I have residual 0
        two = GroupElement(np.array([2.0, 0.0, 0.0, 0.0]))
        assert relation_residual(Representation(two, two, two, two)) == 0.0
        with pytest.raises(PreconditionViolated, match="slot g1 is not a finite unit quaternion"):
            new_checked(two, two, two, two)
        # one row of a batch off the unit sphere by more than 1e-9
        rng = np.random.default_rng(8)
        a, b = haar_sample(rng, (3,)), haar_sample(rng, (3,))
        new_checked(a, b, b, a)
        q = a.q.copy()
        q[1] *= 1.0 + 1e-8
        with pytest.raises(PreconditionViolated, match="slot h2"):
            new_checked(a, b, b, GroupElement(q))

    def test_mismatched_batch_shapes_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            Representation(
                haar_sample(rng, (3,)),
                haar_sample(rng, (4,)),
                haar_sample(rng, (3,)),
                haar_sample(rng, (3,)),
            )


class TestSlotDistance:
    def test_single_is_worst_slot_float(self):
        rng = np.random.default_rng(13)
        a, b = swap_rep(rng), swap_rep(rng)
        got = a.slot_distance(b)
        assert isinstance(got, float)
        assert got == max(float(distance(x, y)) for x, y in zip(a.elements(), b.elements()))

    def test_batch_rows_are_single_calls(self):
        rng = np.random.default_rng(14)
        pairs = [(swap_rep(rng), swap_rep(rng)) for _ in range(20)]
        lhs = Representation(*(GroupElement(np.stack([p[0].elements()[i].q for p in pairs])) for i in range(4)))
        rhs = Representation(*(GroupElement(np.stack([p[1].elements()[i].q for p in pairs])) for i in range(4)))
        got = lhs.slot_distance(rhs)
        assert got.shape == (20,)
        assert got.tolist() == [a.slot_distance(b) for a, b in pairs]


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


def six_commutator_is_abelian(rho: Representation, tol: float = 1e-9):
    """The reference is_abelian: one commutator per slot pair."""
    xs = rho.elements()
    ident = GroupElement.identity(rho.batch_shape)
    worst = None
    for i in range(4):
        for j in range(i + 1, 4):
            res = distance(commutator(xs[i], xs[j]), ident)
            worst = res if worst is None else np.maximum(worst, res)
    return worst < tol


def _quadruple_slots(kind: str, rng, batch: tuple) -> list:
    """Four slot arrays of shape batch + (4,): Haar-random, random slots
    mixed with exact +-I (signed zeros), or a common-axis quadruple whose
    slots are nudged off the axis by 1e-14..1e-6."""
    if kind == "random":
        return [haar_sample(rng, batch).q for _ in range(4)]
    if kind == "center":
        slots = [haar_sample(rng, batch).q for _ in range(4)]
        for i in rng.choice(4, size=rng.integers(1, 5), replace=False):
            center = np.array([rng.choice([1.0, -1.0]), *rng.choice([0.0, -0.0], size=3)])
            slots[i] = np.broadcast_to(center, batch + (4,)).copy()
        return slots
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    slots = []
    for _ in range(4):
        on_axis = exp_alg(AlgebraElement(rng.uniform(-np.pi, np.pi, size=batch + (1,)) * axis))
        nudge = 10.0 ** rng.uniform(-14.0, -6.0, size=batch + (1,)) * rng.normal(size=batch + (3,))
        slots.append(mul(exp_alg(AlgebraElement(nudge)), on_axis).q)
    return slots


@given(
    st.sampled_from(["random", "center", "near"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (7,)]),
)
@settings(max_examples=150, deadline=None)
def test_fused_is_abelian_decides_like_six_commutators(kind, seed, batch):
    rho = Representation(*(GroupElement(q) for q in _quadruple_slots(kind, np.random.default_rng(seed), batch)))
    got = is_abelian(rho)
    want = six_commutator_is_abelian(rho)
    if batch == ():
        assert got is bool(want)
    else:
        assert got.tolist() == want.tolist()
        assert [is_abelian(rho[i]) for i in range(batch[0])] == want.tolist()


@pytest.mark.parametrize("pair", [(i, j) for i in range(4) for j in range(i + 1, 4)])
def test_every_slot_pair_is_checked(pair):
    # two Haar slots that do not commute, the other two exactly -I: only
    # this one pair's commutator is off the identity
    rng = np.random.default_rng(10)
    slots = [GroupElement.minus_identity() for _ in range(4)]
    slots[pair[0]], slots[pair[1]] = haar_sample(rng), haar_sample(rng)
    rho = Representation(*slots)
    assert not six_commutator_is_abelian(rho)
    assert is_abelian(rho) is False


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

    def test_class_equal_is_one_conjugator_solve(self, monkeypatch):
        # abelian and irreducible pairs alike are decided by one solve, with
        # no abelianness pass and no diagonalization beside it
        import charvar.repvar as repvar

        solve = repvar.find_conjugator
        calls = []

        def counted(a, b):
            calls.append(a.q.shape)
            return solve(a, b)

        def refuse(*args, **kwargs):
            raise AssertionError("class_equal left the conjugator solve")

        monkeypatch.setattr(repvar, "find_conjugator", counted)
        monkeypatch.setattr(repvar, "is_abelian", refuse)
        rng = np.random.default_rng(12)
        k = haar_sample(rng)
        angles = (0.3, 1.2, 2.8, 0.1)
        abelian = Representation(*(diag(t) for t in angles))
        flipped = Representation(*(diag(-t) for t in angles))
        irreducible = swap_rep(rng)
        for rho, other in ((abelian.conjugated(k), flipped), (irreducible, irreducible.conjugated(k))):
            calls.clear()
            assert class_equal(rho, other)
            assert calls == [(4, 4)]


def reference_class_equal(rho: Representation, other: Representation, tol: float = 1e-9) -> bool:
    """The reference class_equal, one pair at a time: the six-commutator
    abelianness test, the conjugator solve for irreducible pairs, and torus
    angles up to one global sign for abelian pairs."""
    ab1, ab2 = bool(six_commutator_is_abelian(rho, tol)), bool(six_commutator_is_abelian(other, tol))
    if ab1 != ab2:
        return False
    if not ab1:
        lists = (GroupElement(r.slots()) for r in (rho, other))
        return bool(find_conjugator(*lists)[1] < tol)
    angles = [torus_angles(r, tol) for r in (rho, other)]

    def close(a, b):
        return bool(np.max(np.abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)) < tol)

    return close(angles[0], angles[1]) or close(angles[0], -angles[1])


def torus_angles(rho: Representation, tol: float) -> np.ndarray:
    """The rotation angles of an abelian quadruple's slots about its common
    axis: the direction of the largest vector part, or +z if every slot is
    central.  The axis has a sign of its own, so the angles do too."""
    slots = rho.slots()
    norms = np.linalg.norm(slots[:, 1:], axis=-1)
    i = int(np.argmax(norms))
    axis = slots[i, 1:] / norms[i] if norms[i] >= tol else np.array([0.0, 0.0, 1.0])
    return np.arctan2(slots[:, 1:] @ axis, slots[:, 0])


def _abelian_rep(rng, angles) -> Representation:
    """Four torus elements with the given angles on one random axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Representation(*(exp_alg(AlgebraElement(t * axis)) for t in angles))


def _central_rep(signs) -> Representation:
    """The central quadruple with slots sign * I."""
    return Representation(*(GroupElement(np.array([s, 0.0, 0.0, 0.0])) for s in signs))


def _class_pair(kind: str, rng) -> tuple[Representation, Representation, bool]:
    """One quadruple pair of the given kind and whether it is one class."""
    if kind in ("central", "central-flip"):
        # every slot +-I: one class iff the signs agree slot by slot
        signs = rng.choice([1.0, -1.0], size=4)
        other = signs.copy()
        if kind == "central-flip":
            other[rng.integers(4)] *= -1.0
        return _central_rep(signs), _central_rep(other), kind == "central"
    if kind == "near-central":
        # one slot about 7e-13 from -I, so its own axis is rounding noise;
        # the partner is on another axis, Weyl-flipped or not
        angles = rng.uniform(0.1, 3.0, size=4)
        angles[rng.integers(4)] = np.pi - 5e-13
        return _abelian_rep(rng, angles), _abelian_rep(rng, rng.choice([1.0, -1.0]) * angles), True
    if kind == "irreducible":
        return swap_rep(rng), swap_rep(rng), False
    if kind == "conjugate":
        rho = swap_rep(rng)
        return rho, rho.conjugated(haar_sample(rng)), True
    angles = rng.uniform(0.1, 3.0, size=4)
    rho = _abelian_rep(rng, angles)
    if kind == "abelian":
        return rho, _abelian_rep(rng, angles), True
    if kind == "weyl-flip":
        return rho, _abelian_rep(rng, -angles), True
    if kind == "partial-flip":
        return rho, _abelian_rep(rng, angles * [-1.0, 1.0, 1.0, 1.0]), False
    if kind == "tied-axis":
        # the two largest slots point opposite ways with equal norm, so
        # rounding picks the diagonalizing axis; about a third of these
        # pairs are equal only through the Weyl flip
        t = rng.uniform(1.0, 2.1)
        tied = [t, t - np.pi, *rng.uniform(0.1, 0.6, size=2)]
        return _abelian_rep(rng, tied), _abelian_rep(rng, tied), True
    if kind == "abelian-vs-irreducible":
        return rho, swap_rep(rng), False
    return swap_rep(rng), rho, False  # irreducible-vs-abelian


def _stack(reps: list) -> Representation:
    return Representation(
        *(GroupElement(np.array([r.elements()[k].q for r in reps]).reshape(-1, 4)) for k in range(4))
    )


@given(
    st.lists(
        st.sampled_from(
            [
                "irreducible",
                "conjugate",
                "abelian",
                "weyl-flip",
                "partial-flip",
                "tied-axis",
                "abelian-vs-irreducible",
                "irreducible-vs-abelian",
                "central",
                "central-flip",
                "near-central",
            ]
        ),
        max_size=8,
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_batched_class_equal_rows_match_reference(kinds, seed):
    rng = np.random.default_rng(seed)
    pairs = [_class_pair(kind, rng) for kind in kinds]
    got = _class_equal(_stack([p[0] for p in pairs]), _stack([p[1] for p in pairs]), 1e-9)
    assert got.shape == (len(kinds),)
    want = [reference_class_equal(rho, other) for rho, other, _ in pairs]
    assert want == [same for _, _, same in pairs]
    assert got.tolist() == want
    assert [class_equal(rho, other) for rho, other, _ in pairs] == want


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


class TestGoldmanPhi:
    """Goldman's trace functions (tr h1, tr h2, tr h1 h2), read as trace
    angles by polytope.moment_coordinates."""

    def test_central_h_slots(self):
        g = haar_sample(np.random.default_rng(16))
        rho = Representation(g, GroupElement.identity(), g, GroupElement.identity())
        assert np.array_equal(moment_coordinates(rho), [0.0, 0.0, 0.0])

    def test_matches_matrix_trace_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = swap_rep(rng)
            traces = [
                trace_oracle(rho.h1),
                trace_oracle(rho.h2),
                trace_oracle(mul(rho.h1, rho.h2)),
            ]
            expect = np.arccos(np.clip(np.array(traces) / 2.0, -1.0, 1.0)) / np.pi
            assert_allclose(moment_coordinates(rho), expect, rtol=0, atol=1e-12)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(18)
        rho = swap_rep(rng)
        k = haar_sample(rng)
        assert_allclose(
            moment_coordinates(rho.conjugated(k)), moment_coordinates(rho), rtol=0, atol=1e-14
        )

