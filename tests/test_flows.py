"""Tests for the three twist circles: generators, the action, intertwining
identities (against a matrix-exponential oracle) and the kernel element.
Freeness away from the kernel is the flows suite's, read by acceptance
criterion 5."""

from __future__ import annotations

import inspect
import itertools
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from charvar import su2
from charvar.errors import DegenerateGenerator
from charvar.flows import (
    FlowGenerators,
    TorusElement,
    act,
    generators,
    verify_flow_identities,
)
from charvar.polytope import mu_lambda_coordinates
from charvar.repvar import Representation, class_equal, relation_residual
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    conjugate,
    distance,
    exp_alg,
    haar_sample,
    mul,
)
from charvar.tau import section

TWO_PI = 2.0 * np.pi


def swap_rep(rng) -> Representation:
    a, b = haar_sample(rng), haar_sample(rng)
    return Representation(a, b, b, a)


def diag(theta: float) -> GroupElement:
    return GroupElement(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)]))


# ---------------------------------------------------------------------------
# TorusElement
# ---------------------------------------------------------------------------


class TestTorusElement:
    def test_mod_reduction(self):
        t = TorusElement(TWO_PI, -np.pi / 2, 5 * np.pi)
        assert float(t.phi1) == 0.0
        assert_allclose(float(t.phi2), 3 * np.pi / 2, atol=1e-15)
        assert_allclose(float(t.phi3), np.pi, atol=1e-14)

    def test_compose_wraps(self):
        t = TorusElement(3.0, 4.0, 5.0) + TorusElement(4.0, 4.0, 4.0)
        assert_allclose(
            [float(t.phi1), float(t.phi2), float(t.phi3)],
            [7.0 - TWO_PI, 8.0 - TWO_PI, 9.0 - TWO_PI],
            atol=1e-15,
        )

    def test_inverse_cancels(self):
        t = TorusElement(0.3, 1.2, 5.9)
        z = t + t.inverse()
        assert float(z.kernel_distance()) < 1e-15

    def test_kernel_distance(self):
        assert float(TorusElement.zero().kernel_distance()) == 0.0
        assert float(TorusElement.kernel().kernel_distance()) == 0.0
        assert_allclose(float(TorusElement(np.pi, np.pi, 0).kernel_distance()), np.pi)
        assert_allclose(
            float(TorusElement(0.1, TWO_PI - 0.1, 0.0).kernel_distance()), 0.1
        )

    def test_reduction_is_np_mod_bitwise(self):
        # angles already in [+0, 2 pi) are copied, not reduced; every other
        # input, -0.0 and NaN among them, is reduced: np.mod's bits either way
        rng = np.random.default_rng(7)
        inside = np.concatenate([
            rng.uniform(0.0, TWO_PI, size=100_000),
            [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(TWO_PI, 0.0)],
        ])
        outside = np.array([-0.0, -1e-20, -5e-324, -np.pi, TWO_PI, 7.0, 1e300, np.nan, -np.nan])
        inputs = [inside, np.concatenate([inside[:50], outside])]
        inputs += [np.array(v) for v in np.concatenate([inside[-5:], outside])]
        inputs += [np.array([v]) for v in np.concatenate([inside[-5:], outside])]
        for a in inputs:
            t = TorusElement(a, a, a)
            want = np.mod(a, TWO_PI)
            for phi in (t.phi1, t.phi2, t.phi3):
                assert _same_bits(np.asarray(phi), np.asarray(want))

    def test_fields_are_frozen_copies(self):
        inside = np.random.default_rng(8).uniform(0.0, TWO_PI, size=6)
        for a in (inside, np.array([-0.0, 7.0, 1.0])):
            t = TorusElement(a, a, a)
            want = np.mod(a, TWO_PI)
            a[:] = 1.0
            assert np.array_equal(t.phi1, want) and not t.phi1.flags.writeable

    def test_array_round_trip(self):
        arr = np.array([[0.1, 0.2, 0.3], [6.0, 6.1, 6.2]])
        t = TorusElement.from_array(arr)
        assert t.as_array().shape == (2, 3)
        assert_allclose(t.as_array(), np.mod(arr, TWO_PI), atol=1e-15)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_equal_raw_norms(self):
        # |vec(h2 h1)| = |vec(h1 h2)|: the two products share a trace
        rng = np.random.default_rng(21)
        for _ in range(100):
            h1, h2 = haar_sample(rng), haar_sample(rng)
            n_x = np.linalg.norm(mul(h2, h1).vec)
            n_y = np.linalg.norm(mul(h1, h2).vec)
            assert abs(n_x - n_y) < 1e-14

    def test_diagonal_h1_axis(self):
        rho = swap_rep(np.random.default_rng(22))
        rho = Representation(rho.g1, diag(0.9), rho.g2, rho.h2)
        gen = generators(rho)
        assert np.array_equal(gen.xi1_hat.v, [0.0, 0.0, 1.0])

    def test_unit_norm_and_pi_round_trip(self):
        rng = np.random.default_rng(23)
        minus = GroupElement.minus_identity()
        for _ in range(50):
            gen = generators(swap_rep(rng))
            for hat in (gen.xi1_hat, gen.xi2_hat, gen.X_hat, gen.Y_hat):
                assert abs(float(hat.norm) - 1.0) < 1e-15
                # angle pi along a unit generator lands exactly on -I
                assert np.array_equal(exp_alg(np.pi * hat).q, minus.q)

    def test_orientation_positive_multiple(self):
        rng = np.random.default_rng(24)
        rho = swap_rep(rng)
        gen = generators(rho)
        raw_x = 2.0 * mul(rho.h2, rho.h1).vec
        assert float(np.dot(gen.X_hat.v, raw_x)) > 0
        raw_y = 2.0 * mul(rho.h1, rho.h2).vec
        assert float(np.dot(gen.Y_hat.v, raw_y)) > 0

    def test_central_h1_rejected(self):
        rng = np.random.default_rng(25)
        g = haar_sample(rng)
        rho = Representation(g, GroupElement.minus_identity(), g, haar_sample(rng))
        with pytest.raises(DegenerateGenerator):
            generators(rho)

    def test_central_product_rejected(self):
        # h1, h2 noncentral but h1 h2 = -1
        rng = np.random.default_rng(26)
        h1 = haar_sample(rng)
        h2 = -h1.inverse()
        a = haar_sample(rng)
        with pytest.raises(DegenerateGenerator):
            generators(Representation(a, h1, a, h2))

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            rho = swap_rep(rng)
            k = haar_sample(rng)
            g1 = generators(rho)
            g2 = generators(rho.conjugated(k))
            for a, b in zip(
                (g1.xi1_hat, g1.xi2_hat, g1.X_hat, g1.Y_hat),
                (g2.xi1_hat, g2.xi2_hat, g2.X_hat, g2.Y_hat),
            ):
                # exp(Ad_k a) = k exp(a) k^{-1}
                lhs = exp_alg(b)
                rhs = conjugate(k, exp_alg(a))
                assert float(distance(lhs, rhs)) < 1e-8


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


class TestAct:
    def test_zero_is_identity_bitwise(self):
        rho = swap_rep(np.random.default_rng(28))
        acted = act(TorusElement.zero(), rho)
        for a, b in zip(acted.elements(), rho.elements()):
            assert np.array_equal(a.q, b.q)

    def test_kernel_element_fixes_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            rho = swap_rep(rng)
            acted = act(TorusElement.kernel(), rho)
            for a, b in zip(acted.elements(), rho.elements()):
                assert np.array_equal(a.q, b.q)

    def test_batch_rows_are_single_calls(self):
        rng = np.random.default_rng(33)
        rows = [swap_rep(rng).conjugated(haar_sample(rng)) for _ in range(40)]
        batch = Representation(
            *(GroupElement(np.stack([r.elements()[i].q for r in rows])) for i in range(4))
        )
        t = rng.uniform(0.0, TWO_PI, size=(40, 3))
        moved = act(TorusElement.from_array(t), batch)
        for i, rho in enumerate(rows):
            alone = act(TorusElement.from_array(t[i]), rho)
            assert np.array_equal(moved[i].slots().view(np.int64), alone.slots().view(np.int64))

    def test_relation_preserved(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            rho = swap_rep(rng)
            t = TorusElement.from_array(rng.uniform(0, TWO_PI, size=3))
            assert float(relation_residual(act(t, rho))) < 1e-9

    def test_moment_invariant_bitwise(self):
        rng = np.random.default_rng(31)
        rho = swap_rep(rng)
        acted = act(TorusElement.from_array(rng.uniform(0, TWO_PI, 3)), rho)
        assert np.array_equal(acted.h1.q, rho.h1.q)
        assert np.array_equal(acted.h2.q, rho.h2.q)

    def test_pi_pi_zero_flips_signs(self):
        rng = np.random.default_rng(32)
        rho = swap_rep(rng)
        acted = act(TorusElement(np.pi, np.pi, 0.0), rho)
        assert np.array_equal(acted.g1.q, -rho.g1.q)
        assert np.array_equal(acted.g2.q, -rho.g2.q)
        assert not class_equal(acted, rho)  # tr(g1) changes sign

    def test_action_law_tuple_level(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = swap_rep(rng)
            t1 = TorusElement.from_array(rng.uniform(0, TWO_PI, 3))
            t2 = TorusElement.from_array(rng.uniform(0, TWO_PI, 3))
            a = act(t1, act(t2, rho))
            b = act(t1 + t2, rho)
            worst = max(
                float(distance(x, y)) for x, y in zip(a.elements(), b.elements())
            )
            assert worst < 1e-10  # same-axis exponentials combine exactly

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(34)
        n = 32
        rho = Representation(
            haar_sample(rng, (n,)), haar_sample(rng, (n,)),
            haar_sample(rng, (n,)), haar_sample(rng, (n,)),
        )
        ts = rng.uniform(0, TWO_PI, size=(n, 3))
        acted = act(TorusElement.from_array(ts), rho)
        for i in (0, 7, 31):
            single = act(TorusElement.from_array(ts[i]), rho[i])
            for a, b in zip(acted[i].elements(), single.elements()):
                assert np.array_equal(a.q, b.q)

    def test_batched_angles_on_scalar_tuple(self):
        # the untouched h-slots fan out to the angle batch shape
        rng = np.random.default_rng(36)
        rho = swap_rep(rng)
        ts = rng.uniform(0, TWO_PI, size=(8, 3))
        acted = act(TorusElement(ts[:, 0], ts[:, 1], ts[:, 2]), rho)
        assert acted.g1.batch_shape == (8,)
        assert acted.h1.batch_shape == (8,)
        for i in (0, 5):
            single = act(TorusElement.from_array(ts[i]), rho)
            for a, b in zip(acted[i].elements(), single.elements()):
                assert np.array_equal(a.q, b.q)

    def test_degenerate_propagates(self):
        g = haar_sample(np.random.default_rng(35))
        rho = Representation(g, GroupElement.identity(), g, g)
        with pytest.raises(DegenerateGenerator):
            act(TorusElement.zero(), rho)


# ---------------------------------------------------------------------------
# bitwise equivalence with the composition act replaced
# ---------------------------------------------------------------------------


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _norm_axis(g: GroupElement) -> np.ndarray:
    # the axis as AlgebraElement.unit() divides it, by np.linalg.norm
    return g.vec / np.linalg.norm(g.vec, axis=-1)[..., None]


def _chain_act(t: TorusElement, rho: Representation) -> tuple[np.ndarray, np.ndarray]:
    """g1 and g2 of act as composed before the component kernel: public
    mul and exp_alg on packed (..., 4) arrays, axes by np.linalg.norm."""
    def twist(axis, phi):
        return exp_alg(AlgebraElement(axis * np.asarray(phi)[..., None]))

    x_hat, y_hat = _norm_axis(mul(rho.h2, rho.h1)), _norm_axis(mul(rho.h1, rho.h2))
    g1 = mul(mul(twist(x_hat, t.phi3), rho.g1), twist(_norm_axis(rho.h1), t.phi1))
    g2 = mul(mul(twist(y_hat, t.phi3), rho.g2), twist(_norm_axis(rho.h2), t.phi2))
    return g1.q, g2.q


def _axis_aligned(rng, shape) -> GroupElement:
    # elements with exact zero components: diag(e^{i a}) or along e_x
    a = rng.uniform(0.0, TWO_PI, size=shape)
    zero = np.zeros(shape)
    if rng.uniform() < 0.5:
        return GroupElement(np.stack([np.cos(a), zero, -zero, np.sin(a)], axis=-1))
    return GroupElement(np.stack([np.cos(a), np.sin(a), zero, zero], axis=-1))


_ANGLE = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, TWO_PI, -np.pi]),
)


@st.composite
def act_inputs(draw):
    """(t, rho): Haar quadruples, section points (the benchmark's and the
    sampler's inputs) or axis-aligned h-slots, single or batched; angles
    single, batched or a batch over a single quadruple, with multiples of
    pi/2 and the kernel element among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(), (6,)]))
    kind = draw(st.sampled_from(["haar", "section", "aligned"]))
    if kind == "section":
        x = rng.dirichlet(np.ones(4), size=shape)[..., :3]
        rho = section(x)
    else:
        h = _axis_aligned if kind == "aligned" else haar_sample
        g1, h1, g2, h2 = haar_sample(rng, shape), h(rng, shape), haar_sample(rng, shape), h(rng, shape)
        rho = Representation(g1, h1, g2, h2)
    t_shape = draw(st.sampled_from([shape, (6,)]))
    size = int(np.prod(t_shape, dtype=int))
    angles = st.lists(_ANGLE, min_size=size, max_size=size)
    phis = [np.array(draw(angles)).reshape(t_shape) for _ in range(3)]
    if draw(st.booleans()):
        phis = [np.full(t_shape, np.pi)] * 3
    return TorusElement(*phis), rho


@given(act_inputs())
@settings(max_examples=200, deadline=None)
def test_act_matches_mul_exp_chain_bitwise(inputs):
    t, rho = inputs
    want = _chain_act(t, rho)
    acted = act(t, rho)
    assert _same_bits(acted.g1.q, want[0]) and _same_bits(acted.g2.q, want[1])
    gen = generators(rho)
    for hat, g in ((gen.xi1_hat, rho.h1), (gen.xi2_hat, rho.h2),
                   (gen.X_hat, mul(rho.h2, rho.h1)), (gen.Y_hat, mul(rho.h1, rho.h2))):
        assert _same_bits(hat.v, _norm_axis(g))


def test_ensemble_first_act_matches_chain_bitwise():
    # a single section point under a batch of angles, kernel rows among them
    rng = np.random.default_rng(3)
    rho = section(np.array([0.3, 0.25, 0.2]))
    t = rng.uniform(0.0, TWO_PI, size=(1000, 3))
    t[::7] = np.pi
    t[1::11] = 0.0
    t = TorusElement.from_array(t)
    acted = act(t, rho)
    want = _chain_act(t, rho)
    assert _same_bits(acted.g1.q, want[0]) and _same_bits(acted.g2.q, want[1])


def test_act_leaves_its_inputs_unchanged():
    # act accumulates in place only into arrays it allocated: writable slot
    # and angle arrays read the same afterwards, and no output shares their
    # memory (the h-slots of a same-shape batch are passed through).  Exactly
    # central g-slots and kernel angles take the products' fast paths.
    rng = np.random.default_rng(41)
    for shape, t_shape in (((8,), (8,)), ((), (8,)), ((), ())):
        g1, h1, g2, h2 = (haar_sample(rng, shape).q.copy() for _ in range(4))
        if shape:
            g2[::3] = [-1.0, 0.0, -0.0, 0.0]
        else:
            g1[:] = [1.0, 0.0, 0.0, 0.0]
        angles = rng.uniform(0.0, TWO_PI, size=t_shape + (3,))
        angles[::2] = np.pi
        rho = Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))
        t = TorusElement.from_array(angles)
        arrays = [x.q for x in rho.elements()] + [np.asarray(p) for p in (t.phi1, t.phi2, t.phi3)]
        for a in arrays:
            if a.flags.owndata:
                a.setflags(write=True)
        saved = [a.copy() for a in arrays]
        acted = act(t, rho)
        for a, b in zip(arrays, saved):
            assert _same_bits(a, b)
        assert not any(np.shares_memory(o, a) for o in (acted.g1.q, acted.g2.q) for a in arrays)


# ---------------------------------------------------------------------------
# blocked evaluation of long batches
# ---------------------------------------------------------------------------

# one row short of a block, exactly one block, one row over, and 3 blocks
# plus a partial fourth
EDGE_SIZES = [su2._BLOCK - 1, su2._BLOCK, su2._BLOCK + 1, 3 * su2._BLOCK + 5]
POINT = np.array([0.3, 0.25, 0.2])


def _unblocked(f, *args):
    with mock.patch.object(su2, "_BLOCK", 1 << 62):
        return f(*args)


def _edge_rows(n: int) -> np.ndarray:
    """The rows on both sides of every block edge inside n rows, and the last row."""
    b = su2._BLOCK
    return np.array(sorted({n - 1} | {r for e in range(b, n, b) for r in (e - 1, e)}))


def _edge_inputs(rng, n: int, rows: np.ndarray) -> tuple[TorusElement, Representation]:
    """n angle triples with (pi, pi, pi) and 0 at the given rows, and n twisted
    section points with exactly central g-slots there."""
    angles = rng.uniform(0.0, TWO_PI, size=(n, 3))
    angles[rows[::2]] = np.pi
    angles[rows[1::3]] = 0.0
    base = act(TorusElement.from_array(rng.uniform(0.0, TWO_PI, size=(n, 3))), section(POINT))
    g1, g2 = base.g1.q.copy(), base.g2.q.copy()
    g1[rows[::2]] = [-1.0, 0.0, -0.0, 0.0]
    g2[rows[1::2]] = [1.0, -0.0, -0.0, 0.0]
    rho = Representation(GroupElement(g1), base.h1, GroupElement(g2), base.h2)
    return TorusElement.from_array(angles), rho


def _act_bits_match(t: TorusElement, rho: Representation) -> bool:
    got, want = act(t, rho), _unblocked(act, t, rho)
    return _same_bits(got.slots(), want.slots())


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_act_blocks_match_whole_batch_bitwise(n):
    rng = np.random.default_rng(n)
    t, rho = _edge_inputs(rng, n, _edge_rows(n))
    assert _act_bits_match(t, section(POINT))  # batched angles over one point
    assert _act_bits_match(t, rho)  # over a batch
    assert _act_bits_match(TorusElement.kernel(), rho)
    # the kernel element fixes every slot bitwise, exactly central g-slots too
    assert _same_bits(act(TorusElement.kernel(), rho).slots(), rho.slots())


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_act_blocked_near_block_edges_matches_whole_bitwise(data):
    n = data.draw(st.integers(1, 3)) * su2._BLOCK + data.draw(st.integers(-3, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = np.unique(np.concatenate([_edge_rows(n), rng.integers(0, n, size=4)]))
    t, rho = _edge_inputs(rng, n, rows)
    assert _act_bits_match(t, rho if data.draw(st.booleans()) else rho[0])


def test_blocked_act_raises_the_whole_batch_message():
    # a central h1 h2 (and so h2 h1, its conjugate) in the first block and a
    # central h1 in the last: the whole batch names its earliest bad row, row 0
    # on h2*h1, and the blocked evaluation raises that message too
    n = 3 * su2._BLOCK + 5
    rng = np.random.default_rng(9)
    g1, h1, g2, h2 = (haar_sample(rng, (n,)).q.copy() for _ in range(4))
    h2[0] = -h1[0] * [1.0, -1.0, -1.0, -1.0]
    h1[-1] = [1.0, 0.0, 0.0, 0.0]
    rho = Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))
    t = TorusElement.from_array(rng.uniform(0.0, TWO_PI, size=(n, 3)))
    with pytest.raises(DegenerateGenerator) as whole:
        _unblocked(act, t, rho)
    with pytest.raises(DegenerateGenerator) as blocked:
        act(t, rho)
    assert str(whole.value).startswith("h2*h1 is within")
    assert str(blocked.value) == str(whole.value)
    with pytest.raises(DegenerateGenerator, match="h2\\*h1"):
        act(t, rho[: su2._BLOCK])  # the first block alone fails on a product


# ---------------------------------------------------------------------------
# stacked levels: both twists in one chain
# ---------------------------------------------------------------------------

# one row; batches of 2 and 4 rows, where a stack axis of 2 or 4 calls taken
# for the row axis would still broadcast; both sides of the stacking bound
# for the four generator norms and for the two twists; both sides of a
# block; 3 blocks and a few rows
STACK_SIZES = [
    1, 2, 4,
    su2._STACK_ROWS // 4, su2._STACK_ROWS // 4 + 1,
    su2._STACK_ROWS // 2, su2._STACK_ROWS // 2 + 1,
    su2._BLOCK - 1, su2._BLOCK + 1, 3 * su2._BLOCK + 5,
]


def _with_stack_rows(bound: int, f, *args):
    with mock.patch.object(su2, "_STACK_ROWS", bound):
        return f(*args)


def _act_stacked_matches_chained(t: TorusElement, rho: Representation) -> bool:
    """act(t, rho) reads the same bits with the default stacking bound, every
    level chained and every level stacked."""
    got = [act(t, rho), _with_stack_rows(0, act, t, rho), _with_stack_rows(1 << 62, act, t, rho)]
    return all(_same_bits(g.slots(), got[0].slots()) for g in got[1:])


@pytest.mark.parametrize("n", STACK_SIZES)
def test_act_stacked_matches_chained_bitwise(n):
    # (pi, pi, pi) and 0 angles over exactly central g-slots with signed zeros
    rng = np.random.default_rng(n)
    t, rho = _edge_inputs(rng, n, np.unique([0, n // 2, n - 1]))
    assert _act_stacked_matches_chained(t, rho)
    assert _act_stacked_matches_chained(t, section(POINT))  # one quadruple under batched angles
    assert _act_stacked_matches_chained(TorusElement.kernel(), rho)
    assert _act_stacked_matches_chained(TorusElement.from_array(t.as_array()[0]), rho)


@given(act_inputs())
@settings(max_examples=60, deadline=None)
def test_act_stacked_matches_chained_bitwise_on_any_inputs(inputs):
    assert _act_stacked_matches_chained(*inputs)


# every zero-sign pattern of an exactly central element, (+-1, +-0, +-0, +-0)
_CENTRAL = np.array(
    [[w, *np.copysign(0.0, s)] for w in (1.0, -1.0) for s in itertools.product((1.0, -1.0), repeat=3)]
)


@pytest.mark.parametrize("bound", [0, 1 << 62])
def test_kernel_element_fixes_exactly_central_g_slots_bitwise(bound):
    # the twist exponentials are +-I with signed-zero vector parts; the slot
    # keeps its own zeros, on the chained and the stacked path, for one
    # quadruple, a batch, and one quadruple under a batch of angles
    n = len(_CENTRAL)
    base = section(POINT)
    h1, h2 = (GroupElement(np.broadcast_to(h.q, (n, 4)).copy()) for h in (base.h1, base.h2))
    rho = Representation(GroupElement(_CENTRAL), h1, GroupElement(_CENTRAL[::-1]), h2)
    fans = TorusElement.from_array(np.full((3, 3), np.pi))
    with mock.patch.object(su2, "_STACK_ROWS", bound):
        for t in (TorusElement.kernel(), TorusElement.zero()):
            assert _same_bits(act(t, rho).slots(), rho.slots())
            for i in range(n):
                assert _same_bits(act(t, rho[i]).slots(), rho[i].slots())
        for i in range(n):
            want = np.broadcast_to(rho[i].slots(), (3, 4, 4))
            assert _same_bits(act(fans, rho[i]).slots(), want)


def test_stacked_act_raises_the_chained_message():
    # one central h1 h2 row (so h2 h1, its conjugate, is central too) in a
    # small batch: the stacked path checks h1, h2, h2 h1 and h1 h2 over the
    # whole batch in that order, as the chained path does
    rng = np.random.default_rng(10)
    g1, h1, g2, h2 = (haar_sample(rng, (10,)).q.copy() for _ in range(4))
    h2[6] = -h1[6] * [1.0, -1.0, -1.0, -1.0]
    rho = Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))
    t = TorusElement.from_array(rng.uniform(0.0, TWO_PI, size=(10, 3)))
    with pytest.raises(DegenerateGenerator) as chained:
        _with_stack_rows(0, act, t, rho)
    with pytest.raises(DegenerateGenerator) as stacked:
        act(t, rho)
    assert str(chained.value).startswith("h2*h1 is within")
    assert str(stacked.value) == str(chained.value)


def _public_calls(f, *args) -> Counter:
    """The calls f(*args) makes to the package's public functions, counted at
    every module-level name they are bound to (the names a call tracer wraps)."""
    modules = [m for name, m in sys.modules.items() if name.startswith("charvar.")]
    names = [(m, n) for m in modules for n in getattr(m, "__all__", ())]
    public = {id(fn): fn for fn in (getattr(m, n) for m, n in names)}
    calls = Counter()

    def counted(fn):
        def wrapper(*a, **k):
            calls[fn.__qualname__] += 1
            return fn(*a, **k)
        return wrapper

    patches = [
        mock.patch.object(m, attr, counted(value))
        for m in modules
        for attr, value in list(vars(m).items())
        if public.get(id(value)) is value and inspect.isfunction(value)
    ]
    for p in patches:
        p.start()
    try:
        f(*args)
    finally:
        for p in patches:
            p.stop()
    return calls


@pytest.mark.parametrize(
    "call", ["act", "conjugated", "relation_residual", "mu_lambda_coordinates"]
)
def test_blocks_make_the_public_calls_of_one_whole_call(call):
    # each block runs private kernels: a blocked call reaches the package's
    # public functions exactly as often as the whole-batch call does
    n = 3 * su2._BLOCK + 5
    t, rho = _edge_inputs(np.random.default_rng(11), n, _edge_rows(n))
    k = haar_sample(np.random.default_rng(12), (n,))
    args = {
        "act": (act, t, rho),
        "conjugated": (Representation.conjugated, rho, k),
        "relation_residual": (relation_residual, rho),
        "mu_lambda_coordinates": (mu_lambda_coordinates, rho),
    }[call]
    assert _public_calls(*args) == _unblocked(_public_calls, *args)


# ---------------------------------------------------------------------------
# intertwining identities
# ---------------------------------------------------------------------------


class TestFlowIdentities:
    def test_zero_time_exact(self):
        rho = swap_rep(np.random.default_rng(36))
        rep = verify_flow_identities(rho, 0.0)
        assert rep.residual_h1 == 0.0 and rep.residual_h2 == 0.0
        assert rep.passed()

    def test_random_interior(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rep = verify_flow_identities(swap_rep(rng), 0.37)
            assert rep.max_residual < 1e-10

    def test_against_expm_oracle(self):
        rng = np.random.default_rng(38)
        rho = swap_rep(rng)
        t = 0.61
        x_raw = AlgebraElement(2.0 * mul(rho.h2, rho.h1).vec)
        y_raw = AlgebraElement(2.0 * mul(rho.h1, rho.h2).vec)
        lhs = expm(t * x_raw.matrix) @ rho.h2.matrix
        rhs = rho.h2.matrix @ expm(t * y_raw.matrix)
        assert_allclose(lhs, rhs, atol=1e-12)
        # and our quaternion exponential agrees with expm
        ours = exp_alg(AlgebraElement(t * x_raw.v)).matrix
        assert_allclose(ours, expm(t * x_raw.matrix), atol=1e-12)

    def test_batch_rows_are_single_calls(self):
        rng = np.random.default_rng(42)
        rows = [swap_rep(rng) for _ in range(30)]
        batch = Representation(
            *(GroupElement(np.stack([r.elements()[i].q for r in rows])) for i in range(4))
        )
        times = rng.uniform(0.0, TWO_PI, size=30)
        rep = verify_flow_identities(batch, times)
        assert rep.residual_h1.shape == (30,)
        for i, rho in enumerate(rows):
            alone = verify_flow_identities(rho, float(times[i]))
            assert isinstance(alone.residual_h2, float)
            assert type(alone.max_residual) is float and type(alone.passed()) is bool
            assert rep.residual_h2[i] == alone.residual_h2
            assert rep.residual_h1[i] == alone.residual_h1
            assert bool(rep.passed()[i]) == alone.passed()

    def test_commuting_pair_degenerate_but_defined(self):
        rng = np.random.default_rng(39)
        a = haar_sample(rng)
        rho = Representation(a, diag(0.4), a, diag(1.1))
        rep = verify_flow_identities(rho, 0.83)
        assert rep.max_residual < 1e-13

    def test_central_product_zero_generator(self):
        rng = np.random.default_rng(40)
        h1 = haar_sample(rng)
        h2 = -h1.inverse()
        a = haar_sample(rng)
        rep = verify_flow_identities(Representation(a, h1, a, h2), 1.7)
        assert rep.max_residual < 1e-13
