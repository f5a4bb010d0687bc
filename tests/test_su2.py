"""Core group arithmetic, checked against the independent 2x2 complex-matrix oracle."""

import contextlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from charvar import su2
from charvar.errors import CenterAmbiguity, ZeroVector
from charvar.flows import TorusElement, act
from charvar.polytope import moment_coordinates
from charvar.repvar import Representation, is_abelian, relation_residual
from charvar.su2 import (
    AlgebraElement,
    GroupElement,
    StabilizerType,
    commutator,
    conjugate,
    distance,
    exp_alg,
    find_conjugator,
    haar_sample,
    log_grp,
    mul,
    stabilizer_type,
    trace_angle,
)

EPS_MAT = 1e-9
EPS_ALG = 1e-8

I2 = GroupElement.identity()
MINUS_I2 = GroupElement.minus_identity()
DIAG_I = GroupElement([0.0, 0.0, 0.0, 1.0])  # diag(i, -i)
J = GroupElement([0.0, -1.0, 0.0, 0.0])  # [[0, -1], [1, 0]]


def oracle_mul(a: GroupElement, b: GroupElement) -> np.ndarray:
    """Product computed entirely on the complex matrix side."""
    return a.matrix @ b.matrix


def rand_elements(seed, n=1):
    rng = np.random.default_rng(seed)
    return [haar_sample(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# matrix view / convention
# ---------------------------------------------------------------------------


def test_matrix_convention_units():
    np.testing.assert_array_equal(DIAG_I.matrix, np.diag([1j, -1j]))
    np.testing.assert_array_equal(J.matrix, np.array([[0, -1], [1, 0]], dtype=complex))
    np.testing.assert_array_equal(I2.matrix, np.eye(2, dtype=complex))


def test_matrix_view_is_special_unitary():
    (g,) = rand_elements(11)
    m = g.matrix
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < EPS_MAT
    assert abs(np.linalg.det(m) - 1.0) < EPS_MAT
    assert abs(np.trace(m).real - 2.0 * g.w) == 0.0  # tr = 2w exactly


def test_from_matrix_round_trip():
    for g in rand_elements(12, 20):
        back = GroupElement.from_matrix(g.matrix)
        assert np.abs(back.q - g.q).max() < 1e-15


# ---------------------------------------------------------------------------
# mul / inverse / commutator
# ---------------------------------------------------------------------------


def test_mul_identity_and_inverse():
    (g,) = rand_elements(1)
    assert np.array_equal(mul(I2, g).q, g.q)
    assert distance(mul(g, g.inverse()), I2) < EPS_MAT


def test_mul_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = haar_sample(rng), haar_sample(rng)
        assert np.abs(mul(a, b).matrix - oracle_mul(a, b)).max() < EPS_MAT


def test_mul_batched_matches_scalar():
    rng = np.random.default_rng(3)
    a, b = haar_sample(rng, (64,)), haar_sample(rng, (64,))
    batched = mul(a, b)
    for i in range(64):
        np.testing.assert_array_equal(batched.q[i], mul(a[i], b[i]).q)


@pytest.mark.parametrize("op", [conjugate, commutator])
def test_conjugate_and_commutator_batched_match_scalar(op):
    rng = np.random.default_rng(3)
    a, b = haar_sample(rng, (64,)), haar_sample(rng, (64,))
    batched = op(a, b)
    for i in range(64):
        np.testing.assert_array_equal(batched.q[i], op(a[i], b[i]).q)


def test_central_products_are_exact_sign_flips():
    (g,) = rand_elements(4)
    assert np.array_equal(mul(MINUS_I2, g).q, -g.q)
    assert np.array_equal(mul(mul(MINUS_I2, g), MINUS_I2).q, g.q)


def test_commutator_cases():
    (h,) = rand_elements(5)
    assert distance(commutator(I2, h), I2) == 0.0
    # the canonical trace-(-2) commutator: [diag(i,-i), J] = -I
    got = commutator(DIAG_I, J)
    oracle = (
        DIAG_I.matrix @ J.matrix @ np.linalg.inv(DIAG_I.matrix) @ np.linalg.inv(J.matrix)
    )
    assert np.abs(oracle + np.eye(2)).max() < 1e-15
    assert distance(got, MINUS_I2) < EPS_MAT


def test_commutator_matches_matrix_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        g, h = haar_sample(rng), haar_sample(rng)
        oracle = g.matrix @ h.matrix @ np.linalg.inv(g.matrix) @ np.linalg.inv(h.matrix)
        assert np.abs(commutator(g, h).matrix - oracle).max() < EPS_MAT


def test_commutator_traces_agree_both_orders():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, h = haar_sample(rng), haar_sample(rng)
        assert abs(float(commutator(g, h).trace() - commutator(h, g).trace())) < 1e-9


def test_conjugate_matches_mul_chain():
    rng = np.random.default_rng(8)
    for _ in range(25):
        k, g = haar_sample(rng), haar_sample(rng)
        chain = mul(mul(k, g), k.inverse())
        assert distance(conjugate(k, g), chain) < EPS_MAT
        assert conjugate(k, g).w == g.w  # scalar part preserved bitwise


# ---------------------------------------------------------------------------
# bitwise equivalence with the np.cross formulation the kernels replaced
# ---------------------------------------------------------------------------


def _cross_oracle_mul(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    # per row: a row whose b is exactly +-I is a's row flipped, and otherwise
    # a row whose a is exactly +-I is b's row flipped
    def exact_center(q):
        return (np.all(q[..., 1:] == 0.0, axis=-1) & (np.abs(q[..., 0]) == 1.0))[..., None]

    aw, av = qa[..., 0], qa[..., 1:]
    bw, bv = qb[..., 0], qb[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1)
    v = aw[..., None] * bv + bw[..., None] * av + np.cross(av, bv)
    q = np.concatenate([w[..., None], v], axis=-1)
    n2 = np.sum(q * q, axis=-1)
    div = np.where(n2 == 1.0, 1.0, np.sqrt(n2))
    q = np.where(exact_center(qa), qb * qa[..., 0:1], q / div[..., None])
    return np.where(exact_center(qb), qa * qb[..., 0:1], q)


def _cross_oracle_conjugate(qk: np.ndarray, qg: np.ndarray) -> np.ndarray:
    kw, kv = qk[..., 0], qk[..., 1:]
    gv = qg[..., 1:]
    t = 2.0 * np.cross(kv, gv)
    v = gv + kw[..., None] * t + np.cross(kv, t)
    return np.concatenate([qg[..., 0:1], v], axis=-1)


def _cross_oracle_commutator(qg: np.ndarray, qh: np.ndarray) -> np.ndarray:
    inv = np.array([1.0, -1.0, -1.0, -1.0])
    return _cross_oracle_mul(_cross_oracle_mul(qg, qh), _cross_oracle_mul(qg * inv, qh * inv))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _normalized(raw: np.ndarray) -> np.ndarray:
    # scale by the largest component first: squares below ~1e-308 are
    # subnormal, and a norm taken from them leaves the result off the unit
    # sphere (raw components of 1e-160 normalize to 0.495, not 0.5)
    big = np.max(np.abs(raw), axis=-1, keepdims=True)
    raw = raw / np.where(big > 0.0, big, 1.0)
    n = np.linalg.norm(raw, axis=-1, keepdims=True)
    return np.where(n > 0.0, raw / np.where(n > 0.0, n, 1.0), [1.0, 0.0, 0.0, 0.0])


def quaternions(shape: tuple) -> st.SearchStrategy:
    """Unit quaternions of the given batch shape: random, with signed-zero and
    +-1 components, every element exactly +-I (signed zeros included), or a
    batch whose rows mix the two."""
    component = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
    center = st.tuples(st.sampled_from([1.0, -1.0]), *[st.sampled_from([0.0, -0.0])] * 3)
    random = hnp.arrays(np.float64, shape + (4,), elements=component).map(_normalized)
    central = center.map(lambda c: np.broadcast_to(np.array(c), shape + (4,)).copy())
    mask = hnp.arrays(np.bool_, shape + (1,))
    mixed = st.tuples(mask, random, central).map(lambda m: np.where(m[0], m[2], m[1]))
    return st.one_of(random, central, mixed)


# scalar x scalar, batch x batch, and scalar x batch broadcast both ways
PAIR_SHAPES = st.sampled_from([((), ()), ((5,), (5,)), ((), (5,)), ((5,), ())])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kernels_match_cross_oracle_bitwise(data):
    sa, sb = data.draw(PAIR_SHAPES)
    qa, qb = data.draw(quaternions(sa)), data.draw(quaternions(sb))
    a, b = GroupElement(qa), GroupElement(qb)
    assert _same_bits(mul(a, b).q, _cross_oracle_mul(qa, qb))
    assert _same_bits(commutator(a, b).q, _cross_oracle_commutator(qa, qb))
    if len(sa) <= len(sb):  # the scalar part comes from g, so g carries the batch
        assert _same_bits(conjugate(a, b).q, _cross_oracle_conjugate(qa, qb))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_relation_residual_matches_cross_oracle_bitwise(data):
    shape = data.draw(st.sampled_from([(), (5,)]))
    g1, h1, g2, h2 = (data.draw(quaternions(shape)) for _ in range(4))
    word = _cross_oracle_mul(_cross_oracle_commutator(g1, h1), _cross_oracle_commutator(g2, h2))
    oracle = distance(GroupElement(word), GroupElement.identity(shape))
    rho = Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))
    assert _same_bits(np.asarray(relation_residual(rho)), np.asarray(oracle))


def test_mixed_batch_rows_equal_single_products_bitwise():
    # exactly central rows, of either operand or both, sit among others: each
    # row of the batched product, commutator and residual is that row alone
    rng = np.random.default_rng(11)
    q = haar_sample(rng, (4, 12)).q.copy()
    q[0, ::3] = [1.0, 0.0, 0.0, 0.0]
    q[1, 1::4] = [-1.0, -0.0, 0.0, -0.0]
    q[2, ::4] = [-1.0, 0.0, -0.0, 0.0]
    q[3, 2::5] = [1.0, -0.0, -0.0, -0.0]
    g1, h1, g2, h2 = (GroupElement(x) for x in q)
    rho = Representation(g1, h1, g2, h2)
    for i in range(12):
        assert _same_bits(mul(g1, h1).q[i], mul(g1[i], h1[i]).q)
        assert _same_bits(mul(h1, g2).q[i], mul(h1[i], g2[i]).q)
        assert _same_bits(commutator(g1, h1).q[i], commutator(g1[i], h1[i]).q)
        assert _same_bits(commutator(g2, h2).q[i], commutator(g2[i], h2[i]).q)
        assert _same_bits(relation_residual(rho)[i], np.asarray(relation_residual(rho[i])))


def _frozen_snap_trig(c, s):
    c = np.array(c, dtype=np.float64, copy=True)
    s = np.array(s, dtype=np.float64, copy=True)
    at_pi = (np.abs(s) < su2.SNAP_TOL) & (np.abs(np.abs(c) - 1.0) < su2._SNAP_DEV)
    at_half = (np.abs(c) < su2.SNAP_TOL) & (np.abs(np.abs(s) - 1.0) < su2._SNAP_DEV)
    c = np.where(at_pi, np.copysign(1.0, c), c)
    s = np.where(at_pi, 0.0, s)
    s = np.where(at_half, np.copysign(1.0, s), s)
    c = np.where(at_half, 0.0, c)
    return c, s


def _frozen_exp_alg(v: np.ndarray) -> np.ndarray:
    # the exponential before the component kernel: np.linalg.norm, four
    # np.where snaps and one concatenate
    theta = np.linalg.norm(v, axis=-1)
    c, s = _frozen_snap_trig(np.cos(theta), np.sin(theta))
    safe = np.where(theta > 1e-8, theta, 1.0)
    coef = np.where(theta > 1e-8, s / safe, 1.0 - theta * theta / 6.0)
    return np.concatenate([c[..., None], v * coef[..., None]], axis=-1)


def algebra_vectors(shape: tuple) -> st.SearchStrategy:
    """Algebra vectors of the given batch shape: random, tiny (theta <= 1e-8),
    exact multiples of pi/2 along a coordinate axis or near them along any
    axis (both in snap range), and batches whose rows mix these."""
    signed = st.sampled_from([1.0, -1.0])
    component = st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(-1e-8, 1e-8),
        st.sampled_from([0.0, -0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]),
    )
    random = hnp.arrays(np.float64, shape + (3,), elements=component)
    unit = hnp.arrays(np.float64, shape + (3,), elements=st.floats(-1.0, 1.0)).map(
        lambda u: np.where(
            np.linalg.norm(u, axis=-1, keepdims=True) > 1e-3,
            u / np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), 1e-3),
            [0.0, 0.0, 1.0],
        )
    )
    quarter = hnp.arrays(np.float64, shape + (1,), elements=st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    snapped = st.tuples(unit, quarter, signed).map(lambda a: a[2] * a[0] * (a[1] * np.pi / 2))
    mask = hnp.arrays(np.bool_, shape + (1,))
    mixed = st.tuples(mask, random, snapped).map(lambda m: np.where(m[0], m[2], m[1]))
    return st.one_of(random, snapped, mixed)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exp_matches_frozen_form_bitwise(data):
    shape = data.draw(st.sampled_from([(), (5,), (2, 3)]))
    v = data.draw(algebra_vectors(shape))
    assert _same_bits(exp_alg(AlgebraElement(v)).q, _frozen_exp_alg(v))


def test_exp_mixed_batch_matches_frozen_form_bitwise():
    # one batch holding a snap at pi and at -pi/2, theta <= 1e-8, zero and a
    # generic row takes np.where's branches; each row alone takes the fast ones
    n = np.array([2.0, -1.0, 2.0]) / 3.0
    v = np.array([[np.pi, 0.0, 0.0], [0.0, -np.pi / 2, -0.0], [1e-9, 0.0, -1e-9],
                  [0.3, 0.4, 1.2], [0.0, 0.0, 0.0], np.pi * n])
    assert _same_bits(exp_alg(AlgebraElement(v)).q, _frozen_exp_alg(v))
    for row in v:
        assert _same_bits(exp_alg(AlgebraElement(row)).q, _frozen_exp_alg(row))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_distance_and_row_norms_match_linalg_norm_bitwise(data):
    sa, sb = data.draw(PAIR_SHAPES)
    qa, qb = data.draw(quaternions(sa)), data.draw(quaternions(sb))
    want = np.sqrt(2.0) * np.linalg.norm(qa - qb, axis=-1)
    assert _same_bits(np.asarray(distance(GroupElement(qa), GroupElement(qb))), np.asarray(want))
    v = data.draw(algebra_vectors(sa))
    for x in (qa, v):
        got = su2._row_norm(su2._split(x))
        assert _same_bits(np.asarray(got), np.asarray(np.linalg.norm(x, axis=-1)))


def _writable_components(q: np.ndarray) -> tuple:
    return tuple(np.array(c) for c in su2._split(q))


def _assert_untouched(inputs: tuple, saved: tuple, out: tuple) -> None:
    for a, b in zip(inputs, saved):
        assert _same_bits(np.asarray(a), np.asarray(b))
    assert not any(np.shares_memory(o, a) for o in out for a in inputs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_leave_their_inputs_unchanged(data):
    # in-place accumulation touches only temporaries a kernel allocated, on
    # the exact-centre fast paths too (quaternions() draws all-central and
    # mixed batches), and no output shares memory with an input
    sa, sb = data.draw(PAIR_SHAPES)
    a = _writable_components(data.draw(quaternions(sa)))
    b = _writable_components(data.draw(quaternions(sb)))
    v = _writable_components(data.draw(algebra_vectors(sa)))
    saved = tuple(c.copy() for c in a + b + v)
    for out in (su2._qmul(a, b), su2._qmul(b, a), su2._commutator(a, b), su2._exp(*v)):
        _assert_untouched(a + b + v, saved, out)


def test_mul_all_negative_zero_dot_keeps_the_sign_of_zero():
    # every product in w is -0.0: np.sum starts from +0.0, so w is -0.0 - (+0.0)
    qa = np.array([-0.0, 1.0, -0.0, -0.0])
    qb = np.array([0.6, -0.0, 0.8, 0.0])
    got = mul(GroupElement(qa), GroupElement(qb)).q
    assert _same_bits(got, _cross_oracle_mul(qa, qb))
    assert np.signbit(got[0])


# ---------------------------------------------------------------------------
# exp / log / trace angle
# ---------------------------------------------------------------------------


def test_exp_trivial_cases():
    assert np.array_equal(exp_alg(AlgebraElement([0.0, 0.0, 0.0])).q, I2.q)
    n = np.array([2.0, -1.0, 2.0]) / 3.0
    assert np.array_equal(exp_alg(AlgebraElement(np.pi * n)).q, MINUS_I2.q)


def test_exp_batch_rows_are_single_calls():
    # the norm over axis -1 inside exp_alg reduces each row as it reduces
    # one vector alone, so a batched exponential keeps every scalar bit
    v = np.random.default_rng(10).normal(scale=3.0, size=(2000, 3))
    batch = exp_alg(AlgebraElement(v)).q
    rows = np.array([exp_alg(AlgebraElement(x)).q for x in v])
    assert _same_bits(batch, rows)


def test_exp_inverse_pairs():
    rng = np.random.default_rng(9)
    for _ in range(25):
        v = AlgebraElement(rng.normal(size=3))
        assert distance(mul(exp_alg(v), exp_alg(-v)), I2) < EPS_MAT


def test_log_trivial_and_diagonal():
    assert np.array_equal(log_grp(I2).v, np.zeros(3))
    # diag(e^{i pi/2}, e^{-i pi/2}): angle pi/2 about the diagonal axis
    g = GroupElement.from_matrix(np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]))
    v = log_grp(g)
    assert abs(float(v.norm) - np.pi / 2) < 1e-12
    np.testing.assert_allclose(v.v / float(v.norm), [0, 0, 1], atol=1e-12)


def test_log_raises_at_minus_identity():
    with pytest.raises(CenterAmbiguity):
        log_grp(MINUS_I2)
    with pytest.raises(CenterAmbiguity):
        log_grp(GroupElement.from_quaternion([-1.0, 1e-12, 0.0, 0.0]))


@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_exp_log_round_trip(vec):
    v = np.asarray(vec)
    n = np.linalg.norm(v)
    if n >= np.pi - 0.01:
        v = v * (np.pi - 0.02) / n
    back = log_grp(exp_alg(AlgebraElement(v)))
    assert np.abs(back.v - v).max() < EPS_ALG


def test_trace_angle_values():
    assert float(trace_angle(I2)) == 0.0
    assert float(trace_angle(DIAG_I)) == 0.5  # trace 0
    assert float(trace_angle(MINUS_I2)) == 1.0


@pytest.mark.parametrize("angle", [1e-9, 1e-12, 1 - 1e-9])
def test_trace_angle_near_the_center(angle):
    # an angle within 1e-9 of 0 or 1 reads to roundoff; the element near -I
    # is built from its small supplement 1 - angle, which is exact
    small = min(angle, 1.0 - angle)
    w = np.cos(np.pi * small) * (1.0 if angle < 0.5 else -1.0)
    g = GroupElement(np.array([w, 0.0, 0.0, np.sin(np.pi * small)]))
    assert abs(float(trace_angle(g)) - angle) <= 2 * np.spacing(angle)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_trace_angle_conjugation_invariant(seed):
    rng = np.random.default_rng(seed)
    g, k = haar_sample(rng), haar_sample(rng)
    assert abs(float(trace_angle(conjugate(k, g)) - trace_angle(g))) < 1e-9


def test_unit_raises_on_zero():
    with pytest.raises(ZeroVector):
        AlgebraElement([0.0, 0.0, 0.0]).unit()


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_unit_norm_and_determinism():
    g1 = haar_sample(np.random.default_rng(123), (100,))
    g2 = haar_sample(np.random.default_rng(123), (100,))
    assert np.abs(np.linalg.norm(g1.q, axis=-1) - 1.0).max() < 1e-12
    np.testing.assert_array_equal(g1.q, g2.q)


def test_haar_single_draws_match_linalg_norm_bitwise():
    # a single draw is normalized in Python floats; the draws, and the norm,
    # are those of the np.linalg.norm form, and a batch draws the same numbers
    n = 50_000
    rng, oracle = np.random.default_rng(2024), np.random.default_rng(2024)
    got = np.array([haar_sample(rng).q for _ in range(n)])
    raw = np.array([oracle.normal(size=4) for _ in range(n)])
    assert _same_bits(got, raw / np.linalg.norm(raw, axis=-1)[..., None])
    assert _same_bits(got, haar_sample(np.random.default_rng(2024), (n,)).q)


def test_haar_mean_trace():
    # Var(tr g) = Var(2w) = 4 E[w^2] = 1 on the unit 3-sphere, so the mean of
    # N samples has sigma = 1/sqrt(N); we allow 5 sigma.
    n = 100_000
    g = haar_sample(np.random.default_rng(77), (n,))
    assert abs(float(np.mean(g.trace()))) < 5.0 / np.sqrt(n)


# ---------------------------------------------------------------------------
# conjugator solve / stabilizer
# ---------------------------------------------------------------------------


def element_list(xs) -> GroupElement:
    """Single elements as one list, on the last batch axis."""
    return GroupElement(np.stack([x.q for x in xs]))


def test_find_conjugator_reflexive():
    xs = rand_elements(20, 3)
    k, worst = find_conjugator(element_list(xs), element_list(xs))
    assert worst < EPS_MAT
    assert max(float(distance(conjugate(k, x), x)) for x in xs) < EPS_MAT


def test_find_conjugator_construct_then_recover():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k0 = haar_sample(rng)
        xs = [haar_sample(rng), haar_sample(rng)]
        ys = [conjugate(k0, x) for x in xs]
        k, worst = find_conjugator(element_list(xs), element_list(ys))
        assert worst < EPS_MAT
        # irreducible pair: conjugator unique up to sign
        assert min(np.abs(k.q - k0.q).max(), np.abs(k.q + k0.q).max()) < 1e-7


def test_find_conjugator_trace_obstruction():
    g = GroupElement([0.0, 1.0, 0.0, 0.0])  # trace 0
    gp = GroupElement.from_quaternion([0.5, np.sqrt(0.75), 0.0, 0.0])  # trace 1
    assert not find_conjugator(element_list([g]), element_list([gp]))[1] < EPS_MAT


def test_find_conjugator_symmetric_success():
    rng = np.random.default_rng(22)
    for _ in range(10):
        k0 = haar_sample(rng)
        xs = element_list([haar_sample(rng), haar_sample(rng)])
        ys = conjugate(k0, xs)
        assert (find_conjugator(xs, ys)[1] < EPS_MAT) == (find_conjugator(ys, xs)[1] < EPS_MAT)


def test_find_conjugator_abelian_nullspace():
    # both lists diagonal: nullspace is 2-dimensional, still must succeed
    a = exp_alg(AlgebraElement([0.0, 0.0, 0.7]))
    b = exp_alg(AlgebraElement([0.0, 0.0, -0.4]))
    assert find_conjugator(element_list([a, b]), element_list([a, b]))[1] < EPS_MAT


@pytest.mark.parametrize(
    "shapes",
    [
        ((2, 4), (3, 4)),
        ((5, 2, 4), (5, 3, 4)),
        ((0, 4), (0, 4)),
        ((5, 0, 4), (5, 0, 4)),
        ((4,), (4,)),
    ],
)
def test_find_conjugator_rejects_unequal_or_empty_lists(shapes):
    # unequal lengths, empty lists and single elements without a list axis
    # are refused at the boundary, before any broadcast or SVD
    a, b = (GroupElement.identity(shape[:-1]) for shape in shapes)
    with pytest.raises(ValueError, match="equally sized, non-empty"):
        find_conjugator(a, b)
    with pytest.raises(ValueError, match="equally sized, non-empty"):
        su2.conjugator_nullspace(a, b)


def test_conjugator_nullspace_dimension():
    # irreducible, abelian and central lists: a circle of conjugators (one
    # basis vector up to sign), a torus pair (two) and everything (four)
    rng = np.random.default_rng(26)
    xs = element_list(rand_elements(27, 2))
    t = element_list([exp_alg(AlgebraElement([0.0, 0.0, s])) for s in (0.3, 1.1)])
    central = element_list([I2, MINUS_I2])
    for lists, dim in ((xs, 1), (t, 2), (central, 4)):
        k = haar_sample(rng)
        assert su2.conjugator_nullspace(lists, conjugate(k, lists)).shape == (4, dim)
    # a batch of lists has no one basis; the rows' vectors are not mixed into one
    batch = GroupElement(np.stack([xs.q, t.q]))
    with pytest.raises(ValueError, match="one pair of element lists"):
        su2.conjugator_nullspace(batch, batch)


def _array_left_mul(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def _array_right_mul(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


def _loop_find_conjugator(qa: np.ndarray, qb: np.ndarray):
    """The per-element solve the batched kernel replaced: (candidate k, worst
    residual) for one pair of element lists of shape (n, 4)."""
    system = np.concatenate(
        [_array_right_mul(a) - _array_left_mul(b) for a, b in zip(qa, qb)], axis=0
    )
    _, _, vt = np.linalg.svd(system)
    k = GroupElement.from_quaternion(vt[-1])
    worst = max(
        float(distance(conjugate(k, GroupElement(a)), GroupElement(b))) for a, b in zip(qa, qb)
    )
    return k.q, worst


@given(quaternions((7,)))
@example(_normalized(np.full((7, 4), 1e-160)))  # subnormal squares: see _normalized
@settings(max_examples=100, deadline=None)
def test_mul_matrices_match_array_form_bitwise(qs):
    k = GroupElement.from_quaternion([0.3, -0.5, 0.1, 0.8])
    for q in qs:
        assert _same_bits(su2._left_mul_matrix(q), _array_left_mul(q))
        assert _same_bits(su2._right_mul_matrix(q), _array_right_mul(q))
        g = GroupElement(q)
        # an absolute bound: a component that cancels to ~1e-16 has no
        # relative accuracy to speak of
        atol = 4 * np.finfo(float).eps
        np.testing.assert_allclose(su2._left_mul_matrix(q) @ k.q, mul(g, k).q, rtol=0, atol=atol)
        np.testing.assert_allclose(su2._right_mul_matrix(q) @ k.q, mul(k, g).q, rtol=0, atol=atol)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_batched_conjugator_rows_match_scalar_solve(data):
    batch, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    qa = data.draw(quaternions((batch, n)))
    if data.draw(st.booleans()):  # conjugate lists: a conjugator exists
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        qb = conjugate(haar_sample(rng, (batch, 1)), GroupElement(qa)).q
    else:
        qb = data.draw(quaternions((batch, n)))
    k, worst = find_conjugator(GroupElement(qa), GroupElement(qb))
    assert k.batch_shape == (batch,) and worst.shape == (batch,)
    for r in range(batch):
        k_ref, worst_ref = _loop_find_conjugator(qa[r], qb[r])
        assert _same_bits(k.q[r], k_ref)
        assert worst[r] == worst_ref
        # one list alone: a single element and a float, the batch row's bits
        k_r, worst_r = find_conjugator(GroupElement(qa[r]), GroupElement(qb[r]))
        assert k_r.batch_shape == () and isinstance(worst_r, float)
        assert _same_bits(k_r.q, k_ref)
        assert worst_r == worst_ref


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_reduced_svd_keeps_the_right_singular_vectors_bitwise(data):
    # the conjugator solves read only vt, and the reduced SVD returns the
    # full one's bits, for the 4-column systems and the 3-column pure ones;
    # torus and central lists have null spaces of dimension 2 and 4
    n = data.draw(st.integers(1, 4))
    kind = data.draw(st.sampled_from(["random", "conjugate", "torus", "central"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        qa, qb = data.draw(quaternions((3, n))), data.draw(quaternions((3, n)))
    else:
        if kind == "torus":
            axis = AlgebraElement(rng.normal(size=(3, 1, 3))).unit().v
            qa = exp_alg(AlgebraElement(axis * rng.uniform(0.1, 3.0, size=(3, n, 1)))).q
        elif kind == "central":
            qa = rng.choice([-1.0, 1.0], size=(3, n, 1)) * I2.q
        else:
            qa = data.draw(quaternions((3, n)))
        qb = conjugate(haar_sample(rng, (3, 1)), GroupElement(qa)).q
    system = su2._conjugation_system(qa, qb)
    for m in (system, system[..., 1:]):
        full, reduced = (np.linalg.svd(m, full_matrices=f)[2] for f in (True, False))
        assert _same_bits(full, reduced)
    if kind in ("torus", "central"):
        null = np.count_nonzero(np.linalg.svd(system, compute_uv=False) < 1e-7, axis=-1)
        assert np.all(null == {"torus": 2, "central": 4}[kind])


def test_conjugate_batched_k_single_g_matches_scalar():
    rng = np.random.default_rng(24)
    k, g = haar_sample(rng, (3,)), haar_sample(rng)
    batched = conjugate(k, g)
    assert batched.batch_shape == (3,)
    for i in range(3):
        assert _same_bits(batched.q[i], conjugate(k[i], g).q)


def test_stabilizer_type_cases():
    assert stabilizer_type(GroupElement(np.zeros((0, 4)))) is StabilizerType.FULL
    assert stabilizer_type(element_list([I2, MINUS_I2])) is StabilizerType.FULL
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    assert stabilizer_type(element_list([t1, t2])) is StabilizerType.TORUS
    assert stabilizer_type(element_list([DIAG_I, J])) is StabilizerType.CENTER
    with pytest.raises(ValueError, match="element lists"):
        stabilizer_type(DIAG_I)  # one element, no list axis


def test_stabilizer_type_conjugation_invariant():
    rng = np.random.default_rng(23)
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    for xs in ([I2, MINUS_I2], [t1, t2], [DIAG_I, J]):
        k = haar_sample(rng)
        xs = element_list(xs)
        assert stabilizer_type(conjugate(k, xs)) is stabilizer_type(xs)


def test_stabilizer_type_rows_match_batched_read():
    # the cases above, plus a list with one central element, and their
    # conjugates as one (2, 4, 2, 4) stack: each row of the batched read is
    # the one-list read
    rng = np.random.default_rng(25)
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    k = haar_sample(rng)
    plain = [[I2, MINUS_I2], [t1, t2], [DIAG_I, J], [MINUS_I2, t2]]
    lists = [plain, [[conjugate(k, x) for x in xs] for xs in plain]]
    stack = np.array([[element_list(xs).q for xs in row] for row in lists])
    got = stabilizer_type(GroupElement(stack))
    assert got.shape == (2, 4)
    want = [StabilizerType.FULL, StabilizerType.TORUS, StabilizerType.CENTER, StabilizerType.TORUS]
    assert list(got[0]) == want
    for i, row in enumerate(lists):
        for j, xs in enumerate(row):
            single = stabilizer_type(element_list(xs))
            assert isinstance(single, StabilizerType) and got[i, j] is single


@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_stabilizer_type_of_empty_lists_is_full_per_row(shape):
    # an empty list has no element to move, in a batch as alone
    got = stabilizer_type(GroupElement(np.zeros(shape + (0, 4))))
    assert got.shape == shape and got.dtype == object
    assert all(t is StabilizerType.FULL for t in got.ravel())


def test_serialization_shape():
    # GroupElement JSON form: a plain [w, x, y, z] list, checked in cli tests;
    # here just ensure the quaternion is the public contract
    (g,) = rand_elements(30)
    assert g.q.shape == (4,)
    assert not g.q.flags.writeable


# ---------------------------------------------------------------------------
# blocked evaluation of long batches
# ---------------------------------------------------------------------------

# one row short of a block, exactly one block, one row over, and 3 blocks
# plus a partial fourth
EDGE_SIZES = [su2._BLOCK - 1, su2._BLOCK, su2._BLOCK + 1, 3 * su2._BLOCK + 5]


def unblocked(f, *args):
    """f(*args) with every batch evaluated whole, as one kernel call."""
    with mock.patch.object(su2, "_BLOCK", 1 << 62):
        return f(*args)


def edge_rows(n: int) -> np.ndarray:
    """The rows on both sides of every block edge inside n rows, and the last row."""
    b = su2._BLOCK
    rows = {n - 1} | {r for e in range(b, n, b) for r in (e - 1, e)}
    return np.array(sorted(rows))


def transient_peak(f, *args) -> int:
    """Bytes f(*args) holds at its peak beyond the result it returns, by tracemalloc."""
    tracemalloc.start()
    try:
        out = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - kept


def _edge_quadruples(rng, n: int, rows: np.ndarray) -> Representation:
    """n Haar quadruples with exactly central slots at the given rows: +-I in
    g1, g2 and h2 by turns (signed zeros mixed), and h2 = -h1^-1, so that
    h1 h2 = -I, at the rows between."""
    g1, h1, g2, h2 = (haar_sample(rng, (n,)).q.copy() for _ in range(4))
    g1[rows[::2]] = [1.0, 0.0, -0.0, 0.0]
    g2[rows[1::2]] = [-1.0, -0.0, 0.0, -0.0]
    h2[rows[::3]] = [-1.0, 0.0, 0.0, -0.0]
    h2[rows[1::3]] = -h1[rows[1::3]] * [1.0, -1.0, -1.0, -1.0]
    return Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))


def _same_blocked(f, *args) -> bool:
    got, want = f(*args), unblocked(f, *args)
    if isinstance(got, GroupElement):
        got, want = got.q, want.q
    return _same_bits(np.asarray(got), np.asarray(want))


def test_blockwise_slices_the_batch_axis_only():
    b = su2._BLOCK
    calls = []

    def kernel(x, y):
        calls.append((x.shape, y.shape))
        return x + y[..., :1], x[..., 0] * 2.0

    x, y = np.arange(3.0 * (b + 2)).reshape(b + 2, 3), np.ones(3)
    total, doubled = su2._blockwise(kernel, (x.shape[:1], ()), x, y)
    assert calls == [((b, 3), (3,)), ((2, 3), (3,))]
    assert _same_bits(total, x + 1.0) and _same_bits(doubled, x[:, 0] * 2.0)
    calls.clear()
    su2._blockwise(kernel, ((b,), ()), x[:b], y)  # one block
    su2._blockwise(kernel, ((2, b + 2), ()), np.stack([x, x]), y)  # two axes
    assert calls == [((b, 3), (3,)), ((2, b + 2, 3), (3,))]


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_conjugate_blocks_match_whole_batch_bitwise(n):
    rng = np.random.default_rng(n)
    rows = edge_rows(n)
    many = haar_sample(rng, (n,)).q.copy()
    many[rows[::2]] = [1.0, 0.0, -0.0, 0.0]
    many[rows[1::2]] = [-1.0, -0.0, 0.0, -0.0]
    many = GroupElement(many)
    for one in (haar_sample(rng), GroupElement.minus_identity()):
        # a batched k over a single g, and the reverse
        assert _same_blocked(conjugate, many, one)
        assert _same_blocked(conjugate, one, many)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_residual_and_moments_blocks_match_whole_batch_bitwise(n):
    rho = _edge_quadruples(np.random.default_rng(n), n, edge_rows(n))
    assert _same_blocked(relation_residual, rho)
    assert _same_blocked(moment_coordinates, rho)


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_kernels_blocked_near_block_edges_match_whole_bitwise(data):
    b = su2._BLOCK
    n = data.draw(st.integers(1, 3)) * b + data.draw(st.integers(-3, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = np.unique(rng.integers(0, n, size=data.draw(st.integers(1, 8))))
    rho = _edge_quadruples(rng, n, np.concatenate([edge_rows(n), rows]))
    assert _same_blocked(conjugate, rho.g1, rho.h1)
    assert _same_blocked(conjugate, rho.h2[0], rho.g2)
    assert _same_blocked(relation_residual, rho)
    assert _same_blocked(moment_coordinates, rho)


@pytest.mark.parametrize("call", ["relation_residual", "act"])
def test_blocked_evaluation_holds_one_block_of_temporaries(call):
    # evaluated in blocks, a call holds one block's temporaries beyond its
    # result: over 3 blocks and a few rows that is at most half of what the
    # whole batch holds, and it does not grow with the batch, as it would if
    # the blocks' results were collected and then concatenated
    def args(n):
        rng = np.random.default_rng(5)
        rho = Representation(*(haar_sample(rng, (n,)) for _ in range(4)))
        t = TorusElement.from_array(rng.uniform(0.0, 2.0 * np.pi, size=(n, 3)))
        return (relation_residual, rho) if call == "relation_residual" else (act, t, rho)

    b = su2._BLOCK
    three, six = args(3 * b + 5), args(6 * b + 5)
    assert transient_peak(*three) <= 0.5 * unblocked(transient_peak, *three)
    assert transient_peak(*six) <= 1.1 * transient_peak(*three)


# ---------------------------------------------------------------------------
# stacked levels of the product trees
# ---------------------------------------------------------------------------

# one row; batches of 2 and 4 rows, where a stack axis of 2 or 4 calls taken
# for the row axis would still broadcast; both sides of the stacking bound
# for a level of 4 calls and of 2; both sides of a block; 3 blocks and a few
# rows
STACK_SIZES = [
    1, 2, 4,
    su2._STACK_ROWS // 4, su2._STACK_ROWS // 4 + 1,
    su2._STACK_ROWS // 2, su2._STACK_ROWS // 2 + 1,
    su2._BLOCK - 1, su2._BLOCK + 1, 3 * su2._BLOCK + 5,
]


def with_stack_rows(bound: int, f, *args):
    """f(*args) with su2._STACK_ROWS set to bound: 0 chains every level of a
    product tree, a huge bound stacks every one."""
    with mock.patch.object(su2, "_STACK_ROWS", bound):
        return f(*args)


def _same_stacked(f, *args) -> bool:
    """f(*args) reads the same bits with the default bound, every level
    chained and every level stacked."""
    got = [
        np.asarray(getattr(out, "q", out))
        for out in (f(*args), with_stack_rows(0, f, *args), with_stack_rows(1 << 62, f, *args))
    ]
    if got[0].dtype == bool:
        return all(g.shape == got[0].shape and np.array_equal(g, got[0]) for g in got[1:])
    return all(_same_bits(g, got[0]) for g in got[1:])


def _stack_quadruples(rng, n: int) -> Representation:
    """n Haar quadruples with exactly central slots (signed zeros mixed) and a
    central h1 h2 at the first, middle and last rows."""
    return _edge_quadruples(rng, n, np.unique([0, n // 2, n - 1]))


def _tree_calls(rho: Representation) -> list:
    """The product-tree entry points on rho: the surface word, commutators of
    two batches and of one element with a batch (both orders), and the six
    slot-pair commutators."""
    return [
        (relation_residual, rho),
        (commutator, rho.g1, rho.h1),
        (commutator, rho.h2[0], rho.g2),
        (commutator, rho.g2, rho.h1[-1]),
        (is_abelian, rho),
    ]


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stacked_levels_match_chained_bitwise(n):
    rng = np.random.default_rng(n)
    plain = Representation(*(haar_sample(rng, (n,)) for _ in range(4)))
    for rho in (plain, _stack_quadruples(rng, n)):
        for f, *args in _tree_calls(rho):
            assert _same_stacked(f, *args)


def test_stacked_levels_of_single_elements_and_2d_batches_match_chained_bitwise():
    rng = np.random.default_rng(14)
    rho = Representation(*(haar_sample(rng) for _ in range(4)))
    for quadruple in (rho, Representation(MINUS_I2, rho.h1, I2, rho.h2)):
        for f, *args in _tree_calls(quadruple[None]) + [(relation_residual, quadruple)]:
            assert _same_stacked(f, *args)
    assert _same_stacked(commutator, rho.g1, rho.h1)
    assert _same_stacked(commutator, MINUS_I2, rho.h1)
    grid = _stack_quadruples(rng, 6)
    grid = Representation(*(GroupElement(x.q.reshape(2, 3, 4)) for x in grid.elements()))
    assert _same_stacked(relation_residual, grid)
    assert _same_stacked(is_abelian, grid)
    assert _same_stacked(commutator, grid.g1[0], grid.h1[:, :1])  # (3,) with (2, 1)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_stacked_levels_match_chained_bitwise_near_the_bounds(data):
    edges = [1, su2._STACK_ROWS // 4, su2._STACK_ROWS // 2]
    n = max(1, data.draw(st.sampled_from(edges)) + data.draw(st.integers(-3, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = np.unique(rng.integers(0, n, size=data.draw(st.integers(1, 6))))
    rho = _edge_quadruples(rng, n, rows)
    for f, *args in _tree_calls(rho):
        assert _same_stacked(f, *args)


def _qmul_calls(f, *args) -> int:
    """The su2._qmul calls f(*args) makes, counted at every charvar module
    name bound to it."""
    real, calls = su2._qmul, []

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    modules = [m for name, m in sys.modules.items() if name.startswith("charvar")]
    with contextlib.ExitStack() as stack:
        for m in modules:
            if getattr(m, "_qmul", None) is real:
                stack.enter_context(mock.patch.object(m, "_qmul", counted))
        f(*args)
    return len(calls)


@pytest.mark.parametrize(
    "call, small, long",
    [
        # on 10 rows each level is one call: the surface word's 4 + 2 + 1
        # products, a commutator's 2 + 1, and act's h2 h1 and h1 h2, then
        # both twists' left and right products.  On 3 blocks and 5 rows the
        # commutators chain over the whole batch, and the blocked entry
        # points chain in each full block and stack the last 5 rows
        ("relation_residual", 3, 3 * 7 + 3),
        ("commutator", 2, 3),
        ("is_abelian", 2, 3),
        ("act", 3, 3 * 6 + 3),
    ],
)
def test_product_trees_make_pinned_qmul_calls(call, small, long):
    def args(n):
        rng = np.random.default_rng(n)
        rho = Representation(*(haar_sample(rng, (n,)) for _ in range(4)))
        t = TorusElement.from_array(rng.uniform(0.0, 2.0 * np.pi, size=(n, 3)))
        return {
            "relation_residual": (relation_residual, rho),
            "commutator": (commutator, rho.g1, rho.h1),
            "is_abelian": (is_abelian, rho),
            "act": (act, t, rho),
        }[call]

    assert _qmul_calls(*args(10)) == small
    assert _qmul_calls(*args(3 * su2._BLOCK + 5)) == long
