"""Core group arithmetic, checked against the independent 2x2 complex-matrix oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from charvar import su2
from charvar.errors import CenterAmbiguity, ZeroVector
from charvar.repvar import Representation, relation_residual
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


def test_haar_mean_trace():
    # Var(tr g) = Var(2w) = 4 E[w^2] = 1 on the unit 3-sphere, so the mean of
    # N samples has sigma = 1/sqrt(N); we allow 5 sigma.
    n = 100_000
    g = haar_sample(np.random.default_rng(77), (n,))
    assert abs(float(np.mean(g.trace()))) < 5.0 / np.sqrt(n)


# ---------------------------------------------------------------------------
# conjugator solve / stabilizer
# ---------------------------------------------------------------------------


def test_find_conjugator_reflexive():
    xs = rand_elements(20, 3)
    k = find_conjugator(xs, xs)
    assert k is not None
    assert max(float(distance(conjugate(k, x), x)) for x in xs) < EPS_MAT


def test_find_conjugator_construct_then_recover():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k0 = haar_sample(rng)
        xs = [haar_sample(rng), haar_sample(rng)]
        ys = [conjugate(k0, x) for x in xs]
        k = find_conjugator(xs, ys)
        assert k is not None
        # irreducible pair: conjugator unique up to sign
        assert min(np.abs(k.q - k0.q).max(), np.abs(k.q + k0.q).max()) < 1e-7


def test_find_conjugator_trace_obstruction():
    g = GroupElement([0.0, 1.0, 0.0, 0.0])  # trace 0
    gp = GroupElement.from_quaternion([0.5, np.sqrt(0.75), 0.0, 0.0])  # trace 1
    assert find_conjugator([g], [gp]) is None


def test_find_conjugator_symmetric_success():
    rng = np.random.default_rng(22)
    for _ in range(10):
        k0 = haar_sample(rng)
        xs = [haar_sample(rng), haar_sample(rng)]
        ys = [conjugate(k0, x) for x in xs]
        assert (find_conjugator(xs, ys) is None) == (find_conjugator(ys, xs) is None)


def test_find_conjugator_abelian_nullspace():
    # both lists diagonal: nullspace is 2-dimensional, still must succeed
    a = exp_alg(AlgebraElement([0.0, 0.0, 0.7]))
    b = exp_alg(AlgebraElement([0.0, 0.0, -0.4]))
    k = find_conjugator([a, b], [a, b])
    assert k is not None


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
    k, worst = su2._find_conjugators(qa, qb)
    assert k.shape == (batch, 4) and worst.shape == (batch,)
    for r in range(batch):
        k_ref, worst_ref = _loop_find_conjugator(qa[r], qb[r])
        assert _same_bits(k[r], k_ref)
        assert worst[r] == worst_ref
        found_ref = worst_ref < EPS_MAT
        got = find_conjugator([GroupElement(q) for q in qa[r]], [GroupElement(q) for q in qb[r]])
        assert (got is not None) == found_ref
        if got is not None:
            assert _same_bits(got.q, k_ref)


def test_conjugate_batched_k_single_g_matches_scalar():
    rng = np.random.default_rng(24)
    k, g = haar_sample(rng, (3,)), haar_sample(rng)
    batched = conjugate(k, g)
    assert batched.batch_shape == (3,)
    for i in range(3):
        assert _same_bits(batched.q[i], conjugate(k[i], g).q)


def test_stabilizer_type_cases():
    assert stabilizer_type([]) is StabilizerType.FULL
    assert stabilizer_type([I2, MINUS_I2]) is StabilizerType.FULL
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    assert stabilizer_type([t1, t2]) is StabilizerType.TORUS
    assert stabilizer_type([DIAG_I, J]) is StabilizerType.CENTER


def test_stabilizer_type_conjugation_invariant():
    rng = np.random.default_rng(23)
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    for xs in ([I2, MINUS_I2], [t1, t2], [DIAG_I, J]):
        k = haar_sample(rng)
        ys = [conjugate(k, x) for x in xs]
        assert stabilizer_type(ys) is stabilizer_type(xs)


def test_stabilizer_type_rows_match_batched_read():
    # the cases above, plus a list with one central element, and their
    # conjugates as one (2, 4, 2, 4) stack: each row of the batched read is
    # the one-list read
    from charvar.su2 import _stabilizer_types

    rng = np.random.default_rng(25)
    t1 = exp_alg(AlgebraElement([0.0, 0.0, 0.3]))
    t2 = exp_alg(AlgebraElement([0.0, 0.0, 1.1]))
    k = haar_sample(rng)
    plain = [[I2, MINUS_I2], [t1, t2], [DIAG_I, J], [MINUS_I2, t2]]
    lists = [plain, [[conjugate(k, x) for x in xs] for xs in plain]]
    got = _stabilizer_types(np.array([[[x.q for x in xs] for xs in row] for row in lists]))
    assert got.shape == (2, 4)
    want = [StabilizerType.FULL, StabilizerType.TORUS, StabilizerType.CENTER, StabilizerType.TORUS]
    assert list(got[0]) == want
    for i, row in enumerate(lists):
        for j, xs in enumerate(row):
            assert got[i, j] is stabilizer_type(xs)


def test_serialization_shape():
    # GroupElement JSON form: a plain [w, x, y, z] list, checked in cli tests;
    # here just ensure the quaternion is the public contract
    (g,) = rand_elements(30)
    assert g.q.shape == (4,)
    assert not g.q.flags.writeable
