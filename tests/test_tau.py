"""Tests for the section over the open simplex, fiber angle coordinates, and
the word-map involution tau."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charvar.errors import FiberSolveFailure, PreconditionViolated
from charvar.flows import TorusElement, act
from charvar.polytope import M_P, STD_DELTA, mu_lambda
from charvar.repvar import Representation, class_equal, relation_residual
from charvar.sigma import sigma
from charvar.su2 import GroupElement, haar_sample, mul
from charvar.tau import FiberCoordinates, fiber_coordinates, section, tau

TWO_PI = 2.0 * np.pi


def interior_points(rng, n: int, margin: float = 1e-3):
    out = []
    while len(out) < n:
        x = rng.uniform(0.0, 1.0, size=3)
        if float(STD_DELTA.margin(x)) <= -margin:
            out.append(x)
    return out


def canonical(t: np.ndarray) -> np.ndarray:
    """Representative of t modulo {(0,0,0), (pi,pi,pi)} with third angle in [0, pi)."""
    arr = np.mod(np.asarray(t, dtype=np.float64), TWO_PI)
    if arr[2] >= np.pi:
        arr = np.mod(arr + np.pi, TWO_PI)
    return arr


def angle_diff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.mod(a - b + np.pi, TWO_PI) - np.pi
    return float(np.max(np.abs(d)))


# ---------------------------------------------------------------------------
# section
# ---------------------------------------------------------------------------


class TestSection:
    def test_barycenter(self):
        x = np.array([0.25, 0.25, 0.25])
        rho = section(x)
        assert float(relation_residual(rho)) < 1e-8
        assert np.max(np.abs(mu_lambda(rho).x - x)) < 1e-8

    def test_symmetric_base_equal_traces(self):
        # x1 = x3 makes the first two tetrahedron coordinates equal, hence
        # tr(h1) = tr(h2) bitwise (float addition commutes)
        rho = section(np.array([0.2, 0.3, 0.2]))
        assert float(rho.h1.trace()) == float(rho.h2.trace())

    def test_random_interior_sweep(self):
        rng = np.random.default_rng(50)
        worst_res, worst_mu = 0.0, 0.0
        for x in interior_points(rng, 300):
            rho = section(x)
            worst_res = max(worst_res, float(relation_residual(rho)))
            worst_mu = max(worst_mu, float(np.max(np.abs(mu_lambda(rho).x - x))))
        assert worst_res < 1e-12
        assert worst_mu < 1e-7

    def test_fallback_region(self):
        # initial commutator trace 1 + max(cos 2t1, cos 2t2) is unattainable
        # here; the halving fallback must engage and still solve exactly
        x = M_P.apply_inverse(np.array([0.3, 0.3, 0.55]))
        rho = section(x)
        assert float(relation_residual(rho)) < 1e-12
        assert np.max(np.abs(mu_lambda(rho).x - x)) < 1e-10

    def test_polish_rescues_near_edge(self):
        # 8.5e-13 from an edge the closed form leaves a relation residual of
        # 1.04e-8 (above EPS_REL); only the Gauss-Newton polish on the two
        # phases brings it below 1e-12
        x = np.array([0.7516873116435345, 8.52419461182091e-13, 0.24831268835465775])
        rho = section(x)
        assert float(relation_residual(rho)) < 1e-12
        assert np.max(np.abs(mu_lambda(rho).x - x)) < 1e-10

    def test_moment_exact_on_h_slots(self):
        # the h-slots realize the trace angles by construction
        rng = np.random.default_rng(51)
        for x in interior_points(rng, 20):
            rho = section(x)
            a = M_P.apply(x)
            assert abs(float(rho.h1.trace()) - 2 * np.cos(np.pi * a[0])) < 1e-15
            assert abs(float(rho.h2.trace()) - 2 * np.cos(np.pi * a[1])) < 1e-15

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(PreconditionViolated):
            section(np.array([0.0, 0.3, 0.3]))
        with pytest.raises(PreconditionViolated):
            section(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(PreconditionViolated):
            section(np.array([0.4, 0.4, 0.4]))

    def test_deterministic(self):
        x = np.array([0.11, 0.36, 0.27])
        a = section(x)
        b = section(x)
        for p, q in zip(a.elements(), b.elements()):
            assert np.array_equal(p.q, q.q)


# ---------------------------------------------------------------------------
# fiber coordinates
# ---------------------------------------------------------------------------


class TestFiberCoordinates:
    def test_section_has_zero_angles(self):
        rho = section(np.array([0.25, 0.25, 0.25]))
        fc = fiber_coordinates(rho)
        assert np.array_equal(fc.angles.as_array(), [0.0, 0.0, 0.0])
        assert_allclose(fc.base.x, [0.25, 0.25, 0.25], atol=1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(52)
        for x in interior_points(rng, 30):
            rho = section(x)
            t = rng.uniform(0.0, TWO_PI, size=3)
            fc = fiber_coordinates(act(TorusElement.from_array(t), rho))
            assert angle_diff(fc.angles.as_array(), canonical(t)) < 1e-9

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(53)
        for x in interior_points(rng, 15):
            rho = act(
                TorusElement.from_array(rng.uniform(0, TWO_PI, 3)), section(x)
            )
            fc = fiber_coordinates(rho)
            k = haar_sample(rng)
            fc_conj = fiber_coordinates(rho.conjugated(k))
            assert angle_diff(fc.angles.as_array(), fc_conj.angles.as_array()) < 1e-9

    def test_canonical_third_angle(self):
        rng = np.random.default_rng(54)
        for x in interior_points(rng, 20):
            t = rng.uniform(0.0, TWO_PI, size=3)
            fc = fiber_coordinates(act(TorusElement.from_array(t), section(x)))
            assert 0.0 <= float(fc.angles.phi3) < np.pi

    def test_kernel_shift_recovers_same_angles(self):
        rng = np.random.default_rng(55)
        x = interior_points(rng, 1)[0]
        rho = section(x)
        t = np.array([1.0, 2.0, 0.5])
        a = fiber_coordinates(act(TorusElement.from_array(t), rho))
        b = fiber_coordinates(act(TorusElement.from_array(t + np.pi), rho))
        assert angle_diff(a.angles.as_array(), b.angles.as_array()) < 1e-9

    def test_swap_family(self):
        # generic exact solutions that were not built from the section
        rng = np.random.default_rng(56)
        for _ in range(20):
            a, b = haar_sample(rng), haar_sample(rng)
            rho = Representation(a, b, b, a)
            fc = fiber_coordinates(rho)
            recovered = act(fc.angles, section(fc.base.x))
            assert class_equal(recovered, rho)

    def test_rejects_boundary_class(self):
        rng = np.random.default_rng(57)
        g = haar_sample(rng)
        # commuting h-pair: moment on the tetrahedron boundary
        rho = Representation(g, g, g, g)
        with pytest.raises(PreconditionViolated):
            fiber_coordinates(rho)

    def test_non_solution_fails_verification(self):
        # interior moment but not a relation solution: no angles over the
        # section reproduce it, so the recovery must report a solve failure
        rng = np.random.default_rng(31)
        while True:
            rho = Representation(
                haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
            )
            if float(relation_residual(rho)) > 1e-2:
                break
        assert mu_lambda(rho).is_interior
        with pytest.raises(FiberSolveFailure):
            fiber_coordinates(rho)

    def test_returns_dataclass(self):
        fc = fiber_coordinates(section(np.array([0.3, 0.2, 0.2])))
        assert isinstance(fc, FiberCoordinates)


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


def bits(rho: Representation) -> np.ndarray:
    return np.stack([x.q for x in rho.elements()]).view(np.int64)


def interior_class(rng) -> Representation:
    x = interior_points(rng, 1, margin=0.03)[0]
    t = TorusElement.from_array(rng.uniform(0, TWO_PI, 3))
    return act(t, section(x)).conjugated(haar_sample(rng))


class TestTau:
    def test_is_the_word_map_without_solves(self, monkeypatch):
        rng = np.random.default_rng(64)
        rho = interior_class(rng)
        module = importlib.import_module("charvar.tau")  # the package re-exports tau

        def refuse(*args, **kwargs):
            raise AssertionError("tau must not solve anything")

        for name in ("section", "fiber_coordinates", "find_conjugator", "generators"):
            monkeypatch.setattr(module, name, refuse)
        g1, h1, g2, h2 = rho.elements()
        want = Representation(mul(h1, g1), h1.inverse(), mul(h2, g2), h2.inverse())
        assert np.array_equal(bits(tau(rho)), bits(want))

    def test_involution(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            a, b = haar_sample(rng), haar_sample(rng)
            rho = Representation(a, b, b, a)
            assert class_equal(tau(tau(rho)), rho)

    def test_preserves_moment(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            a, b = haar_sample(rng), haar_sample(rng)
            rho = Representation(a, b, b, a)
            assert np.max(np.abs(mu_lambda(tau(rho)).x - mu_lambda(rho).x)) < 1e-10

    def test_reverses_torus_action(self):
        rng = np.random.default_rng(61)
        for x in interior_points(rng, 15):
            rho = act(TorusElement.from_array(rng.uniform(0, TWO_PI, 3)), section(x))
            t = TorusElement.from_array(rng.uniform(0, TWO_PI, 3))
            lhs = tau(act(t, rho))
            rhs = act(t.inverse(), tau(rho))
            assert class_equal(lhs, rhs)

    def test_fixed_fibers_are_kernel_orbit(self):
        # tau(act(t, s)) = act(c - t, s) with c the angles of tau(s), so
        # t = c/2 is fixed, and so is its shift by the kernel; fibers away
        # from that orbit are moved
        rng = np.random.default_rng(62)
        for x in interior_points(rng, 3, margin=0.03):
            s = section(x)
            half = TorusElement.from_array(fiber_coordinates(tau(s)).angles.as_array() / 2.0)
            rho = act(half, s)
            assert class_equal(tau(rho), rho)
            rho_pi = act(TorusElement.kernel(), rho)
            assert class_equal(tau(rho_pi), rho_pi)
            for _ in range(20):
                rho = act(TorusElement.from_array(rng.uniform(0, TWO_PI, 3)), s)
                assert not class_equal(tau(rho), rho)

    def test_full_fixed_set_is_the_two_torsion(self):
        # the previous test checks the kernel orbit of c/2; the complete
        # fixed set over x solves 2t = c modulo the kernel, which is the
        # coset of the 2-torsion c/2 + e, e in {0, pi}^3: eight classes,
        # strictly more than the kernel orbit
        rng = np.random.default_rng(63)
        for x in interior_points(rng, 3, margin=0.03):
            s = section(x)
            half = fiber_coordinates(tau(s)).angles.as_array() / 2.0
            for e in itertools.product((0.0, np.pi), repeat=3):
                rho = act(TorusElement.from_array(half + np.array(e)), s)
                assert class_equal(tau(rho), rho)

    def test_batch_rows_are_scalar_calls(self):
        rng = np.random.default_rng(65)
        rows = [interior_class(rng) for _ in range(6)]
        batch = Representation(
            *(GroupElement(np.stack([r.elements()[i].q for r in rows])) for i in range(4))
        )
        images = tau(batch)
        for i, rho in enumerate(rows):
            assert np.array_equal(bits(images[i]), bits(tau(rho)))

    def test_boundary_classes(self):
        # abelian quadruples sit over the tetrahedron boundary, where the
        # twist flows and fiber coordinates are undefined; tau still applies
        rng = np.random.default_rng(66)
        for _ in range(10):
            g1, h1, g2, h2 = (
                GroupElement(np.array([np.cos(a), 0.0, 0.0, np.sin(a)]))
                for a in rng.uniform(0.0, TWO_PI, 4)
            )
            rho = Representation(g1, h1, g2, h2).conjugated(haar_sample(rng))
            image = tau(rho)
            assert float(relation_residual(image)) < 1e-14
            assert np.max(np.abs(mu_lambda(image).x - mu_lambda(rho).x)) < 1e-10
            assert class_equal(tau(image), rho)


# ---------------------------------------------------------------------------
# continuity and the symplectic form
# ---------------------------------------------------------------------------


def class_invariants(rho: Representation) -> np.ndarray:
    """Traces of g1, g2, g1 g2, g1 h2 and g1 g2^-1: class functions."""
    g1, _, g2, h2 = rho.elements()
    words = (g1, g2, mul(g1, g2), mul(g1, h2), mul(g1, g2.inverse()))
    return np.array([float(w.trace()) for w in words])


def test_tau_is_continuous_across_the_halving_wall():
    # section's t* halving changes its pass count near t = 0.96525 on this
    # segment, and the section jumps there; the swap-family solutions built
    # from its h-slots move continuously, and so must their tau images
    a = np.array([0.1186, 0.2780, 0.5797])
    b = np.array([0.7771, 0.1414, 0.0008])
    inputs, images = [], []
    for t in np.linspace(0.960, 0.970, 401):
        s = section((1.0 - t) * a + t * b)
        rho = Representation(s.h2, s.h1, s.h1, s.h2)
        inputs.append(class_invariants(rho))
        images.append(class_invariants(tau(rho)))
    input_step = float(np.max(np.abs(np.diff(inputs, axis=0))))
    image_step = float(np.max(np.abs(np.diff(images, axis=0))))
    assert input_step < 1e-3
    assert image_step < 5.0 * input_step


# Goldman's form on the relation variety, from the Alekseev-Malkin-Meinrenken
# 2-form on SU(2)^4.  A tangent vector xi in R^12 moves each slot by right
# translation, g -> g exp(eps xi); every 1-form is a central difference of
# plain NumPy quaternion words at EPS, independent of charvar's kernels.
EPS = 1e-6
# the worst |f*w + w| measured for tau and sigma over 45 interior points was
# 6.2e-10, finite-difference noise against |w| of 0.55 to 0.98
SYMPLECTIC_TOL = 1e-8


def _qmul(a, b):
    vec = a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:])
    return np.concatenate(([a[0] * b[0] - a[1:] @ b[1:]], vec))


def _qinv(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def _qexp(v):
    n = float(np.linalg.norm(v))
    return np.concatenate(([np.cos(n)], np.sinc(n / np.pi) * v))


def _comm(a, b):
    return _qmul(_qmul(a, b), _qmul(_qinv(a), _qinv(b)))


def _slots(rho: Representation) -> list:
    return [np.array(x.q) for x in rho.elements()]


def _moved(s: list, xi: np.ndarray) -> list:
    return [_qmul(g, _qexp(xi[3 * i : 3 * i + 3])) for i, g in enumerate(s)]


def _words(s: list) -> dict:
    g1, h1, g2, h2 = s
    return {
        "g1": g1, "h1": h1, "g2": g2, "h2": h2,
        "g1h1": _qmul(g1, h1), "g1-h1-": _qmul(_qinv(g1), _qinv(h1)),
        "g2h2": _qmul(g2, h2), "g2-h2-": _qmul(_qinv(g2), _qinv(h2)),
        "P1": _comm(g1, h1), "P2": _comm(g2, h2),
    }


def _omega(s: list, vectors: np.ndarray) -> np.ndarray:
    """Gram matrix of omega on the columns of `vectors`.

    omega = sum over (a, b) in {(g1, h1), (g2, h2)} of
    1/2 [<a*th, b*thb> + <a*thb, b*th> + <(ab)*th, (a^-1 b^-1)*thb>]
    + 1/2 <P1*th, P2*thb>, with th = W^-1 dW, thb = dW W^-1 and
    <alpha, beta>(u, v) = alpha(u).beta(v) - alpha(v).beta(u).
    """
    base = _words(s)
    th = {k: np.empty((3, vectors.shape[1])) for k in base}
    thb = {k: np.empty((3, vectors.shape[1])) for k in base}
    for j, xi in enumerate(vectors.T):
        plus, minus = _words(_moved(s, EPS * xi)), _words(_moved(s, -EPS * xi))
        for k, w in base.items():
            d = (plus[k] - minus[k]) / (2.0 * EPS)
            th[k][:, j] = _qmul(_qinv(w), d)[1:]
            thb[k][:, j] = _qmul(d, _qinv(w))[1:]

    def pair(a, b):
        return a.T @ b - b.T @ a

    out = 0.5 * pair(th["P1"], thb["P2"])
    for a, b in (("g1", "h1"), ("g2", "h2")):
        out += 0.5 * (pair(th[a], thb[b]) + pair(thb[a], th[b]))
        out += 0.5 * pair(th[a + b], thb[f"{a}-{b}-"])
    return out


def _tangent_basis(s: list) -> np.ndarray:
    """Orthonormal basis (12 x 9) of the kernel of d(relation word)."""
    def word(xi):
        m = _moved(s, xi)
        return _qmul(_comm(m[0], m[1]), _comm(m[2], m[3]))

    jac = np.array([(word(EPS * e) - word(-EPS * e))[1:] / (2.0 * EPS) for e in np.eye(12)]).T
    return np.linalg.svd(jac)[2][3:].T


def _pushforward(f, rho: Representation, basis: np.ndarray) -> np.ndarray:
    """df on the basis columns, in right-translation coordinates at f(rho)."""
    s, image = _slots(rho), _slots(f(rho))

    def f_moved(xi):
        return _slots(f(Representation(*(GroupElement(q) for q in _moved(s, xi)))))

    cols = []
    for xi in basis.T:
        plus, minus = f_moved(EPS * xi), f_moved(-EPS * xi)
        cols.append(np.concatenate(
            [_qmul(_qinv(w), (p - m) / (2.0 * EPS))[1:] for w, p, m in zip(image, plus, minus)]
        ))
    return np.array(cols).T


@pytest.mark.parametrize("f", [tau, sigma], ids=["tau", "sigma"])
def test_involution_is_antisymplectic(f):
    # sigma is the control: it is antisymplectic at every parent commit
    rng = np.random.default_rng(67)
    for _ in range(4):
        rho = interior_class(rng)
        basis = _tangent_basis(_slots(rho))
        form = _omega(_slots(rho), basis)
        singular = np.linalg.svd(form, compute_uv=False)
        assert np.all(singular[:6] > 0.5) and np.all(singular[6:] < SYMPLECTIC_TOL)
        pulled = _omega(_slots(f(rho)), _pushforward(f, rho, basis))
        assert np.max(np.abs(pulled + form)) < SYMPLECTIC_TOL
