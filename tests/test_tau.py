"""Tests for the section over the open simplex, fiber angle coordinates, and
the section-negation involution."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charvar.errors import FiberSolveFailure, PreconditionViolated
from charvar.flows import TorusElement, act
from charvar.polytope import M_P, STD_DELTA, mu_lambda
from charvar.repvar import Representation, class_equal, relation_residual
from charvar.su2 import haar_sample
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
        with pytest.raises(FiberSolveFailure):
            tau(rho)

    def test_returns_dataclass(self):
        fc = fiber_coordinates(section(np.array([0.3, 0.2, 0.2])))
        assert isinstance(fc, FiberCoordinates)


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------


class TestTau:
    def test_fixes_section_points(self):
        rng = np.random.default_rng(58)
        for x in interior_points(rng, 10):
            rho = section(x)
            assert class_equal(tau(rho), rho)

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
        rng = np.random.default_rng(62)
        x = interior_points(rng, 1)[0]
        s = section(x)
        # both kernel-orbit fibers are fixed...
        assert class_equal(tau(act(TorusElement.zero(), s)), s)
        rho_pi = act(TorusElement.kernel(), s)
        assert class_equal(tau(rho_pi), rho_pi)
        # ...and fibers away from them are moved
        for _ in range(10):
            t = TorusElement.from_array(rng.uniform(0, TWO_PI, 3))
            if float(t.kernel_distance()) < 1e-3:
                continue
            moved = act(t, s)
            assert not class_equal(tau(moved), moved)

    def test_full_fixed_set_is_the_two_torsion(self):
        # the previous test samples generic fibers, which are all moved; the
        # complete fixed set of angle negation is however the 2-torsion of
        # the quotient torus, which is strictly larger than the kernel orbit:
        # any t with 2t in the kernel gives -t == t on classes
        rng = np.random.default_rng(63)
        x = interior_points(rng, 1)[0]
        s = section(x)
        for t in (
            [np.pi, np.pi, 0.0],
            [np.pi, 0.0, 0.0],
            [np.pi / 2, np.pi / 2, np.pi / 2],
            [3 * np.pi / 2, np.pi / 2, np.pi / 2],
        ):
            rho = act(TorusElement.from_array(np.array(t)), s)
            assert class_equal(tau(rho), rho)
