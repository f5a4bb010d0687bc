"""Tests for targeted sampling and the density-witness deformation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from charvar.errors import PreconditionViolated
from charvar.polytope import (
    STD_DELTA,
    RegionKind,
    TILDE_DELTA,
    boundary_commutation_check,
    moment_coordinates,
    mu_lambda,
)
from charvar.repvar import Representation, is_abelian, relation_residual
from charvar.sampler import (
    SampleSpec,
    _in_open_simplex,
    Target,
    density_witness,
    sample,
    sample_batches,
    strict_inclusion_witness,
)
from charvar.sigma import sigma_fixed_conjugator
from charvar.su2 import GroupElement, distance, exp_alg, AlgebraElement


def take(spec: SampleSpec) -> list[Representation]:
    return list(sample(spec))


def take_batch(spec: SampleSpec) -> Representation:
    """The whole stream of spec as one batch."""
    return Representation.from_slots(np.concatenate([b.slots() for b in sample_batches(spec)]))


def diag(theta: float) -> GroupElement:
    return exp_alg(AlgebraElement(np.array([0.0, 0.0, theta])))


class TestSampleSpec:
    def test_rejects_bad_count(self):
        with pytest.raises(PreconditionViolated):
            SampleSpec(count=0, seed=1, target=Target.VERTEX)

    def test_rejects_bad_seed(self):
        with pytest.raises(PreconditionViolated):
            SampleSpec(count=1, seed=-1, target=Target.VERTEX)
        with pytest.raises(PreconditionViolated):
            SampleSpec(count=1, seed=2**64, target=Target.VERTEX)

    def test_fixed_base_needs_interior_point(self):
        # a base point pins the interior target's base, and only there
        base = np.array([0.2, 0.3, 0.2])
        for target in set(Target) - {Target.INTERIOR_UNIFORM_BASE}:
            with pytest.raises(PreconditionViolated, match="pins the interior target, not"):
                SampleSpec(count=1, seed=1, target=target, base=base)
        with pytest.raises(PreconditionViolated):
            SampleSpec(
                count=1, seed=1, target=Target.INTERIOR_UNIFORM_BASE,
                base=np.array([0.0, 0.5, 0.5]),
            )
        SampleSpec(count=1, seed=1, target=Target.INTERIOR_UNIFORM_BASE, base=base)


_UNIT = st.floats(0.0, 1.0)
_NEAR_ONE = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))


def _margin_interior(x: list[float]) -> bool:
    return float(STD_DELTA.margin(np.array(x))) < 0.0


class TestOpenSimplexPredicate:
    """The interior sampler's scalar rejection test accepts exactly the
    points that STD_DELTA.margin(x) < 0.0 accepts."""

    @given(st.lists(_UNIT, min_size=3, max_size=3))
    @settings(deadline=None)
    def test_cube_points(self, x):
        assert _in_open_simplex(*x) is _margin_interior(x)

    @given(st.lists(_UNIT, min_size=2, max_size=2), st.integers(0, 2))
    @settings(deadline=None)
    def test_a_zero_component(self, rest, at):
        x = rest[:at] + [0.0] + rest[at:]
        assert not _in_open_simplex(*x)
        assert not _margin_interior(x)

    @given(
        st.floats(0.25, 0.5),
        st.floats(0.25, 0.5),
        st.sampled_from(_NEAR_ONE),
        st.permutations(range(3)),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_next_to_one(self, x1, x2, total, order):
        x3 = total - (x1 + x2)  # exact, since x1 + x2 lies in [0.5, 1]
        assert x1 + x2 + x3 == total
        x = [(x1, x2, x3)[i] for i in order]
        assert _in_open_simplex(*x) is _margin_interior(x)


class TestDeterminism:
    @pytest.mark.parametrize(
        "target", [Target.INTERIOR_UNIFORM_BASE, Target.BOUNDARY_EDGE, Target.ABELIAN_TORUS]
    )
    def test_same_seed_same_stream(self, target):
        spec = SampleSpec(count=5, seed=123, target=target, conjugate=True)
        first, second = take(spec), take(spec)
        for a, b in zip(first, second):
            for x, y in zip(a.elements(), b.elements()):
                assert np.array_equal(x.q, y.q)

    def test_different_seed_differs(self):
        a = take(SampleSpec(count=1, seed=1, target=Target.VERTEX))[0]
        b = take(SampleSpec(count=1, seed=2, target=Target.VERTEX))[0]
        assert not np.array_equal(a.g1.q, b.g1.q)


class TestInteriorTarget:
    def test_solutions_with_interior_moment(self):
        spec = SampleSpec(count=200, seed=11, target=Target.INTERIOR_UNIFORM_BASE)
        for rho in sample(spec):
            assert float(relation_residual(rho)) < 1e-9
            assert float(TILDE_DELTA.margin(moment_coordinates(rho))) < 0.0
            assert not is_abelian(rho)

    def test_conjugated_stream(self):
        spec = SampleSpec(count=50, seed=12, target=Target.INTERIOR_UNIFORM_BASE, conjugate=True)
        for rho in sample(spec):
            assert float(relation_residual(rho)) < 1e-9
            assert float(TILDE_DELTA.margin(moment_coordinates(rho))) < 0.0

    def test_never_sigma_fixed(self):
        spec = SampleSpec(count=100, seed=13, target=Target.INTERIOR_UNIFORM_BASE)
        hits = sum(1 for rho in sample(spec) if sigma_fixed_conjugator(rho)[1])
        assert hits == 0

    def test_fixed_base_pins_moment(self):
        base = np.array([0.25, 0.35, 0.2])
        spec = SampleSpec(
            count=40, seed=14, target=Target.INTERIOR_UNIFORM_BASE, base=base, conjugate=True
        )
        for rho in sample(spec):
            assert_allclose(mu_lambda(rho).x, base, atol=1e-7)


class TestBoundaryTargets:
    def test_face_samples(self):
        rho = take_batch(SampleSpec(count=400, seed=15, target=Target.BOUNDARY_FACE))
        assert np.all(is_abelian(rho))
        assert np.all(boundary_commutation_check(rho))
        seen = set()
        for point in TILDE_DELTA.classify(moment_coordinates(rho)):
            assert point.region.kind is RegionKind.FACE
            seen.add(point.region.active)
        # all four facets get visited
        assert seen == {(0,), (1,), (2,), (3,)}

    def test_edge_samples(self):
        rho = take_batch(SampleSpec(count=200, seed=16, target=Target.BOUNDARY_EDGE))
        assert float(np.max(relation_residual(rho))) < 1e-12
        assert np.array_equal(rho.h1.q, GroupElement.identity((200,)).q)
        assert np.all(boundary_commutation_check(rho))
        for sp in TILDE_DELTA.classify(moment_coordinates(rho)):
            assert sp.region.kind in (RegionKind.EDGE, RegionKind.VERTEX)
        nonabelian = int(np.count_nonzero(~is_abelian(rho)))
        assert nonabelian == 200  # a Haar g1 never lands on the g2 axis

    def test_edge_samples_are_irreducible_with_central_slot(self):
        # the boundary-face dichotomy: irreducible boundary classes carry a
        # central element among h1, h2, h1*h2
        spec = SampleSpec(count=100, seed=17, target=Target.BOUNDARY_EDGE, conjugate=True)
        for rho in sample(spec):
            traces = [abs(float(x.trace())) for x in (rho.h1, rho.h2, rho.h1 * rho.h2)]
            assert max(traces) > 2.0 - 1e-9

    def test_vertex_samples(self):
        spec = SampleSpec(count=100, seed=18, target=Target.VERTEX)
        one = GroupElement.identity()
        for rho in sample(spec):
            assert np.array_equal(rho.h1.q, one.q)
            assert np.array_equal(rho.h2.q, one.q)
            sp = TILDE_DELTA.classify(moment_coordinates(rho))
            assert sp.region.kind is RegionKind.VERTEX
            assert np.array_equal(sp.x, np.zeros(3))

    def test_abelian_samples(self):
        rho = take_batch(SampleSpec(count=100, seed=19, target=Target.ABELIAN_TORUS))
        assert np.all(is_abelian(rho))
        assert float(np.max(relation_residual(rho))) < 1e-15
        assert np.all(boundary_commutation_check(rho))


class TestDensityWitness:
    def abelian_start(self, rng) -> Representation:
        angles = rng.uniform(0.3, np.pi - 0.3, size=4)
        return Representation(*(diag(float(a)) for a in angles))

    def test_t_zero_is_identity_map(self):
        rho = self.abelian_start(np.random.default_rng(20))
        out = density_witness(rho, 0.0)
        for a, b in zip(out.elements(), rho.elements()):
            assert np.array_equal(a.q, b.q)

    def test_deforms_off_the_torus(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = self.abelian_start(rng)
            out = density_witness(rho, 0.5)
            assert not is_abelian(out)
            assert float(relation_residual(out)) < 1e-12

    def test_whole_path_nonabelian(self):
        rho = self.abelian_start(np.random.default_rng(22))
        for t in np.linspace(0.01, 1.0, 25):
            assert not is_abelian(density_witness(rho, float(t)))

    def test_small_t_stays_close(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = self.abelian_start(rng)
            out = density_witness(rho, 1e-4)
            worst = max(
                float(distance(a, b)) for a, b in zip(out.elements(), rho.elements())
            )
            assert worst < 1e-3

    def test_deterministic(self):
        rho = self.abelian_start(np.random.default_rng(24))
        a = density_witness(rho, 0.3)
        b = density_witness(rho, 0.3)
        for x, y in zip(a.elements(), b.elements()):
            assert np.array_equal(x.q, y.q)

    def test_preconditions(self):
        rng = np.random.default_rng(25)
        rho = self.abelian_start(rng)
        with pytest.raises(PreconditionViolated):
            density_witness(rho, -0.1)
        with pytest.raises(PreconditionViolated):
            density_witness(rho, 1.5)
        central = Representation(
            GroupElement.identity(), rho.h1, rho.g2, rho.h2
        )
        with pytest.raises(PreconditionViolated):
            density_witness(central, 0.5)
        from charvar.su2 import haar_sample

        nonab = Representation(
            haar_sample(rng), haar_sample(rng), rho.g2, rho.h2
        )
        with pytest.raises(PreconditionViolated):
            density_witness(nonab, 0.5)


class TestStrictInclusionWitness:
    def test_boundary_yet_irreducible(self):
        rho = strict_inclusion_witness()
        assert float(relation_residual(rho)) == 0.0
        assert not is_abelian(rho)
        sp = TILDE_DELTA.classify(moment_coordinates(rho))
        assert sp.region.kind is RegionKind.VERTEX
