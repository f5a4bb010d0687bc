"""Tests for the moment polytopes, the quotient matrix, and the moment maps.

The half-space form of the trace tetrahedron is *certified* against a convex
hull built independently from the vertex list (scipy oracle), not assumed.
The vertex bijection under the quotient matrix is checked in exact integer
arithmetic, and its inverse in exact rational arithmetic.
"""

from __future__ import annotations

import io
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from charvar.errors import OutsidePolytope, PreconditionViolated, ZeroVector
from charvar.polytope import (
    HALF_STD_DELTA,
    M_P,
    STD_DELTA,
    TILDE_DELTA,
    NU_NORMALIZATION_NOTE,
    PolytopeTag,
    RegionKind,
    boundary_commutation_check,
    moment_coordinates,
    moment_mu,
    mu_lambda,
    mu_lambda_coordinates,
    nu_P3,
    trace_triple,
    write_simplex_csv,
)
from charvar.repvar import Representation
from charvar.sampler import SampleSpec, Target, sample_batches
from charvar.su2 import GroupElement, exp_alg, AlgebraElement, haar_sample

DIAG_I = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))  # diag(i, -i)
J = GroupElement(np.array([0.0, -1.0, 0.0, 0.0]))  # [[0,-1],[1,0]]

PILLOW = Representation(DIAG_I, J, J, DIAG_I)
NAN = GroupElement(np.full(4, np.nan))


def diag(theta: float) -> GroupElement:
    return GroupElement(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)]))


def stack(*reps: Representation) -> Representation:
    """Single quadruples joined into one batch."""
    return Representation.from_slots(np.stack([r.slots() for r in reps]))


def one_by_one(rho: Representation, poly_tol, mat_tol) -> list:
    """boundary_commutation_check on each row alone, with that row's tolerances."""
    n = rho.batch_shape[0]
    poly_tol, mat_tol = np.broadcast_to(poly_tol, n), np.broadcast_to(mat_tol, n)
    return [
        boundary_commutation_check(rho[i], float(poly_tol[i]), float(mat_tol[i])) for i in range(n)
    ]


# ---------------------------------------------------------------------------
# half-space form vs hull oracle
# ---------------------------------------------------------------------------


class TestHullCertification:
    def test_tilde_delta_facets_match_hull(self):
        """Every facet plane of the hull oracle appears in our half-space rows."""
        hull = ConvexHull(TILDE_DELTA.vertices)
        # our rows, normalized to unit outward normal
        norms = np.linalg.norm(TILDE_DELTA.a, axis=1)
        ours = np.column_stack([TILDE_DELTA.a / norms[:, None], -TILDE_DELTA.b / norms])
        assert hull.equations.shape == ours.shape
        for eq in hull.equations:  # (n, c) with n.x + c <= 0 inside
            match = np.min(np.max(np.abs(ours - eq), axis=1))
            assert match < 1e-12, f"hull facet {eq} missing from half-space form"

    def test_tilde_delta_hull_vertices_are_ours(self):
        hull = ConvexHull(TILDE_DELTA.vertices)
        assert sorted(hull.vertices.tolist()) == [0, 1, 2, 3]

    def test_membership_agrees_with_hull_on_random_points(self):
        hull = ConvexHull(TILDE_DELTA.vertices)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.3, 1.3, size=(4000, 3))
        hull_margin = np.max(pts @ hull.equations[:, :3].T + hull.equations[:, 3], axis=1)
        clear = np.abs(hull_margin) > 1e-9  # skip the knife edge
        inside_hull = hull_margin[clear] <= 0
        inside_ours = TILDE_DELTA.contains(pts[clear], tol=0.0)
        assert np.array_equal(inside_hull, inside_ours)

    def test_std_delta_membership_agrees_with_hull(self):
        hull = ConvexHull(STD_DELTA.vertices)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.3, 1.1, size=(2000, 3))
        hull_margin = np.max(pts @ hull.equations[:, :3].T + hull.equations[:, 3], axis=1)
        clear = np.abs(hull_margin) > 1e-9
        assert np.array_equal(
            hull_margin[clear] <= 0, STD_DELTA.contains(pts[clear], tol=0.0)
        )


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------


class TestRegions:
    @pytest.mark.parametrize("v", TILDE_DELTA.vertices.tolist())
    def test_tilde_vertices_classify_as_vertices(self, v):
        p = TILDE_DELTA.classify(np.array(v))
        assert p is not None
        assert p.region.kind is RegionKind.VERTEX
        assert len(p.region.active) == 3
        assert p.polytope is PolytopeTag.TILDE_DELTA

    def test_barycenter_is_interior(self):
        p = TILDE_DELTA.classify(np.array([0.5, 0.5, 0.5]))
        assert p is not None and p.is_interior and p.region.active == ()
        assert p.region.label == "interior"

    def test_face_point(self):
        # centroid of the sum = 2 facet
        p = TILDE_DELTA.classify(np.array([2.0, 2.0, 2.0]) / 3.0)
        assert p is not None
        assert p.region.kind is RegionKind.FACE
        assert p.region.active == (3,)
        assert p.region.label == "face(3)"

    def test_edge_point(self):
        p = TILDE_DELTA.classify(np.array([0.0, 0.5, 0.5]))
        assert p is not None
        assert p.region.kind is RegionKind.EDGE
        assert p.region.active == (0, 1)

    def test_outside_returns_none(self):
        assert TILDE_DELTA.classify(np.array([1.0, 1.0, 1.0])) is None
        assert TILDE_DELTA.classify(np.array([-0.1, 0.5, 0.5])) is None
        assert STD_DELTA.classify(np.array([0.5, 0.5, 0.5])) is None

    def test_interior_classification_stable_under_small_perturbation(self):
        rng = np.random.default_rng(11)
        n = 0
        while n < 300:
            x = rng.uniform(0.0, 1.0, size=3)
            if TILDE_DELTA.margin(x) > -1e-3:  # stay out of the skin
                continue
            n += 1
            p = TILDE_DELTA.classify(x)
            assert p is not None and p.is_interior
            for _ in range(3):
                d = rng.normal(size=3)
                d *= (1e-10 / np.linalg.norm(d)) * rng.uniform(0.0, 1.0)
                q = TILDE_DELTA.classify(x + d)
                assert q is not None and q.is_interior

    def test_face_point_stable_under_small_perturbation(self):
        # activity tolerance (1e-9) absorbs shifts of eps/10 = 1e-10
        x = np.array([2.0, 2.0, 2.0]) / 3.0
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = rng.normal(size=3)
            d *= 1e-10 / np.linalg.norm(d)
            q = TILDE_DELTA.classify(x + d)
            assert q is not None
            assert q.region.active == (3,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_point_is_outside(self, bad):
        x = np.array([0.5, bad, 0.5])
        assert not TILDE_DELTA.contains(x)
        assert TILDE_DELTA.classify(x) is None
        assert TILDE_DELTA.classify(np.full(3, bad)) is None
        rows = TILDE_DELTA.classify_rows(np.array([[0.5, 0.5, 0.5], x]))
        assert rows[0].is_interior and rows[1] is None

    def test_per_row_tolerance(self):
        # points 3e-6 inside and 3e-6 outside the sum = 2 facet, each read at
        # a tight and at a loose tolerance
        x = np.repeat([2.0 - 3e-6, 2.0 - 3e-6, 2.0 + 3e-6, 2.0 + 3e-6], 3).reshape(4, 3) / 3.0
        tol = np.array([1e-9, 1e-5, 1e-9, 1e-5])
        got = TILDE_DELTA.classify_rows(x, tol)
        assert [p and p.region.label for p in got] == ["interior", "face(3)", None, "face(3)"]
        for row, t, p in zip(x, tol, got):
            q = TILDE_DELTA.classify(row, t)
            assert (p and p.region) == (q and q.region)

    def test_margin_batched(self):
        pts = np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        m = TILDE_DELTA.margin(pts)
        assert m.shape == (3,)
        assert m[0] < 0 and m[1] == 0 and m[2] > 0


# ---------------------------------------------------------------------------
# quotient matrix: exact arithmetic
# ---------------------------------------------------------------------------


class TestQuotientMatrix:
    def test_inverse_is_exact_in_integers(self):
        prod = M_P.m @ M_P.inv_numerator
        assert np.array_equal(prod, M_P.denominator * np.eye(3, dtype=np.int64))
        prod2 = M_P.inv_numerator @ M_P.m
        assert np.array_equal(prod2, M_P.denominator * np.eye(3, dtype=np.int64))

    def test_vertex_bijection_exact_integers(self):
        delta_verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        tilde_verts = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        images = set()
        for v in delta_verts:
            img = tuple(int(c) for c in M_P.m @ np.array(v, dtype=np.int64))
            assert img in tilde_verts
            images.add(img)
        assert images == tilde_verts  # bijective, not merely into

    def test_apply_inverse_matches_rational_oracle(self):
        # exact rational arithmetic on dyadic inputs
        f = (Fraction(1, 2), Fraction(3, 8), Fraction(7, 16))
        inv = [[Fraction(n, 2) for n in row] for row in M_P.inv_numerator.tolist()]
        oracle = [sum(inv[i][j] * f[j] for j in range(3)) for i in range(3)]
        ours = M_P.apply_inverse(np.array([float(c) for c in f]))
        assert_allclose(ours, [float(c) for c in oracle], rtol=0, atol=1e-16)

    def test_apply_inverse_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.uniform(0.0, 1.0, size=3)
            closed = 0.5 * np.array(
                [f[0] - f[1] + f[2], f[0] + f[1] - f[2], -f[0] + f[1] + f[2]]
            )
            assert_allclose(M_P.apply_inverse(f), closed, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("apply", ["apply", "apply_inverse"])
    def test_batch_rows_are_single_calls(self, apply):
        # the batched section and suites rely on the matrix products of a
        # batch equalling the row-by-row products bit for bit
        f = np.random.default_rng(5).uniform(0.0, 1.0, size=(2000, 3))
        batch = getattr(M_P, apply)(f)
        rows = np.array([getattr(M_P, apply)(x) for x in f])
        assert np.array_equal(batch.view(np.int64), rows.view(np.int64))

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(0.0, 1.0, size=(50, 3))
        assert_allclose(M_P.apply(M_P.apply_inverse(f)), f, rtol=0, atol=1e-15)
        assert_allclose(M_P.apply_inverse(M_P.apply(f)), f, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# moment maps
# ---------------------------------------------------------------------------


class TestMomentMaps:
    def test_central_h_slots_hit_far_vertex_exactly(self):
        g = haar_sample(np.random.default_rng(5))
        minus = GroupElement.minus_identity()
        rho = Representation(g, minus, g, minus)
        p = moment_mu(rho)
        assert np.array_equal(p.x, [1.0, 1.0, 0.0])
        assert p.region.kind is RegionKind.VERTEX

    def test_pillow_moment_frozen_value(self):
        # computed once from the quaternion product J * diag(i,-i) = e_y
        # (all three trace angles are 1/2) and frozen here
        p = moment_mu(PILLOW)
        assert_allclose(p.x, [0.5, 0.5, 0.5], rtol=0, atol=0)
        assert p.is_interior

    def test_pillow_mu_lambda_frozen_value(self):
        p = mu_lambda(PILLOW)
        assert_allclose(p.x, [0.25, 0.25, 0.25], rtol=0, atol=0)
        assert p.is_interior
        assert p.polytope is PolytopeTag.STD_DELTA

    def test_commuting_diagonals_land_on_boundary(self):
        rho = Representation(diag(1.0), diag(0.3 * np.pi), diag(1.0), diag(0.5 * np.pi))
        p = moment_mu(rho)
        assert_allclose(p.x, [0.3, 0.5, 0.8], atol=1e-15)
        assert p.region.kind is RegionKind.FACE
        assert p.region.active == (0,)

    def test_commuting_diagonals_wraparound_far_face(self):
        rho = Representation(diag(1.0), diag(0.7 * np.pi), diag(1.0), diag(0.8 * np.pi))
        p = moment_mu(rho)
        assert_allclose(p.x, [0.7, 0.8, 0.5], atol=1e-14)
        assert p.region.active == (3,)

    def test_moment_coordinates_batched(self):
        rng = np.random.default_rng(6)
        rho = Representation(
            haar_sample(rng, (100,)),
            haar_sample(rng, (100,)),
            haar_sample(rng, (100,)),
            haar_sample(rng, (100,)),
        )
        coords = moment_coordinates(rho)
        assert coords.shape == (100, 3)
        assert np.all(TILDE_DELTA.contains(coords))
        lam = mu_lambda_coordinates(rho)
        assert np.all(STD_DELTA.contains(lam))

    def test_outside_polytope_error_path(self):
        # valid quadruples never leave the tetrahedron, so drive the error
        # branch by shrinking the membership tolerance below the (negative)
        # interior margin
        with pytest.raises(OutsidePolytope):
            moment_mu(PILLOW, tol=-0.6)
        with pytest.raises(OutsidePolytope):
            mu_lambda(PILLOW, tol=-0.3)
        assert STD_DELTA.classify(np.array([0.6, 0.6, 0.6])) is None

    def test_non_finite_quadruple_is_outside(self):
        rho = Representation(DIAG_I, NAN, J, DIAG_I)
        with pytest.raises(OutsidePolytope):
            moment_mu(rho)
        with pytest.raises(OutsidePolytope):
            mu_lambda(rho)
        with pytest.raises(OutsidePolytope):
            boundary_commutation_check(rho)


# ---------------------------------------------------------------------------
# the trace triple of a pair
# ---------------------------------------------------------------------------


class TestTraceTriple:
    def test_identity_pair_hits_origin_vertex(self):
        one = GroupElement.identity()
        p = TILDE_DELTA.classify(trace_triple(one, one))
        assert np.array_equal(p.x, [0.0, 0.0, 0.0])
        assert p.region.kind is RegionKind.VERTEX

    def test_minus_identity_pair_hits_far_vertex(self):
        m = GroupElement.minus_identity()
        p = TILDE_DELTA.classify(trace_triple(m, m))
        assert np.array_equal(p.x, [1.0, 1.0, 0.0])
        assert p.region.kind is RegionKind.VERTEX

    def test_commuting_pair_on_boundary(self):
        p = TILDE_DELTA.classify(trace_triple(diag(0.3 * np.pi), diag(0.5 * np.pi)))
        assert p.on_boundary

    def test_generic_pairs_interior(self):
        rng = np.random.default_rng(20)
        inside = 0
        for _ in range(500):
            p = TILDE_DELTA.classify(trace_triple(haar_sample(rng), haar_sample(rng)))
            if p.is_interior:
                inside += 1
        assert inside == 500

    def test_is_moment_coordinates_bitwise(self):
        rng = np.random.default_rng(21)
        rho = Representation(*(haar_sample(rng, (200,)) for _ in range(4)))
        got = trace_triple(rho.h1, rho.h2)
        assert got.shape == (200, 3)
        assert np.array_equal(got.view(np.int64), moment_coordinates(rho).view(np.int64))
        assert np.array_equal(
            trace_triple(rho.h1[7], rho.h2[7]).view(np.int64), got[7].view(np.int64)
        )


# ---------------------------------------------------------------------------
# nu on the projective reference space
# ---------------------------------------------------------------------------


class TestNu:
    def test_basis_vectors(self):
        p0 = nu_P3(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        assert np.array_equal(p0.x, [0.0, 0.0, 0.0])
        p1 = nu_P3(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
        assert np.array_equal(p1.x, [0.5, 0.0, 0.0])
        assert p1.region.kind is RegionKind.VERTEX
        assert p1.polytope is PolytopeTag.HALF_STD_DELTA

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        assert_allclose(nu_P3(3.7 * z).x, nu_P3(z).x, atol=1e-15)
        assert_allclose(nu_P3(phases * z).x, nu_P3(z).x, atol=1e-15)

    def test_image_fills_half_simplex_not_full(self):
        rng = np.random.default_rng(10)
        zs = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
        tops = []
        for z in zs:
            p = nu_P3(z)
            assert p.polytope is PolytopeTag.HALF_STD_DELTA
            tops.append(float(np.sum(p.x)))
        # the sum approaches 1/2 (z_0 -> 0) but never exceeds it
        assert max(tops) <= 0.5 + 1e-15
        assert max(tops) > 0.45
        assert "factor-2" in NU_NORMALIZATION_NOTE

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            nu_P3(np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_vector_raises(self, bad):
        with pytest.raises(PreconditionViolated):
            nu_P3(np.array([1.0, bad, 0.0, 0.0], dtype=complex))


# ---------------------------------------------------------------------------
# boundary <-> commutation
# ---------------------------------------------------------------------------


class TestBoundaryCommutation:
    def test_commuting_pair_on_boundary(self):
        rho = Representation(diag(0.2), diag(0.9), diag(0.2), diag(1.7))
        assert boundary_commutation_check(rho)

    def test_generic_pair_interior(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = Representation(
                haar_sample(rng), haar_sample(rng), haar_sample(rng), haar_sample(rng)
            )
            assert boundary_commutation_check(rho)

    def test_near_boundary_matched_tolerances(self):
        # tiny non-commutation displaces the moment off the boundary by a
        # comparably tiny amount: the check stays consistent when both
        # tolerances are loosened together
        rng = np.random.default_rng(14)
        for _ in range(50):
            eps = 10.0 ** rng.uniform(-7, -5)
            bump = exp_alg(AlgebraElement(eps * np.array([1.0, 0.0, 0.0])))
            rho = Representation(diag(0.2), diag(1.1), diag(0.2), bump * diag(0.4))
            assert boundary_commutation_check(rho, poly_tol=10 * eps, mat_tol=10 * eps)

    @staticmethod
    def near_boundary(rng, n: int) -> tuple[Representation, np.ndarray]:
        """n quadruples of the construction above, eps from 1e-8 to 1e-4."""
        eps = 10.0 ** rng.uniform(-8, -4, size=n)
        bumps = (exp_alg(AlgebraElement(e * np.array([1.0, 0.0, 0.0]))) for e in eps)
        rows = (Representation(diag(0.2), diag(1.1), diag(0.2), b * diag(0.4)) for b in bumps)
        return stack(*rows), eps

    def test_single_quadruple_gives_bool(self):
        assert boundary_commutation_check(PILLOW) is True

    def test_batch_of_any_shape(self):
        rng = np.random.default_rng(18)
        rho = Representation(*(haar_sample(rng, (4, 5)) for _ in range(4)))
        mat_tol = 10.0 ** rng.uniform(-12, -6, size=(4, 5))
        got = boundary_commutation_check(rho, np.full((4, 5), 1e-9), mat_tol)
        assert got.shape == (4, 5)
        for i in range(4):
            assert got[i].tolist() == one_by_one(rho[i], 1e-9, mat_tol[i])

    def test_batch_rows_equal_single_calls_near_boundary(self):
        rho, eps = self.near_boundary(np.random.default_rng(15), 200)
        got = boundary_commutation_check(rho, 1e-6, 3e-7)
        assert got.shape == (200,) and got.dtype == bool
        assert got.tolist() == one_by_one(rho, 1e-6, 3e-7)
        assert 0 < np.count_nonzero(got) < 200  # both outcomes occur
        got = boundary_commutation_check(rho, poly_tol=10 * eps, mat_tol=10 * eps)
        assert got.tolist() == one_by_one(rho, 10 * eps, 10 * eps)
        assert np.all(got)

    def test_batch_rows_equal_single_calls_interior(self):
        spec = SampleSpec(count=100, seed=16, target=Target.INTERIOR_UNIFORM_BASE, conjugate=True)
        rho = next(sample_batches(spec))
        assert boundary_commutation_check(rho).tolist() == one_by_one(rho, 1e-9, 1e-9)
        poly_tol, mat_tol = 10.0 ** np.random.default_rng(17).uniform(-12, -6, size=(2, 100))
        got = boundary_commutation_check(rho, poly_tol, mat_tol)
        assert got.tolist() == one_by_one(rho, poly_tol, mat_tol)
        assert np.all(got)

    def test_batch_with_a_row_outside_raises(self):
        rho = stack(PILLOW, PILLOW, PILLOW)
        assert np.all(boundary_commutation_check(rho))
        with pytest.raises(OutsidePolytope):
            boundary_commutation_check(rho, poly_tol=np.array([1e-9, -0.6, 1e-9]))
        with pytest.raises(OutsidePolytope):
            boundary_commutation_check(stack(PILLOW, Representation(NAN, NAN, NAN, NAN), PILLOW))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


class TestCsv:
    def test_round_trip(self):
        pts = [
            TILDE_DELTA.classify(np.array([0.5, 0.5, 0.5])),
            TILDE_DELTA.classify(np.array([2.0 / 3, 2.0 / 3, 2.0 / 3])),
            STD_DELTA.classify(np.array([0.0, 0.0, 0.0])),
        ]
        buf = io.StringIO()
        n = write_simplex_csv(pts, buf)
        assert n == 3
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x1,x2,x3,region,polytope"
        import csv as _csv

        rows = list(_csv.reader(lines[1:]))
        assert [float(c) for c in rows[0][:3]] == [0.5, 0.5, 0.5]
        assert rows[0][3] == "interior" and rows[0][4] == "tilde-delta"
        assert rows[1][3] == "face(3)"
        assert rows[2][3] == "vertex(0|1|2)" and rows[2][4] == "delta"
        # %.17g survives the float round trip exactly
        assert float(rows[1][0]) == 2.0 / 3
