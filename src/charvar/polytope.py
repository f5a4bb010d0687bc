# polytope.py
# The two moment tetrahedra and the maps into them.
#
#   TILDE_DELTA: conv{(0,0,0), (0,1,1), (1,0,1), (1,1,0)} -- the image of the
#     trace triple (f(a), f(b), f(ab)) of a pair, trace_triple; its boundary
#     is where the pair commutes.  Half-space form (derived from the
#     vertex set and certified against a hull oracle in the tests):
#         x1 + x2 - x3 >= 0,   x1 - x2 + x3 >= 0,
#        -x1 + x2 + x3 >= 0,   x1 + x2 + x3 <= 2.
#   STD_DELTA: the standard 3-simplex {x >= 0, x1+x2+x3 <= 1}.
#   HALF_STD_DELTA: (1/2) * STD_DELTA, the image polytope of the projective
#     reference moment map nu (which carries a factor-2 normalization; see
#     NU_NORMALIZATION_NOTE).
#
# The integer quotient matrix M_P maps STD_DELTA onto TILDE_DELTA, vertex to
# vertex; its inverse has denominator 2 and gives the closed form
#     mu_Lambda = ((f1-f2+f3)/2, (f1+f2-f3)/2, (-f1+f2+f3)/2).
#
# The moment map of a quadruple is the trace triple of (h1, h2).  Membership,
# region classification and boundary_commutation_check run over batches, with
# a tolerance that is one value or one per row; a non-finite point is outside.

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, Optional, TYPE_CHECKING

import numpy as np

from .errors import OutsidePolytope, PreconditionViolated, ZeroVector
from .su2 import GroupElement, commutator, distance, mul, trace_angle
from .tolerances import EPS_MAT, EPS_POLY

if TYPE_CHECKING:  # pragma: no cover
    from .repvar import Representation

# Machine-readable flag for the printed normalization of nu: its image is
# (1/2)*Delta, not Delta, so image-coincidence checks rescale by 2 and report
# this note instead of silently fixing the formula.
NU_NORMALIZATION_NOTE = (
    "nu image spans (1/2)*Delta; coincidence with the mu_Lambda image is "
    "checked after rescaling nu by 2 (printed factor-2 normalization "
    "discrepancy, flagged not fixed)"
)


class PolytopeTag(Enum):
    TILDE_DELTA = "tilde-delta"
    STD_DELTA = "delta"
    HALF_STD_DELTA = "half-delta"


class RegionKind(Enum):
    INTERIOR = "interior"
    FACE = "face"
    EDGE = "edge"
    VERTEX = "vertex"


@dataclass(frozen=True)
class Region:
    """Region of a point relative to a polytope: which constraints are active."""

    kind: RegionKind
    active: tuple[int, ...]

    @property
    def label(self) -> str:
        if self.kind is RegionKind.INTERIOR:
            return "interior"
        return f"{self.kind.value}({'|'.join(str(i) for i in self.active)})"


@dataclass(frozen=True)
class SimplexPoint:
    """A 3-vector tagged with its region relative to one of the polytopes."""

    x: np.ndarray
    region: Region
    polytope: PolytopeTag

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.shape != (3,):
            raise ValueError("SimplexPoint expects shape (3,)")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def is_interior(self) -> bool:
        return self.region.kind is RegionKind.INTERIOR

    @property
    def on_boundary(self) -> bool:
        return not self.is_interior


@dataclass(frozen=True)
class Polytope:
    """Closed convex polytope in half-space form A x <= b."""

    tag: PolytopeTag
    a: np.ndarray
    b: np.ndarray
    vertices: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "vertices"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def margin(self, x) -> np.ndarray:
        """max_i (A x - b)_i: <= 0 inside, grows linearly outside."""
        x = np.asarray(x, dtype=np.float64)
        return np.max(x @ self.a.T - self.b, axis=-1)

    def contains(self, x, tol: float = EPS_POLY) -> np.ndarray:
        return self.margin(x) <= tol

    def classify(self, x, tol: float = EPS_POLY) -> Optional[SimplexPoint]:
        """Region-classified point if inside the closed polytope, else None."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (3,):
            raise ValueError("classify expects a single 3-vector")
        return self.classify_rows(x[None], tol)[0]

    def classify_rows(
        self, x: np.ndarray, tol: float | np.ndarray = EPS_POLY
    ) -> list[Optional[SimplexPoint]]:
        """classify for each row of an (n, 3) array, computed as one batch; tol
        is one value or one per row.  As in contains, a row is inside only if
        its margin is <= tol, so a non-finite row is outside."""
        slack = x @ self.a.T - self.b
        tol = np.asarray(tol, dtype=np.float64)
        kinds = (RegionKind.INTERIOR, RegionKind.FACE, RegionKind.EDGE, *[RegionKind.VERTEX] * 2)
        outside = (~(np.max(slack, axis=-1) <= tol)).tolist()
        active = [tuple(np.flatnonzero(row).tolist()) for row in np.abs(slack) <= tol[..., None]]
        return [
            None if out else SimplexPoint(p, Region(kinds[len(on)], on), self.tag)
            for p, out, on in zip(x, outside, active)
        ]


TILDE_DELTA = Polytope(
    PolytopeTag.TILDE_DELTA,
    a=np.array(
        [
            [-1.0, -1.0, 1.0],
            [-1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0],
            [1.0, 1.0, 1.0],
        ]
    ),
    b=np.array([0.0, 0.0, 0.0, 2.0]),
    vertices=np.array(
        [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    ),
)

STD_DELTA = Polytope(
    PolytopeTag.STD_DELTA,
    a=np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [1.0, 1.0, 1.0],
        ]
    ),
    b=np.array([0.0, 0.0, 0.0, 1.0]),
    vertices=np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ),
)

HALF_STD_DELTA = Polytope(
    PolytopeTag.HALF_STD_DELTA,
    a=STD_DELTA.a,
    b=np.array([0.0, 0.0, 0.0, 0.5]),
    vertices=0.5 * STD_DELTA.vertices,
)


# ---------------------------------------------------------------------------
# quotient matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMatrix:
    """The integer matrix carrying STD_DELTA onto TILDE_DELTA (inverse has denominator 2)."""

    m: np.ndarray
    inv_numerator: np.ndarray
    denominator: int

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.m.T

    def apply_inverse(self, f) -> np.ndarray:
        return np.asarray(f, dtype=np.float64) @ self.inv_numerator.T / self.denominator


M_P = QuotientMatrix(
    m=np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64),
    inv_numerator=np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1]], dtype=np.int64),
    denominator=2,
)


# ---------------------------------------------------------------------------
# moment maps
# ---------------------------------------------------------------------------


def trace_triple(a: GroupElement, b: GroupElement) -> np.ndarray:
    """(f(a), f(b), f(ab)) of each pair as a raw (..., 3) array; its image is
    the closed TILDE_DELTA."""
    return np.stack([trace_angle(a), trace_angle(b), trace_angle(mul(a, b))], axis=-1)


def moment_coordinates(rho: "Representation") -> np.ndarray:
    """The trace triple (f(h1), f(h2), f(h1 h2)) of each quadruple."""
    return trace_triple(rho.h1, rho.h2)


def moment_points(
    rho: "Representation", tol: float | np.ndarray = EPS_POLY, quotient: bool = False
) -> Iterator[SimplexPoint]:
    """moment_mu, or with quotient mu_lambda, of each quadruple of a batch, in
    row-major order, computed as one batch; tol is one value or one per
    quadruple in that order.  OutsidePolytope at the first quadruple outside
    comes after the points before it."""
    coords = moment_coordinates(rho).reshape(-1, 3)
    poly, what = TILDE_DELTA, "moment triple {} violates the tetrahedron"
    if quotient:
        coords = M_P.apply_inverse(coords)
        poly, what = STD_DELTA, "quotient moment triple {} outside the simplex"
    for x, point in zip(coords, poly.classify_rows(coords, tol)):
        if point is None:
            raise OutsidePolytope(what.format(x))
        yield point


def moment_mu(rho: "Representation", tol: float = EPS_POLY) -> SimplexPoint:
    """The moment triple of trace angles, tagged in TILDE_DELTA.

    OutsidePolytope signals a numerical bug: the image of the moment map is
    the whole closed tetrahedron, never more.
    """
    if rho.batch_shape != ():
        raise ValueError("moment_mu expects a single representation")
    return next(moment_points(rho, tol))


def mu_lambda_coordinates(rho: "Representation") -> np.ndarray:
    """Closed form ((f1-f2+f3)/2, (f1+f2-f3)/2, (-f1+f2+f3)/2); batch-friendly."""
    return M_P.apply_inverse(moment_coordinates(rho))


def mu_lambda(rho: "Representation", tol: float = EPS_POLY) -> SimplexPoint:
    """The quotient moment map: inverse quotient matrix applied to moment_mu."""
    if rho.batch_shape != ():
        raise ValueError("mu_lambda expects a single representation")
    return next(moment_points(rho, tol, quotient=True))


def nu_P3(z, tol: float = EPS_POLY) -> SimplexPoint:
    """Reference moment map on nonzero complex 4-vectors, as printed:

        nu[z] = (|z_1|^2, |z_2|^2, |z_3|^2) / (2 |z|^2)

    (components 1..3 of z = (z_0, z_1, z_2, z_3)).  The image is
    HALF_STD_DELTA -- see NU_NORMALIZATION_NOTE for the factor-2 flag.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (4,):
        raise ValueError("nu_P3 expects a complex 4-vector")
    n2 = float(np.sum(np.abs(z) ** 2))
    if n2 == 0.0:
        raise ZeroVector("nu undefined at z = 0")
    val = np.abs(z[1:]) ** 2 / (2.0 * n2)
    point = HALF_STD_DELTA.classify(val, tol)
    if point is None:  # |z_i|^2 sum to at most |z|^2, so only a non-finite z
        raise PreconditionViolated(f"nu needs a finite z, got {z}")
    return point


def boundary_commutation_check(
    rho: "Representation",
    poly_tol: float | np.ndarray = EPS_POLY,
    mat_tol: float | np.ndarray = EPS_MAT,
) -> bool | np.ndarray:
    """(moment on the tetrahedron boundary) == (h1 and h2 commute), per
    quadruple of a batch; a bool for a single quadruple.  Each tolerance is
    one value or one per quadruple.  OutsidePolytope if a moment triple is
    outside the tetrahedron, as a non-finite one is."""
    poly_tol = np.broadcast_to(poly_tol, rho.batch_shape).ravel()
    on_boundary = [p.on_boundary for p in moment_points(rho, poly_tol)]
    commute = distance(commutator(rho.h1, rho.h2), GroupElement.identity()) < mat_tol
    out = np.reshape(on_boundary, rho.batch_shape) == commute
    return bool(out) if rho.batch_shape == () else out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_simplex_csv(points: Iterable[SimplexPoint], stream: IO[str]) -> int:
    """Write (x1, x2, x3, region, polytope) rows; returns the row count."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["x1", "x2", "x3", "region", "polytope"])
    n = 0
    for p in points:
        writer.writerow(
            ["%.17g" % p.x[0], "%.17g" % p.x[1], "%.17g" % p.x[2], p.region.label, p.polytope.value]
        )
        n += 1
    return n
