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
# Every region read starts from one pair of masks, Polytope._region_masks.
# Polytope.classify takes one point or an (n, 3) array; moment_mu and
# mu_lambda return one SimplexPoint for a single quadruple and the list of the
# points of a batch, in row-major order, and refuse a batch with a point
# outside whole, naming its row.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Optional, TYPE_CHECKING

import numpy as np

from .errors import OutsidePolytope, PreconditionViolated, ZeroVector, _raise_first
from .su2 import GroupElement, _blockwise, _qmul, _split, _trace_angle, commutator, distance
from .tolerances import EPS_MAT, EPS_POLY

if TYPE_CHECKING:  # pragma: no cover
    from .repvar import Representation

__all__ = [
    "Polytope",
    "PolytopeTag",
    "Region",
    "RegionKind",
    "SimplexPoint",
    "QuotientMatrix",
    "TILDE_DELTA",
    "STD_DELTA",
    "HALF_STD_DELTA",
    "M_P",
    "NU_NORMALIZATION_NOTE",
    "moment_coordinates",
    "moment_mu",
    "mu_lambda_coordinates",
    "mu_lambda",
    "nu_P3",
    "trace_triple",
    "boundary_commutation_check",
    "write_simplex_csv",
]

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


# the region of each bitmask of active constraints (RegionKind in order, 3 or 4: a vertex)
_ACTIVE = [tuple(i for i in range(4) if m >> i & 1) for m in range(16)]
_REGIONS = [Region(list(RegionKind)[min(len(on), 3)], on) for on in _ACTIVE]


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

    def _region_masks(
        self, x: np.ndarray, tol: float | np.ndarray = EPS_POLY
    ) -> tuple[np.ndarray, np.ndarray]:
        """Region masks of the rows of a (..., 3) array: outside (margin not <= tol,
        so a non-finite row is outside) and active, (..., constraints) within tol
        of equality.  tol is one value or one per row; interior = no active."""
        slack = x @ self.a.T - self.b
        tol = np.asarray(tol, dtype=np.float64)
        return ~(np.max(slack, axis=-1) <= tol), np.abs(slack) <= tol[..., None]

    def classify(
        self, x, tol: float | np.ndarray = EPS_POLY
    ) -> Optional[SimplexPoint] | list[Optional[SimplexPoint]]:
        """The region-classified point of a 3-vector inside the closed
        polytope, else None; for an (n, 3) array the list of them, one per
        row, with tol one value or one per row.  Read from _region_masks."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (3,) and (x.ndim != 2 or x.shape[1] != 3):
            raise ValueError("classify expects a 3-vector or an (n, 3) array")
        rows = x.reshape(-1, 3)
        outside, active = self._region_masks(rows, tol)
        points = [
            None if out else SimplexPoint(p, _REGIONS[mask], self.tag)
            for p, out, mask in zip(rows, outside.tolist(), (active @ (1, 2, 4, 8)).tolist())
        ]
        return points[0] if x.ndim == 1 else points


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


def _trace_triple(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """trace_triple on quaternion arrays a, b of shape (..., 4); the scalar
    part of ab is that of mul(a, b)."""
    ab_w = _qmul(_split(a), _split(b))[0]
    return np.stack([_trace_angle(w) for w in (a[..., 0], b[..., 0], ab_w)], axis=-1)


def trace_triple(a: GroupElement, b: GroupElement) -> np.ndarray:
    """(f(a), f(b), f(ab)) of each pair as a raw (..., 3) array; its image is
    the closed TILDE_DELTA."""
    return _trace_triple(a.q, b.q)


def moment_coordinates(rho: "Representation") -> np.ndarray:
    """The trace triple (f(h1), f(h2), f(h1 h2)) of each quadruple."""
    return _blockwise(_trace_triple, (rho.batch_shape,), rho.h1.q, rho.h2.q)


_OUTSIDE = {
    PolytopeTag.TILDE_DELTA: "moment triple violates the tetrahedron",
    PolytopeTag.STD_DELTA: "quotient moment triple outside the simplex",
}


def _points(rho: "Representation", coords: np.ndarray, poly: Polytope, tol):
    """The points in poly of coords, one (n, 3) row per quadruple of rho: a
    SimplexPoint for a single quadruple, else their list in row-major order.
    OutsidePolytope, naming the quadruple, if one is outside."""
    points = poly.classify(coords, tol)
    outside = np.array([point is None for point in points]).reshape(rho.batch_shape)
    _raise_first((outside, OutsidePolytope, _OUTSIDE[poly.tag], coords.reshape(*outside.shape, 3)))
    return points[0] if rho.batch_shape == () else points


def moment_mu(
    rho: "Representation", tol: float | np.ndarray = EPS_POLY
) -> SimplexPoint | list[SimplexPoint]:
    """The moment triple of trace angles, tagged in TILDE_DELTA: a SimplexPoint
    for a single quadruple, the list of a batch's points in row-major order,
    with tol one value or one per quadruple in that order.

    OutsidePolytope signals a numerical bug: the image of the moment map is
    the whole closed tetrahedron, never more.
    """
    return _points(rho, moment_coordinates(rho).reshape(-1, 3), TILDE_DELTA, tol)


def mu_lambda_coordinates(rho: "Representation") -> np.ndarray:
    """Closed form ((f1-f2+f3)/2, (f1+f2-f3)/2, (-f1+f2+f3)/2); batch-friendly."""
    return M_P.apply_inverse(moment_coordinates(rho))


def mu_lambda(
    rho: "Representation", tol: float | np.ndarray = EPS_POLY
) -> SimplexPoint | list[SimplexPoint]:
    """The quotient moment map, the inverse quotient matrix applied to the
    moment triple, tagged in STD_DELTA; single quadruples and batches as in
    moment_mu."""
    return _points(rho, M_P.apply_inverse(moment_coordinates(rho).reshape(-1, 3)), STD_DELTA, tol)


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
    coords = moment_coordinates(rho)
    outside, active = TILDE_DELTA._region_masks(coords, np.broadcast_to(poly_tol, rho.batch_shape))
    _raise_first((outside, OutsidePolytope, "moment triple violates the tetrahedron", coords))
    commute = distance(commutator(rho.h1, rho.h2), GroupElement.identity()) < mat_tol
    out = np.any(active, axis=-1) == commute
    return bool(out) if rho.batch_shape == () else out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


# Labels and tags hold no comma, quote or newline, so no field needs quoting.
_CSV_HEADER, _CSV_ROW = "x1,x2,x3,region,polytope\n", "%.17g,%.17g,%.17g,%s,%s\n"
_LABELS = [region.label for region in _REGIONS]


def write_simplex_csv(points: Iterable[SimplexPoint], stream: IO[str]) -> int:
    """Write (x1, x2, x3, region, polytope) rows; returns the row count."""
    stream.write(_CSV_HEADER)
    n = 0
    for n, p in enumerate(points, 1):
        stream.write(_CSV_ROW % (*p.x.tolist(), p.region.label, p.polytope.value))
    return n


def _moment_rows(f: np.ndarray, quotient: bool, tol: float) -> str:
    """The rows write_simplex_csv writes of the moment_mu (with quotient, mu_lambda)
    points of the moment triples f (n, 3) at tol; OutsidePolytope at the first outside."""
    x, poly = (M_P.apply_inverse(f), STD_DELTA) if quotient else (f, TILDE_DELTA)
    outside, active = poly._region_masks(x, tol)
    _raise_first((outside, OutsidePolytope, _OUTSIDE[poly.tag], x))
    rows, tag = zip(x.tolist(), (active @ (1, 2, 4, 8)).tolist()), poly.tag.value
    return "".join(_CSV_ROW % (*p, _LABELS[mask], tag) for p, mask in rows)
