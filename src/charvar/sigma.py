# sigma.py
# The swap involution on quadruples,
#
#     sigma: (g1, h1, g2, h2) -> (h2, g2, h1, g1),
#
# which preserves the surface relation ([h2,g2][h1,g1] = ([g1,h1][g2,h2])^{-1}
# read backwards), together with detection and classification of its fixed
# classes.  A class is sigma-fixed when some k conjugates the quadruple to its
# swap; the fixed set decomposes into
#
#   N1 ("[g1,h1] != 1"): the solid pillow of swap quadruples (g,h,h,g), a
#       second solid piece (g,h,khk^{-1},kgk^{-1}) with k^2 = -1, and over the
#       commutator trace -2 locus an RP^2 of classes;
#   N2 ("[g1,h1] = 1"): arcs k(alpha) joining the two solid pieces' surfaces,
#       parametrized here by the explicit pure-imaginary path
#       k(alpha) = (0, sin a, 0, cos a), alpha in [0, pi/2].
#
# Strata label the stabilizer of the quadruple: I = center, II = torus,
# III = all of SU(2).  The stratum is always reported from the stabilizer type;
# note the arcs have torus stabilizer only at their endpoints (the interior
# of an arc uses two distinct axes), so interval interiors report stratum I.
#
# Stored conjugators are canonicalized: pieces that admit a pure-imaginary
# conjugator (the N2 pieces and the central vertex) store one with w = 0
# exactly, hence k^2 = -1 exactly; elsewhere the sign is fixed by making the
# largest-magnitude component positive.
#
# Fixedness is one batched read, sigma_fixed_conjugator: one conjugator
# solve, each row's residual read against the caller's tolerance.  The
# classification, classify_fixed_point, reads a quadruple or a batch of any
# shape into arrays of strata and pieces, and refuses a batch at its first
# unclassifiable row; its N2 rows take their pure-imaginary conjugators from
# the same system with the w column dropped.
# Everything else runs over batches too.  Every solve computes each row as if
# alone, so independent decisions on different rows are one call over the
# rows stacked by _stacked: the two surface reads of the N2 rows, and the
# fixedness and pair reads of certify_interval_injectivity.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ClassificationAmbiguity, PreconditionViolated, _raise_first
from .repvar import Representation, _class_equal, _unit_slots, relation_residual
from .su2 import (
    GroupElement,
    StabilizerType,
    _conjugation_system,
    _snap_trig,
    commutator,
    conjugate,
    distance,
    find_conjugator,
    mul,
    stabilizer_type,
)
from .tolerances import EPS_CENTER, EPS_MAT, EPS_REL

__all__ = [
    "Stratum",
    "Piece",
    "SigmaFixedPoint",
    "DIAG_I",
    "InjectivityReport",
    "J",
    "sigma",
    "sigma_fixed_conjugator",
    "classify_fixed_point",
    "pillow_point",
    "blowup_point",
    "rp2_fiber_point",
    "n2_interval",
    "certify_interval_injectivity",
]

DIAG_I = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))  # diag(i, -i)
J = GroupElement(np.array([0.0, -1.0, 0.0, 0.0]))  # [[0, -1], [1, 0]]


class Stratum(Enum):
    I = "I"
    II = "II"
    III = "III"


class Piece(Enum):
    PILLOW_INTERIOR = "pillow-interior"
    BLOWUP_INTERIOR = "blowup-interior"
    RP2_FIBER = "rp2-fiber"
    INTERVAL_INTERIOR = "interval-interior"
    PILLOW_SURFACE = "pillow-surface"
    INTERVAL_ENDPOINT = "interval-endpoint"
    CENTRAL_VERTEX = "central-vertex"


_STRATUM_OF = {
    StabilizerType.CENTER: Stratum.I,
    StabilizerType.TORUS: Stratum.II,
    StabilizerType.FULL: Stratum.III,
}


@dataclass(frozen=True)
class SigmaFixedPoint:
    """Sigma-fixed classes with their witnessing conjugators and locations: a Stratum
    and a Piece for a single quadruple, object arrays of its shape for a batch."""

    rep: Representation
    conjugator: GroupElement
    stratum: Stratum | np.ndarray
    piece: Piece | np.ndarray


def sigma(rho: Representation) -> Representation:
    """The swap (g1,h1,g2,h2) -> (h2,g2,h1,g1); batch-friendly.

    Preserves the relation, so a residual of EPS_REL or more on the output
    means the input was off the relation manifold to begin with."""
    swapped = Representation(rho.h2, rho.g2, rho.h1, rho.g1)
    res = relation_residual(swapped)
    _raise_first((~(res < EPS_REL), PreconditionViolated,  # a non-finite row fails too
                  "sigma input violates the relation; output residual", res))
    return swapped


def _stacked(*reps: Representation) -> Representation:
    """The quadruples of flat batches, one batch after another, as one flat
    batch: one call decides them all, and each caller splits the result."""
    return Representation.from_slots(np.concatenate([rho.slots() for rho in reps]))


def _sign_canonical(k: GroupElement) -> GroupElement:
    """k, each row's sign chosen to make its largest-magnitude component positive."""
    lead = np.take_along_axis(k.q, np.argmax(np.abs(k.q), axis=-1)[..., None], axis=-1)
    return GroupElement(np.where(lead < 0, -k.q, k.q))


def _fixedness_solve(rho: Representation) -> tuple[Representation, GroupElement, np.ndarray]:
    """The swap of each quadruple, the sign-canonical candidate k for
    k rho k^{-1} = sigma(rho), and its worst slot residual: one sigma and one
    conjugator solve over the batch, read by each caller against its own
    tolerance."""
    swapped = sigma(rho)
    k, worst = find_conjugator(GroupElement(rho.slots()), GroupElement(swapped.slots()))
    return swapped, _sign_canonical(k), worst


def sigma_fixed_conjugator(
    rho: Representation, tol: float = EPS_MAT
) -> tuple[GroupElement, bool | np.ndarray]:
    """(k, fixed) for each quadruple: its sign-canonical candidate k for
    k rho k^{-1} = sigma(rho), and whether k conjugates it to its swap (worst
    residual below tol), a bool for a single quadruple.  Row i of a batch is
    bit for bit the read of quadruple i alone.  Works for abelian quadruples
    too (the nullspace solve decides either way); pieces that need a
    pure-imaginary representative get one in classify_fixed_point."""
    _, k, worst = _fixedness_solve(rho)
    fixed = worst < tol
    return k, bool(fixed) if rho.batch_shape == () else fixed


def _pure_imaginary_conjugators(
    rho: Representation, swapped: Representation, k: GroupElement, tol: float
) -> GroupElement:
    """Each row's w = 0 conjugator onto its swap where one exists, else its k:
    the smallest right singular vector of the conjugation system without its
    w column, kept where its worst slot residual is below tol."""
    system = _conjugation_system(rho.slots(), swapped.slots())[..., 1:]
    vt = np.linalg.svd(system, full_matrices=False)[2]
    pure = np.concatenate((np.zeros(vt.shape[:-2] + (1,)), vt[..., -1, :]), axis=-1)
    pure = _sign_canonical(GroupElement(pure))
    found = rho.conjugated(pure).slot_distance(swapped) < tol
    return GroupElement(np.where(found[..., None], pure.q, k.q))


def classify_fixed_point(rho: Representation, tol: float = EPS_MAT) -> SigmaFixedPoint:
    """The points of a quadruple or a batch of any shape in the stratum/piece
    decomposition: one SigmaFixedPoint whose conjugator, stratum and piece have the
    batch's shape (a Stratum and a Piece for a single quadruple), row i bit for bit
    the point of quadruple i alone.  One swap and one conjugator solve, one
    stabilizer, [g1,h1] and k^2 read, and on the N2 rows one pure-imaginary solve and
    one class-equality call for both surfaces.  The first row not fixed at 10*tol
    (PreconditionViolated) or with a deciding residual in the gray zone [tol, 10*tol)
    (ClassificationAmbiguity) refuses the batch, by that row's first failing check: such
    points are reported, never guessed.  A quadruple off the relation fails in sigma."""
    flat = Representation.from_slots(rho.slots().reshape(-1, 4, 4))
    swapped, k, worst = _fixedness_solve(flat)
    strata = stabilizer_type(GroupElement(flat.slots()), axis_tol=tol)
    comm = commutator(flat.g1, flat.h1)
    comm_dist = distance(comm, GroupElement.identity())
    tr_dist = np.abs(comm.trace() + 2.0)
    # on N1, k^2 is central, and k = +-1 exactly when the class sits on the swap pillow
    k2 = mul(k, k)
    d_plus, d_minus = distance(k2, GroupElement.identity()), distance(k2, -GroupElement.identity())
    full, pillow = strata == StabilizerType.FULL, d_plus < d_minus  # full: stratum III
    n1 = ~full & ~(comm_dist < 10 * tol)  # [g1,h1] != 1, past its gray zone
    residuals = np.stack((worst, comm_dist, tr_dist))
    worst_gray, comm_gray, tr_gray = (tol <= residuals) & (residuals < 10 * tol)
    shape = rho.batch_shape
    _raise_first(*((bad.reshape(shape), error, what, values.reshape(shape + values.shape[1:]))
                   for bad, error, what, values in (  # a row's order; a NaN is not fixed
        (worst_gray, ClassificationAmbiguity, "sigma-fixedness residual in the gray zone", worst),
        (~(worst < tol), PreconditionViolated, "class is not sigma-fixed; residual", worst),
        (~full & comm_gray, ClassificationAmbiguity,
         "[g1,h1] centrality residual in the gray zone", comm_dist),
        (n1 & (np.minimum(d_plus, d_minus) >= EPS_CENTER), ClassificationAmbiguity,
         "k^2 is not numerically central; distances to 1 and -1", np.stack((d_plus, d_minus), -1)),
        (n1 & ~pillow & tr_gray, ClassificationAmbiguity,
         "tr[g1,h1] = -2 residual in the gray zone", tr_dist))))
    # every row is fixed: the central vertices, the N2 arcs between the two surfaces, and N1
    n2 = ~full & (comm_dist < tol)
    piece = np.where(tr_dist < tol, Piece.RP2_FIBER, Piece.BLOWUP_INTERIOR)
    piece[pillow], piece[full] = Piece.PILLOW_INTERIOR, Piece.CENTRAL_VERTEX
    q = np.where(full[:, None], DIAG_I.q, k.q)
    if n2.any():  # the pure solve and the surface reads, skipped on batches without an N2 row
        arc = flat[n2]
        q[n2] = _pure_imaginary_conjugators(arc, swapped[n2], k[n2], tol).q
        other = Representation(arc.g1, arc.h1, arc.h1.inverse(), arc.g1.inverse())
        ends = _stacked(pillow_point(arc.g1, arc.h1), other)
        surface, endpoint = _class_equal(_stacked(arc, arc), ends, tol).reshape(2, -1)
        interval = np.where(endpoint, Piece.INTERVAL_ENDPOINT, Piece.INTERVAL_INTERIOR)
        piece[n2] = np.where(surface, Piece.PILLOW_SURFACE, interval)
    k = GroupElement(q.reshape(shape + (4,)))
    stratum = np.frompyfunc(_STRATUM_OF.get, 1, 1)(strata).reshape(shape)[()]
    return SigmaFixedPoint(rho, k, stratum, piece.reshape(shape)[()])


def pillow_point(g: GroupElement, h: GroupElement) -> Representation:
    """The swap quadruple (g, h, h, g); sigma-fixed on the nose."""
    return Representation(g, h, h, g)


def blowup_point(g: GroupElement, h: GroupElement, k: GroupElement) -> Representation:
    """(g, h, k h k^{-1}, k g k^{-1}) for k^2 = -1 commuting with [g,h],
    batched over rows of g, h and k of one batch shape; row i is bit for bit
    the point of row i alone.

    Relation: [g,h] [k h k^{-1}, k g k^{-1}] = [g,h] k [g,h]^{-1} k^{-1} = 1
    by the commuting hypothesis.  PreconditionViolated when some k is not a
    finite unit with k^2 = -1, when some [g,h] = 1 (that regime belongs to the
    arcs), or when some k fails to commute with its commutator or some result
    with the relation."""
    with np.errstate(over="ignore", invalid="ignore"):  # on rows refused below
        unit = _unit_slots(k.q) & (distance(mul(k, k), GroupElement.minus_identity()) < EPS_CENTER)
        comm = commutator(g, h)
        off = distance(commutator(comm, k), GroupElement.identity())
        rho = Representation(g, h, conjugate(k, h), conjugate(k, g))
        res = relation_residual(rho)
    _raise_first((~unit, PreconditionViolated,
                  "blowup_point needs a unit k with k^2 = -1", k.q),  # finite and unit
                 (distance(comm, GroupElement.identity()) < EPS_MAT, PreconditionViolated,
                  "blowup_point needs [g,h] != 1", comm.q),
                 (off >= EPS_MAT, PreconditionViolated,
                  "blowup_point needs k to commute with [g,h]; [[g,h], k] off 1 by", off),
                 (~(res < EPS_REL), PreconditionViolated,
                  "blowup_point result violates the relation; residual", res))
    return rho


def rp2_fiber_point(k: GroupElement) -> Representation:
    """The canonical commutator-trace -2 family: with D = diag(i,-i) and
    J = [[0,-1],[1,0]] (so [D,J] = -1 exactly), the quadruple

        (D, J, k J k^{-1}, k D k^{-1}),   k^2 = -1,

    batched over the shape of k.  Classes depend on k only through +-k (an
    RP^2 of them)."""
    _raise_first((~(distance(mul(k, k), GroupElement.minus_identity()) < EPS_CENTER),
                  PreconditionViolated, "rp2_fiber_point needs k^2 = -1", k.q))
    d, j = (GroupElement(np.broadcast_to(x.q, k.batch_shape + (4,))) for x in (DIAG_I, J))
    return Representation(d, j, conjugate(k, J), conjugate(k, DIAG_I))


def _snapped_diag(angle: np.ndarray) -> GroupElement:
    q = np.zeros(angle.shape + (4,))
    q[..., 0], q[..., 3] = _snap_trig(np.cos(angle), np.sin(angle))
    return GroupElement(q)


def n2_interval(
    theta: float | np.ndarray, s: float | np.ndarray, alpha: float | np.ndarray
) -> Representation:
    """The explicit arcs of sigma-fixed classes over commuting pairs.

    g = diag(e^{i theta}), h = diag(e^{i s}), and

        k(alpha) = [[i cos a, sin a], [-sin a, -i cos a]]
                 = (0, sin a, 0, cos a)   (unit, trace 0, k^2 = -1),

    returns (g, h, k h k^{-1}, k g k^{-1}) for alpha in [0, pi/2], batched
    over the broadcast shape of theta, s and alpha.  At alpha = 0 this is
    the swap quadruple (g,h,h,g) (pillow surface, bitwise); at alpha = pi/2
    it is (g,h,h^{-1},g^{-1}) (the other surface, bitwise).
    PreconditionViolated when some theta or s is not finite, when some
    (theta, s) pair are both multiples of pi (the four degenerate central
    arcs) or when some alpha leaves [0, pi/2]."""
    theta, s, alpha = np.broadcast_arrays(*(np.asarray(x, np.float64) for x in (theta, s, alpha)))
    with np.errstate(invalid="ignore"):  # the trig of non-finite angles, refused below
        g, h = _snapped_diag(theta), _snapped_diag(s)
    sines = np.maximum(np.abs(g.q[..., 3]), np.abs(h.q[..., 3]))
    _raise_first((~((0.0 <= alpha) & (alpha <= np.pi / 2)), PreconditionViolated,
                  "interval parameter must lie in [0, pi/2]", alpha),
                 *((~np.isfinite(x), PreconditionViolated, "arc angles must be finite", x)
                   for x in (theta, s)),
                 (sines < EPS_CENTER, PreconditionViolated,
                  "degenerate arc: both angles are multiples of pi (central pair)", sines))
    ca, sa = _snap_trig(np.cos(alpha), np.sin(alpha))
    zero = np.zeros(alpha.shape)
    k = GroupElement(np.stack([zero, sa, zero, ca], axis=-1))
    return Representation(g, h, conjugate(k, h), conjugate(k, g))


@dataclass(frozen=True)
class InjectivityReport:
    """Fixedness and pairwise-distinctness certificate for a batch of arcs:
    fixed[..., a] reads grid point alphas[a] sigma-fixed, and equal[..., p]
    reads the p-th pair i < j of grid points (np.triu_indices order) in one
    class."""

    theta: np.ndarray
    s: np.ndarray
    alphas: np.ndarray
    fixed: np.ndarray
    equal: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        """Per arc: every grid point fixed and no two in one class."""
        return np.all(self.fixed, axis=-1) & ~np.any(self.equal, axis=-1)


def certify_interval_injectivity(
    theta: float | np.ndarray, s: float | np.ndarray, grid: int, tol: float = EPS_MAT
) -> InjectivityReport:
    """Certify the arcs over the broadcast shape of theta and s pointwise:
    every grid point sigma-fixed, all pairs of distinct parameters in
    distinct classes.

    All arcs' grids are one batch, and one class-equality decision
    (repvar._class_equal) covers every point against its swap (a point is
    sigma-fixed exactly when it is one class with its swap) and every pair
    i < j of every arc; each arc reads bit for bit as if alone.
    PreconditionViolated unless grid is an integer >= 0."""
    if isinstance(grid, bool) or not (isinstance(grid, (int, np.integer)) and grid >= 0):
        raise PreconditionViolated(f"grid must be an integer >= 0, got {grid}")
    theta, s = np.broadcast_arrays(np.asarray(theta, np.float64), np.asarray(s, np.float64))
    alphas = np.linspace(0.0, np.pi / 2, grid)
    if grid == 0:  # no grid point to check the arcs at: check them at alpha = 0
        n2_interval(theta, s, 0.0)
    arcs = n2_interval(theta.reshape(-1, 1), s.reshape(-1, 1), alphas)
    # the grid points arc after arc, as one flat batch: the kernels run slower on 2-D batches
    points = Representation.from_slots(arcs.slots().reshape(-1, 4, 4))
    i, j = (grid * np.arange(theta.size)[:, None] + x for x in np.triu_indices(grid, 1))
    stacked = (_stacked(points, points[i.ravel()]), _stacked(sigma(points), points[j.ravel()]))
    fixed, equal = np.split(_class_equal(*stacked, tol), [points.batch_shape[0]])
    shape = theta.shape
    return InjectivityReport(
        theta, s, alphas, fixed.reshape(shape + (grid,)), equal.reshape(shape + i.shape[1:])
    )
