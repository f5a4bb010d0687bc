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
# Fixedness is one batched read, _sigma_fixed: one conjugator solve, each
# row's residual read against the caller's tolerance.  sigma_fixed_conjugator
# is its entry point for one quadruple, as classify_fixed_point is for the
# batched classify_fixed_points.  sigma, rp2_fiber_point and n2_interval run
# over batches; blowup_point takes single inputs.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .errors import ClassificationAmbiguity, PreconditionViolated
from .repvar import Representation, _class_equal, relation_residual
from .su2 import (
    GroupElement,
    StabilizerType,
    _find_conjugators,
    _snap_trig,
    _stabilizer_types,
    commutator,
    conjugate,
    conjugator_nullspace,
    distance,
    mul,
)
from .tolerances import EPS_CENTER, EPS_MAT, EPS_REL

__all__ = [
    "Stratum",
    "Piece",
    "SigmaFixedPoint",
    "InjectivityReport",
    "sigma",
    "sigma_fixed_conjugator",
    "classify_fixed_point",
    "classify_fixed_points",
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
    """A sigma-fixed class with its witnessing conjugator and location."""

    rep: Representation
    conjugator: GroupElement
    stratum: Stratum
    piece: Piece


def sigma(rho: Representation, tol: float = EPS_REL) -> Representation:
    """The swap (g1,h1,g2,h2) -> (h2,g2,h1,g1); batch-friendly.

    Preserves the relation, so a residual above `tol` on the output means the
    input was off the relation manifold to begin with."""
    swapped = Representation(rho.h2, rho.g2, rho.h1, rho.g1)
    res = float(np.max(relation_residual(swapped), initial=0.0))
    if not res < tol:  # a non-finite quadruple reads as off the relation
        raise PreconditionViolated(
            f"sigma input violates the relation (output residual {res:.3e})"
        )
    return swapped


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
    k, worst = _find_conjugators(rho.slots(), swapped.slots())
    return swapped, _sign_canonical(GroupElement(k)), worst


def _sigma_fixed(rho: Representation, tol: float) -> tuple[GroupElement, np.ndarray]:
    """sigma_fixed_conjugator over a batch: each quadruple's candidate k and
    whether it conjugates the quadruple to its swap (worst residual below
    tol).  Row i is bit for bit the read of quadruple i alone."""
    _, k, worst = _fixedness_solve(rho)
    return k, worst < tol


def sigma_fixed_conjugator(
    rho: Representation, tol: float = EPS_MAT
) -> Optional[GroupElement]:
    """A k with k rho k^{-1} = sigma(rho), or None if the class is not fixed.

    The decision is _sigma_fixed's, on a batch of one quadruple.  Works for
    abelian quadruples too (the nullspace solve decides either way).  The
    sign is canonicalized; pieces that need a pure-imaginary representative
    get one in classify_fixed_point."""
    if rho.batch_shape != ():
        raise ValueError("sigma_fixed_conjugator is scalar-only")
    k, fixed = _sigma_fixed(rho, tol)
    return k if fixed else None


def _pure_imaginary_conjugator(
    rho: Representation, swapped: Representation, k: GroupElement, tol: float
) -> GroupElement:
    """A w = 0 conjugator from the nullspace, when one exists (combinations of
    null vectors orthogonal to the w-coordinate row), else k."""
    basis = conjugator_nullspace(list(rho.elements()), list(swapped.elements()))
    if basis.shape[1] == 0:
        return k
    w_row = basis[0, :]
    if np.linalg.norm(w_row) < 1e-12:
        reduced = basis
    else:
        if basis.shape[1] == 1:
            return k  # the unique conjugator has w != 0
        # orthonormal basis of the subspace of combinations with zero w
        _, _, vt = np.linalg.svd(w_row[None, :])
        reduced = basis @ vt[1:].T
    u, _, _ = np.linalg.svd(reduced, full_matrices=False)
    pure = GroupElement(np.concatenate(([0.0], u[1:, 0] / np.linalg.norm(u[1:, 0]))))
    worst = rho.conjugated(pure).slot_distance(swapped)
    return _sign_canonical(pure) if worst < tol else k


def classify_fixed_points(rho: Representation, tol: float = EPS_MAT) -> Iterator[SigmaFixedPoint]:
    """Each quadruple of a batch in the stratum/piece decomposition, in
    row-major order, bit for bit the point of that quadruple alone: one swap
    and one conjugator solve (its worst residual reads fixed below tol, gray
    zone below 10*tol), one stabilizer, [g1,h1] and k^2 read, and two
    class-equality decisions on the N2 rows.  The first quadruple not fixed at
    10*tol (PreconditionViolated) or with a deciding residual in the gray zone
    [tol, 10*tol) (ClassificationAmbiguity) raises after the points before it:
    such points are reported, never guessed.  A batch with a quadruple off
    the relation fails in sigma, before any point."""
    flat = Representation.from_slots(rho.slots().reshape(-1, 4, 4))
    swapped, k, worst = _fixedness_solve(flat)
    strata = _stabilizer_types(flat.slots(), axis_tol=tol)
    comm = commutator(flat.g1, flat.h1)
    comm_dist = distance(comm, GroupElement.identity())
    tr_dist = np.abs(comm.trace() + 2.0)
    # on N1, k^2 is central, and k = +-1 exactly when the class sits on the swap pillow
    k2 = mul(k, k)
    d_plus, d_minus = distance(k2, GroupElement.identity()), distance(k2, -GroupElement.identity())
    # N2, the arcs between the two surfaces: fixed, non-central rows with [g1,h1] = 1
    n2 = np.flatnonzero((worst < tol) & (strata != StabilizerType.FULL) & (comm_dist < tol))
    arc = flat[n2]
    surface = _class_equal(arc, pillow_point(arc.g1, arc.h1), tol)
    other = Representation(arc.g1, arc.h1, arc.h1.inverse(), arc.g1.inverse())
    endpoint = _class_equal(arc, other, tol)
    interval = np.where(endpoint, Piece.INTERVAL_ENDPOINT, Piece.INTERVAL_INTERIOR)
    arc_piece = dict(zip(n2.tolist(), np.where(surface, Piece.PILLOW_SURFACE, interval)))
    for i in range(len(worst)):
        if not worst[i] < tol:
            if worst[i] < 10 * tol:
                raise ClassificationAmbiguity(
                    "sigma-fixedness residual lies between tol and 10*tol"
                )
            raise PreconditionViolated("class is not sigma-fixed")
        rep, conj, stratum = flat[i], k[i], _STRATUM_OF[strata[i]]
        if stratum is Stratum.III:
            yield SigmaFixedPoint(rep, DIAG_I, stratum, Piece.CENTRAL_VERTEX)
            continue
        if tol <= comm_dist[i] < 10 * tol:
            raise ClassificationAmbiguity(
                f"[g1,h1] centrality residual {comm_dist[i]:.3e} in the gray zone"
            )
        if i in arc_piece:
            conj, piece = _pure_imaginary_conjugator(rep, swapped[i], conj, tol), arc_piece[i]
        elif min(d_plus[i], d_minus[i]) >= EPS_CENTER:
            raise ClassificationAmbiguity(
                f"k^2 is not numerically central (residuals {d_plus[i]:.3e}/{d_minus[i]:.3e})"
            )
        elif d_plus[i] < d_minus[i]:
            piece = Piece.PILLOW_INTERIOR
        elif tol <= tr_dist[i] < 10 * tol:
            raise ClassificationAmbiguity(
                f"tr[g1,h1] = -2 residual {tr_dist[i]:.3e} in the gray zone"
            )
        else:
            piece = Piece.RP2_FIBER if tr_dist[i] < tol else Piece.BLOWUP_INTERIOR
        yield SigmaFixedPoint(rep, conj, stratum, piece)


def classify_fixed_point(rho: Representation, tol: float = EPS_MAT) -> SigmaFixedPoint:
    """The point of one quadruple in the stratum/piece decomposition:
    classify_fixed_points on a batch of one, with the same errors."""
    if rho.batch_shape != ():
        raise ValueError("classify_fixed_point is scalar-only")
    return next(classify_fixed_points(rho, tol))


def pillow_point(g: GroupElement, h: GroupElement) -> Representation:
    """The swap quadruple (g, h, h, g); sigma-fixed on the nose."""
    return Representation(g, h, h, g)


def blowup_point(g: GroupElement, h: GroupElement, k: GroupElement) -> Representation:
    """(g, h, k h k^{-1}, k g k^{-1}) for k^2 = -1 commuting with [g,h].

    Relation: [g,h] [k h k^{-1}, k g k^{-1}] = [g,h] k [g,h]^{-1} k^{-1} = 1
    by the commuting hypothesis.  PreconditionViolated when k is not a finite
    unit with k^2 = -1, when [g,h] = 1 (that regime belongs to the arcs), or
    when k fails to commute with the commutator or the result with the relation."""
    unit = np.all(np.isfinite(k.q)) and abs(float(k.q @ k.q) - 1.0) <= 1e-9
    if not (unit and float(distance(mul(k, k), GroupElement.minus_identity())) < EPS_CENTER):
        raise PreconditionViolated("blowup_point needs a unit k with k^2 = -1")
    comm = commutator(g, h)
    if float(distance(comm, GroupElement.identity())) < EPS_MAT:
        raise PreconditionViolated("blowup_point needs [g,h] != 1")
    if float(distance(commutator(comm, k), GroupElement.identity())) >= EPS_MAT:
        raise PreconditionViolated("blowup_point needs k to commute with [g,h]")
    rho = Representation(g, h, conjugate(k, h), conjugate(k, g))
    if not float(relation_residual(rho)) < EPS_REL:
        raise PreconditionViolated("blowup_point result violates the relation")
    return rho


def rp2_fiber_point(k: GroupElement) -> Representation:
    """The canonical commutator-trace -2 family: with D = diag(i,-i) and
    J = [[0,-1],[1,0]] (so [D,J] = -1 exactly), the quadruple

        (D, J, k J k^{-1}, k D k^{-1}),   k^2 = -1,

    batched over the shape of k.  Classes depend on k only through +-k (an
    RP^2 of them)."""
    if not np.all(distance(mul(k, k), GroupElement.minus_identity()) < EPS_CENTER):
        raise PreconditionViolated("rp2_fiber_point needs k^2 = -1")
    d, j = (GroupElement(np.broadcast_to(x.q, k.batch_shape + (4,))) for x in (DIAG_I, J))
    return Representation(d, j, conjugate(k, J), conjugate(k, DIAG_I))


def _snapped_diag(angle: float) -> GroupElement:
    c, s = _snap_trig(np.cos(angle), np.sin(angle))
    return GroupElement(np.array([float(c), 0.0, 0.0, float(s)]))


def n2_interval(theta: float, s: float, alpha: float | np.ndarray) -> Representation:
    """The explicit arc of sigma-fixed classes over a commuting pair.

    g = diag(e^{i theta}), h = diag(e^{i s}), and

        k(alpha) = [[i cos a, sin a], [-sin a, -i cos a]]
                 = (0, sin a, 0, cos a)   (unit, trace 0, k^2 = -1),

    returns (g, h, k h k^{-1}, k g k^{-1}) for alpha in [0, pi/2], batched
    over the shape of alpha.  At alpha = 0 this is the swap quadruple
    (g,h,h,g) (pillow surface, bitwise); at alpha = pi/2 it is
    (g,h,h^{-1},g^{-1}) (the other surface, bitwise).  PreconditionViolated
    when theta or s is not finite, when both are multiples of pi (the four
    degenerate central arcs) or when some alpha leaves [0, pi/2]."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all((0.0 <= alpha) & (alpha <= np.pi / 2)):
        raise PreconditionViolated("interval parameter must lie in [0, pi/2]")
    if not np.isfinite([theta, s]).all():
        raise PreconditionViolated("arc angles must be finite")
    g = _snapped_diag(theta)
    h = _snapped_diag(s)
    if float(np.abs(g.vec[2])) < EPS_CENTER and float(np.abs(h.vec[2])) < EPS_CENTER:
        raise PreconditionViolated(
            "degenerate arc: both angles are multiples of pi (central pair)"
        )
    ca, sa = _snap_trig(np.cos(alpha), np.sin(alpha))
    zero = np.zeros(alpha.shape)
    k = GroupElement(np.stack([zero, sa, zero, ca], axis=-1))
    g1, h1 = (GroupElement(np.broadcast_to(x.q, alpha.shape + (4,))) for x in (g, h))
    return Representation(g1, h1, conjugate(k, h), conjugate(k, g))


@dataclass(frozen=True)
class InjectivityReport:
    """Pairwise-distinctness and fixedness certificate for one arc."""

    theta: float
    s: float
    alphas: np.ndarray
    fixed_failures: tuple[float, ...]
    collisions: tuple[tuple[float, float], ...]

    @property
    def passed(self) -> bool:
        return not self.fixed_failures and not self.collisions


def certify_interval_injectivity(
    theta: float, s: float, grid: int, tol: float = EPS_MAT
) -> InjectivityReport:
    """Certify one arc pointwise: every grid point sigma-fixed, all pairs of
    distinct parameters in distinct classes.

    The grid is one batch: one fixedness read (_sigma_fixed) covers every
    point, and one class-equality decision (repvar._class_equal) covers every
    pair i < j."""
    alphas = np.linspace(0.0, np.pi / 2, grid)
    points = n2_interval(theta, s, alphas)
    _, fixed = _sigma_fixed(points, tol)
    i, j = np.triu_indices(grid, 1)
    equal = _class_equal(points[i], points[j], tol)
    return InjectivityReport(
        theta=float(theta),
        s=float(s),
        alphas=alphas,
        fixed_failures=tuple(float(a) for a in alphas[~fixed]),
        collisions=tuple(
            (float(alphas[a]), float(alphas[b])) for a, b in zip(i[equal], j[equal])
        ),
    )
