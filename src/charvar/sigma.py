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
# III = all of SU(2).  The stratum is always reported from stabilizer_type;
# note the arcs have torus stabilizer only at their endpoints (the interior
# of an arc uses two distinct axes), so interval interiors report stratum I.
#
# Stored conjugators are canonicalized: pieces that admit a pure-imaginary
# conjugator (the N2 pieces and the central vertex) store one with w = 0
# exactly, hence k^2 = -1 exactly; elsewhere the sign is fixed by making the
# largest-magnitude component positive.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ClassificationAmbiguity, PreconditionViolated
from .repvar import Representation, _class_equal, class_equal, relation_residual
from .su2 import (
    GroupElement,
    StabilizerType,
    _find_conjugators,
    _snap_trig,
    commutator,
    conjugate,
    conjugator_nullspace,
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
    "InjectivityReport",
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
    if res >= tol:
        raise PreconditionViolated(
            f"sigma input violates the relation (output residual {res:.3e})"
        )
    return swapped


def _sign_canonical(k: GroupElement) -> GroupElement:
    i = int(np.argmax(np.abs(k.q)))
    return GroupElement(-k.q) if k.q[i] < 0 else k


def sigma_fixed_conjugator(
    rho: Representation, tol: float = EPS_MAT
) -> Optional[GroupElement]:
    """A k with k rho k^{-1} = sigma(rho), or None if the class is not fixed.

    Works for abelian quadruples too (the nullspace solve decides either
    way).  The sign is canonicalized; pieces that need a pure-imaginary
    representative get one in classify_fixed_point."""
    if rho.batch_shape != ():
        raise ValueError("sigma_fixed_conjugator is scalar-only")
    swapped = sigma(rho)
    k = find_conjugator(list(rho.elements()), list(swapped.elements()), tol)
    return None if k is None else _sign_canonical(k)


def _pure_imaginary_conjugator(
    rho: Representation, swapped: Representation, tol: float
) -> Optional[GroupElement]:
    """A w = 0 conjugator from the nullspace, when one exists: combinations of
    null vectors orthogonal to the w-coordinate row."""
    basis = conjugator_nullspace(list(rho.elements()), list(swapped.elements()))
    if basis.shape[1] == 0:
        return None
    w_row = basis[0, :]
    if np.linalg.norm(w_row) < 1e-12:
        reduced = basis
    else:
        if basis.shape[1] == 1:
            return None  # the unique conjugator has w != 0
        # orthonormal basis of the subspace of combinations with zero w
        _, _, vt = np.linalg.svd(w_row[None, :])
        reduced = basis @ vt[1:].T
    u, _, _ = np.linalg.svd(reduced, full_matrices=False)
    k = GroupElement(np.concatenate(([0.0], u[1:, 0] / np.linalg.norm(u[1:, 0]))))
    worst = rho.conjugated(k).slot_distance(swapped)
    return _sign_canonical(k) if worst < tol else None


def classify_fixed_point(
    rho: Representation,
    tol: float = EPS_MAT,
    center_tol: float = EPS_CENTER,
) -> SigmaFixedPoint:
    """Locate a sigma-fixed class in the stratum/piece decomposition.

    Raises PreconditionViolated when the class is not sigma-fixed at 10*tol,
    and ClassificationAmbiguity when a deciding residual lands in the gray
    zone (tol, 10*tol) -- such points are reported, never guessed."""
    k = sigma_fixed_conjugator(rho, tol)
    if k is None:
        if sigma_fixed_conjugator(rho, 10 * tol) is not None:
            raise ClassificationAmbiguity(
                "sigma-fixedness residual lies between tol and 10*tol"
            )
        raise PreconditionViolated("class is not sigma-fixed")

    stratum = _STRATUM_OF[stabilizer_type(list(rho.elements()), center_tol, tol)]

    if stratum is Stratum.III:
        return SigmaFixedPoint(rho, DIAG_I, stratum, Piece.CENTRAL_VERTEX)

    comm = commutator(rho.g1, rho.h1)
    comm_dist = float(distance(comm, GroupElement.identity()))
    if tol <= comm_dist < 10 * tol:
        raise ClassificationAmbiguity(
            f"[g1,h1] centrality residual {comm_dist:.3e} in the gray zone"
        )

    if comm_dist < tol:
        # N2: arcs between the two surfaces
        pure_k = _pure_imaginary_conjugator(rho, sigma(rho), tol)
        if pure_k is not None:
            k = pure_k
        if class_equal(rho, pillow_point(rho.g1, rho.h1), tol):
            piece = Piece.PILLOW_SURFACE
        elif class_equal(
            rho,
            Representation(rho.g1, rho.h1, rho.h1.inverse(), rho.g1.inverse()),
            tol,
        ):
            piece = Piece.INTERVAL_ENDPOINT
        else:
            piece = Piece.INTERVAL_INTERIOR
        return SigmaFixedPoint(rho, k, stratum, piece)

    # N1: solid pieces; k^2 is central, and k = +-1 exactly when the class
    # sits on the swap pillow
    k2 = mul(k, k)
    d_plus = float(distance(k2, GroupElement.identity()))
    d_minus = float(distance(k2, GroupElement.minus_identity()))
    if min(d_plus, d_minus) >= center_tol:
        raise ClassificationAmbiguity(
            f"k^2 is not numerically central (residuals {d_plus:.3e}/{d_minus:.3e})"
        )
    if d_plus < d_minus:
        piece = Piece.PILLOW_INTERIOR
    else:
        tr_dist = abs(float(comm.trace()) + 2.0)
        if tol <= tr_dist < 10 * tol:
            raise ClassificationAmbiguity(
                f"tr[g1,h1] = -2 residual {tr_dist:.3e} in the gray zone"
            )
        piece = Piece.RP2_FIBER if tr_dist < tol else Piece.BLOWUP_INTERIOR
    return SigmaFixedPoint(rho, k, stratum, piece)


def pillow_point(g: GroupElement, h: GroupElement) -> Representation:
    """The swap quadruple (g, h, h, g); sigma-fixed on the nose."""
    return Representation(g, h, h, g)


def blowup_point(
    g: GroupElement,
    h: GroupElement,
    k: GroupElement,
    tol: float = EPS_MAT,
    center_tol: float = EPS_CENTER,
) -> Representation:
    """(g, h, k h k^{-1}, k g k^{-1}) for k^2 = -1 commuting with [g,h].

    Relation: [g,h] [k h k^{-1}, k g k^{-1}] = [g,h] k [g,h]^{-1} k^{-1} = 1
    by the commuting hypothesis.  PreconditionViolated when k^2 != -1, when
    [g,h] = 1 (that regime belongs to the arcs), or when k fails to commute
    with the commutator."""
    if float(distance(mul(k, k), GroupElement.minus_identity())) >= center_tol:
        raise PreconditionViolated("blowup_point needs k^2 = -1")
    comm = commutator(g, h)
    if float(distance(comm, GroupElement.identity())) < tol:
        raise PreconditionViolated("blowup_point needs [g,h] != 1")
    if float(distance(commutator(comm, k), GroupElement.identity())) >= tol:
        raise PreconditionViolated("blowup_point needs k to commute with [g,h]")
    rho = Representation(g, h, conjugate(k, h), conjugate(k, g))
    assert float(relation_residual(rho)) < EPS_REL
    return rho


def rp2_fiber_point(k: GroupElement, center_tol: float = EPS_CENTER) -> Representation:
    """The canonical commutator-trace -2 family: with D = diag(i,-i) and
    J = [[0,-1],[1,0]] (so [D,J] = -1 exactly), the quadruple

        (D, J, k J k^{-1}, k D k^{-1}),   k^2 = -1.

    Classes depend on k only through +-k (an RP^2 of them)."""
    if float(distance(mul(k, k), GroupElement.minus_identity())) >= center_tol:
        raise PreconditionViolated("rp2_fiber_point needs k^2 = -1")
    return Representation(DIAG_I, J, conjugate(k, J), conjugate(k, DIAG_I))


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
    when theta and s are both multiples of pi (the four degenerate central
    arcs) or some alpha leaves [0, pi/2]."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all((0.0 <= alpha) & (alpha <= np.pi / 2)):
        raise PreconditionViolated("interval parameter must lie in [0, pi/2]")
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

    The grid is one batch: one conjugator solve decides fixedness, and one
    class-equality decision (repvar._class_equal) covers every pair i < j."""
    alphas = np.linspace(0.0, np.pi / 2, grid)
    points = n2_interval(theta, s, alphas)
    _, fixed = _find_conjugators(points.slots(), sigma(points).slots(), tol)
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
