# repvar.py
# Representation quadruples (g1, h1, g2, h2) subject to the surface relation
#     [g1, h1] [g2, h2] = 1,
# plus the conjugation-invariant features built on them: the relation
# residual, abelianness, class equality (= conjugacy of quadruples), the
# trace vector Phi, and the trace-angle map psi on free pairs.
#
# All slots share one batch shape, and Representation.slots() stacks them as
# one (..., 4, 4) array, the layout every batched decision reads.
# Constructors, invariant maps, is_abelian and the class-equality decision
# _class_equal run over a batch; class_equal is _class_equal's entry point
# for one pair of single quadruples, and diagonalize_abelian takes single
# quadruples.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, RelationViolated
from .polytope import TILDE_DELTA, SimplexPoint
from .su2 import (
    AlgebraElement,
    GroupElement,
    _cross,
    _find_conjugators,
    _surface_word,
    commutator,
    conjugate,
    distance,
    exp_alg,
    mul,
    trace_angle,
)
from .tolerances import EPS_MAT, EPS_REL

__all__ = [
    "Representation",
    "F2Pair",
    "new_checked",
    "new_projected",
    "relation_residual",
    "is_abelian",
    "class_equal",
    "diagonalize_abelian",
    "goldman_Phi",
    "psi_F2",
]


@dataclass(frozen=True, eq=False)
class Representation:
    """A quadruple in SU(2)^4, possibly batched (shared batch shape)."""

    g1: GroupElement
    h1: GroupElement
    g2: GroupElement
    h2: GroupElement

    def __post_init__(self):
        shape = self.g1.batch_shape
        for slot in (self.h1, self.g2, self.h2):
            if slot.batch_shape != shape:
                raise ValueError("all four slots must share one batch shape")

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.g1.batch_shape

    def elements(self) -> tuple[GroupElement, GroupElement, GroupElement, GroupElement]:
        return (self.g1, self.h1, self.g2, self.h2)

    def slots(self) -> np.ndarray:
        """The four slot quaternions as one (..., 4, 4) array, slots on axis -2."""
        # np.stack builds the same array at twice the cost on single quadruples
        return np.concatenate([x.q[..., None, :] for x in self.elements()], axis=-2)

    def conjugated(self, k: GroupElement) -> "Representation":
        return Representation(*(conjugate(k, x) for x in self.elements()))

    def __getitem__(self, idx) -> "Representation":
        return Representation(*(x[idx] for x in self.elements()))

    def slot_distance(self, other: "Representation") -> float:
        """Worst distance between corresponding slots of two single quadruples."""
        return max(float(distance(a, b)) for a, b in zip(self.elements(), other.elements()))


@dataclass(frozen=True)
class F2Pair:
    """An unconstrained pair (a, b) in SU(2)^2 (free group on two letters)."""

    a: GroupElement
    b: GroupElement


def _relation_word(rho: Representation) -> GroupElement:
    """The surface word [g1,h1][g2,h2]; the identity on solutions."""
    return _surface_word(*rho.elements())


def relation_residual(rho: Representation) -> np.ndarray:
    """Frobenius distance of [g1,h1][g2,h2] from the identity; 0 on solutions."""
    return distance(_relation_word(rho), GroupElement.identity(rho.batch_shape))


def new_checked(
    g1: GroupElement,
    h1: GroupElement,
    g2: GroupElement,
    h2: GroupElement,
    tol: float = EPS_REL,
) -> Representation:
    """Build a Representation, insisting the surface relation holds to `tol`.

    RelationViolated (a PreconditionViolated) if it does not.
    """
    rho = Representation(g1, h1, g2, h2)
    res = relation_residual(rho)
    worst = float(np.max(res))
    if worst >= tol:
        raise RelationViolated(
            f"surface relation violated: residual {worst:.3e} >= {tol:.3e}"
        )
    return rho


def new_projected(
    g1: GroupElement,
    h1: GroupElement,
    g2: GroupElement,
    h2: GroupElement,
    tol: float = EPS_REL,
) -> Representation:
    """Build a Representation after one Newton correction of the h2 slot.

    Solves [g2, exp(d) h2] = [g1, h1]^{-1} to first order in d (least squares
    on the quaternion residual, numerical Jacobian), then delegates to
    new_checked.  Meant for inputs off the relation by roundoff-scale drift,
    not as a general solver.
    """
    if g1.batch_shape != ():
        raise ValueError("new_projected is scalar-only")
    target = commutator(g1, h1).inverse()

    def residual(d: np.ndarray) -> np.ndarray:
        h2d = mul(exp_alg(AlgebraElement(d)), h2)
        return commutator(g2, h2d).q - target.q

    r0 = residual(np.zeros(3))
    step = 1e-7
    jac = np.empty((4, 3))
    for j in range(3):
        d = np.zeros(3)
        d[j] = step
        jac[:, j] = (residual(d) - r0) / step
    delta, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
    h2_new = mul(exp_alg(AlgebraElement(delta)), h2)
    return new_checked(g1, h1, g2, h2_new, tol)


# the six slot pairs (i, j), i < j, as index arrays
_PAIR_I = np.array([0, 0, 0, 1, 1, 2])
_PAIR_J = np.array([1, 2, 3, 2, 3, 3])


def _abelian(slots: np.ndarray, tol: float) -> np.ndarray:
    """is_abelian on Representation.slots() arrays, shape (..., 4, 4).

    The six slot-pair commutators are one commutator over an axis of six
    pairs."""
    comm = commutator(
        GroupElement(slots[..., _PAIR_I, :]), GroupElement(slots[..., _PAIR_J, :])
    )
    return np.max(distance(comm, GroupElement.identity()), axis=-1) < tol


def is_abelian(rho: Representation, tol: float = EPS_MAT):
    """Do all four slots pairwise commute?  Batched; scalar input -> bool."""
    out = _abelian(rho.slots(), tol)
    return bool(out) if rho.batch_shape == () else out


def _common_axis(rho: Representation, tol: float) -> np.ndarray:
    """Unit vector along the shared rotation axis of an abelian quadruple.

    All non-central slots of an abelian quadruple have parallel vector parts;
    returns the direction of the largest one, or +z if every slot is central.
    """
    vecs = rho.slots()[:, 1:]  # (4, 3)
    norms = np.linalg.norm(vecs, axis=-1)
    i = int(np.argmax(norms))
    if norms[i] < tol:
        return np.array([0.0, 0.0, 1.0])
    return vecs[i] / norms[i]


def diagonalize_abelian(
    rho: Representation, tol: float = EPS_MAT
) -> tuple[GroupElement, Representation]:
    """Constructive common diagonalization of an abelian quadruple.

    Returns (k, k rho k^{-1}) with every slot of the conjugated quadruple on
    the diagonal torus (vector part along z).  PreconditionViolated if the
    quadruple is not abelian to `tol`.
    """
    if rho.batch_shape != ():
        raise ValueError("diagonalize_abelian is scalar-only")
    if not is_abelian(rho, tol):
        raise PreconditionViolated("diagonalize_abelian needs an abelian quadruple")
    n = _common_axis(rho, tol)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(n, z))
    if c > 1.0 - 1e-14:
        k = GroupElement.identity()
    elif c < -1.0 + 1e-14:
        k = GroupElement(np.array([0.0, 1.0, 0.0, 0.0]))  # half-turn about x
    else:
        axis = np.array(_cross(n, z))
        axis /= np.linalg.norm(axis)
        beta = float(np.arccos(np.clip(c, -1.0, 1.0)))
        k = exp_alg(AlgebraElement(0.5 * beta * axis))
    diag = rho.conjugated(k)
    return k, diag


def _diagonal_angles(rho: Representation) -> np.ndarray:
    """Signed torus angles (atan2(z, w)) of a diagonalized quadruple."""
    return np.stack(
        [np.arctan2(x.q[..., 3], x.q[..., 0]) for x in rho.elements()], axis=-1
    )


def _angles_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    d = (a - b + np.pi) % (2.0 * np.pi) - np.pi
    return bool(np.max(np.abs(d)) < tol)


def _class_equal(
    rho: Representation, other: Representation, tol: float
) -> np.ndarray:
    """class_equal over every quadruple pair of one batch shape.

    One is_abelian pass covers both sides and one conjugator solve decides
    every irreducible pair.  Conjugators never mix the two cases, so unequal
    abelianness means unequal classes; two abelian quadruples are compared by
    simultaneous diagonalization -- conjugate iff the torus angle 4-tuples
    agree up to one global sign flip (the Weyl element inverts the whole
    torus at once).
    """
    a, b = rho.slots(), other.slots()
    ab_rho, ab_other = _abelian(np.array([a, b]), tol)
    irreducible, abelian = ~ab_rho & ~ab_other, ab_rho & ab_other
    equal = np.zeros(irreducible.shape, dtype=bool)
    # The solve runs on every pair and is read on the irreducible ones:
    # picking those out first would slow the single-pair calls.  Each
    # branch costs as much on no pairs as on one, so it is skipped then.
    if irreducible.any():
        equal[...] = irreducible & _find_conjugators(a, b, tol)[1]
    if abelian.any():
        for idx in map(tuple, np.argwhere(abelian)):
            _, d1 = diagonalize_abelian(rho[idx], tol)
            _, d2 = diagonalize_abelian(other[idx], tol)
            a1, a2 = _diagonal_angles(d1), _diagonal_angles(d2)
            equal[idx] = _angles_close(a1, a2, tol) or _angles_close(a1, -a2, tol)
    return equal


def class_equal(
    rho: Representation, other: Representation, tol: float = EPS_MAT
) -> bool:
    """Are two single quadruples conjugate by one common element?  The
    decision is _class_equal's, on a batch of one pair."""
    if rho.batch_shape != () or other.batch_shape != ():
        raise ValueError("class_equal is scalar-only")
    return bool(_class_equal(rho, other, tol))


def goldman_Phi(rho: Representation) -> np.ndarray:
    """Trace vector (tr h1, tr h2, tr h1 h2) as a raw (..., 3) array."""
    return np.stack(
        [
            rho.h1.trace(),
            rho.h2.trace(),
            mul(rho.h1, rho.h2).trace(),
        ],
        axis=-1,
    )


def psi_F2(pair: F2Pair, tol: float = 1e-9) -> SimplexPoint:
    """Trace-angle triple (f(a), f(b), f(ab)) of a free pair, tagged in TILDE_DELTA.

    The triple of any pair lands in the closed tetrahedron; a None from the
    classifier would mean a broken invariant, so it is asserted.
    """
    coords = np.stack(
        [trace_angle(pair.a), trace_angle(pair.b), trace_angle(mul(pair.a, pair.b))],
        axis=-1,
    )
    if coords.shape != (3,):
        raise ValueError("psi_F2 expects a single pair")
    point = TILDE_DELTA.classify(coords, tol)
    assert point is not None  # image is always inside the closed tetrahedron
    return point
