# repvar.py
# Representation quadruples (g1, h1, g2, h2) subject to the surface relation
#     [g1, h1] [g2, h2] = 1,
# plus the conjugation-invariant features built on them: the relation
# residual, abelianness and class equality (= conjugacy of quadruples).  The
# trace coordinates of quadruples are polytope.moment_coordinates, the trace
# triple of (h1, h2).
#
# All slots share one batch shape, and Representation.slots() stacks them as
# one (..., 4, 4) array, the layout every batched decision reads.
# Constructors, invariant maps, is_abelian and the class-equality decision
# _class_equal run over a batch, and so does slot_distance; class_equal is
# _class_equal's entry point for one pair of single quadruples, and
# diagonalize_abelian takes single quadruples.  Class equality is one
# conjugator solve (su2._find_conjugators) for every kind of pair, abelian
# and central ones included; diagonalize_abelian is a constructive witness
# for abelian quadruples, not part of that decision.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, RelationViolated
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
    mul,  # unused here; perfbench/test_perfbench.py checks the tracer restores repvar.mul
)
from .tolerances import EPS_MAT, EPS_REL

__all__ = [
    "Representation",
    "new_checked",
    "relation_residual",
    "is_abelian",
    "class_equal",
    "diagonalize_abelian",
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

    @classmethod
    def from_slots(cls, q: np.ndarray) -> "Representation":
        """The quadruples of a (..., 4, 4) slot array, the inverse of slots()."""
        return cls(*(GroupElement(q[..., i, :]) for i in range(4)))

    def slots(self) -> np.ndarray:
        """The four slot quaternions as one (..., 4, 4) array, slots on axis -2."""
        # np.stack builds the same array at twice the cost on single quadruples
        return np.concatenate([x.q[..., None, :] for x in self.elements()], axis=-2)

    def conjugated(self, k: GroupElement) -> "Representation":
        return Representation(*(conjugate(k, x) for x in self.elements()))

    def __getitem__(self, idx) -> "Representation":
        return Representation(*(x[idx] for x in self.elements()))

    def slot_distance(self, other: "Representation"):
        """Worst distance between corresponding slots: a float for two single
        quadruples, the worst per quadruple over a batch."""
        worst = np.max(distance(GroupElement(self.slots()), GroupElement(other.slots())), axis=-1)
        return float(worst) if worst.ndim == 0 else worst


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


# the six slot pairs (i, j), i < j, as index arrays
_PAIR_I = np.array([0, 0, 0, 1, 1, 2])
_PAIR_J = np.array([1, 2, 3, 2, 3, 3])


def is_abelian(rho: Representation, tol: float = EPS_MAT):
    """Do all four slots pairwise commute?  Batched; scalar input -> bool.

    The six slot-pair commutators are one commutator over an axis of six
    pairs."""
    slots = rho.slots()
    comm = commutator(
        GroupElement(slots[..., _PAIR_I, :]), GroupElement(slots[..., _PAIR_J, :])
    )
    out = np.max(distance(comm, GroupElement.identity()), axis=-1) < tol
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
    return k, rho.conjugated(k)


def _class_equal(
    rho: Representation, other: Representation, tol: float
) -> np.ndarray:
    """class_equal over every quadruple pair of one batch shape.

    Two quadruples are one class iff some k conjugates each slot of one onto
    the other, so the decision is one conjugator solve over the whole batch,
    read against tol.  Abelian pairs need no case of their own: their
    conjugators form a circle, or all of SU(2) for central quadruples, and
    the solve returns one of them (a Weyl flip, which inverts the whole
    torus, is one such conjugator).  Conjugation keeps commutators trivial,
    so an abelian quadruple never matches an irreducible one.
    """
    return _find_conjugators(rho.slots(), other.slots())[1] < tol


def class_equal(
    rho: Representation, other: Representation, tol: float = EPS_MAT
) -> bool:
    """Are two single quadruples conjugate by one common element?  The
    decision is _class_equal's, on a batch of one pair."""
    if rho.batch_shape != () or other.batch_shape != ():
        raise ValueError("class_equal is scalar-only")
    return bool(_class_equal(rho, other, tol))

