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
# _class_equal run over a batch, and so does slot_distance; class_equal
# decides one pair of single quadruples.  Class equality is one conjugator
# solve (su2.find_conjugator) for every kind of pair, abelian and central
# ones included.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, RelationViolated, _raise_first
from .su2 import (
    GroupElement,
    _blockwise,
    _distance,
    _surface_word,
    commutator,
    conjugate,
    distance,
    find_conjugator,
    mul,  # unused here; perfbench/test_perfbench.py checks the tracer restores repvar.mul
)
from .tolerances import EPS_MAT, EPS_REL

__all__ = [
    "Representation",
    "new_checked",
    "relation_residual",
    "is_abelian",
    "class_equal",
]

_SLOTS = ("g1", "h1", "g2", "h2")
_UNIT_TOL = 1e-9  # bound on |q.q - 1| for a slot quaternion to count as unit


def _unit_slots(q: np.ndarray) -> np.ndarray:
    """Whether each quaternion of a (..., 4) array is finite and unit to _UNIT_TOL."""
    return np.abs(np.vecdot(q, q) - 1.0) <= _UNIT_TOL


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


def _relation_residual(g1, h1, g2, h2) -> np.ndarray:
    """relation_residual on the slot quaternion arrays."""
    w, x, y, z = _surface_word(g1, h1, g2, h2)
    # the difference from (1, 0, 0, 0): x - 0.0 is x bit for bit
    return _distance((w - 1.0, x, y, z))


def relation_residual(rho: Representation) -> np.ndarray:
    """Frobenius distance of [g1,h1][g2,h2] from the identity; 0 on solutions."""
    return _blockwise(_relation_residual, (rho.batch_shape,), *(x.q for x in rho.elements()))


def new_checked(
    g1: GroupElement,
    h1: GroupElement,
    g2: GroupElement,
    h2: GroupElement,
    tol: float = EPS_REL,
) -> Representation:
    """Build a Representation, insisting each slot passes _unit_slots (the
    products renormalize, so the residual alone cannot see a bad one) and the
    surface relation holds to `tol`.

    PreconditionViolated for a bad slot; RelationViolated (a
    PreconditionViolated) if the relation does not hold."""
    rho = Representation(g1, h1, g2, h2)
    for name, x in zip(_SLOTS, rho.elements()):
        _raise_first(~_unit_slots(x.q), PreconditionViolated,
                     f"slot {name} is not a finite unit quaternion", x.q)
    residual = relation_residual(rho)
    _raise_first(~(residual < tol), RelationViolated,  # a NaN residual or tolerance fails too
                 f"surface relation violated: residual >= {tol:.3e}", residual)
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
    return find_conjugator(GroupElement(rho.slots()), GroupElement(other.slots()))[1] < tol


def class_equal(
    rho: Representation, other: Representation, tol: float = EPS_MAT
) -> bool:
    """Are two single quadruples conjugate by one common element?  The
    decision is _class_equal's, on a batch of one pair."""
    if rho.batch_shape != () or other.batch_shape != ():
        raise ValueError("class_equal is scalar-only")
    return bool(_class_equal(rho, other, tol))

