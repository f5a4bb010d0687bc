"""Random and targeted construction of relation solutions.

Sampling strategies for the class space: uniform-base interior samples
(random base point x, random twist angles, optional global conjugation),
targeted boundary families (faces, edges, vertices of the trace polytope),
fully abelian quadruples, and the explicit near-abelian deformation used to
witness density of the irreducible locus.

The interior sampler draws the base uniformly on the open simplex.  That is a
convenience measure chosen for coverage of the polytope, not a canonical
volume on the class space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .errors import PreconditionViolated
from .repvar import Representation, is_abelian
from .su2 import AlgebraElement, GroupElement, _cross, conjugate, exp_alg, haar_sample, is_central
from .flows import TorusElement, act
from .polytope import STD_DELTA
from .tau import section
from .tolerances import EPS_CENTER

__all__ = [
    "Target",
    "SampleSpec",
    "sample",
    "density_witness",
    "strict_inclusion_witness",
]

#: Coefficient of the deformation direction in ``density_witness``: the
#: conjugator runs from the identity (t = 0) to a quarter-turn (t = 1), so the
#: rotated axis never returns to the original one on the whole parameter
#: range.
WITNESS_RATE = np.pi / 4.0

_MAX_SEED = 2**64


class Target(Enum):
    """What a sampling run should produce."""

    INTERIOR_UNIFORM_BASE = "interior"
    FIXED_BASE = "fixed-base"
    BOUNDARY_FACE = "face"
    BOUNDARY_EDGE = "edge"
    VERTEX = "vertex"
    ABELIAN_TORUS = "abelian"


@dataclass(frozen=True)
class SampleSpec:
    """A deterministic description of one sampling run.

    Parameters
    ----------
    count:
        Number of representations to emit; at least 1.
    seed:
        64-bit unsigned seed.  Equal specs produce identical streams.
    target:
        Which family to sample; see `Target`.
    base:
        Strictly interior base point, required when ``target`` is
        ``Target.FIXED_BASE`` and ignored otherwise.
    conjugate:
        When true, each emitted quadruple is conjugated by an independent
        Haar-random element, so the stream explores whole classes rather
        than canonical-form slices.
    """

    count: int
    seed: int
    target: Target
    base: Optional[np.ndarray] = field(default=None)
    conjugate: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise PreconditionViolated(f"count must be >= 1, got {self.count}")
        if not (0 <= self.seed < _MAX_SEED):
            raise PreconditionViolated("seed must fit in 64 unsigned bits")
        if self.target is Target.FIXED_BASE:
            if self.base is None:
                raise PreconditionViolated("fixed-base sampling requires a base point")
            x = np.asarray(self.base, dtype=float)
            if x.shape != (3,):
                raise PreconditionViolated("base must be a 3-vector")
            if float(STD_DELTA.margin(x)) >= 0.0:
                raise PreconditionViolated("base point must be strictly interior")
            object.__setattr__(self, "base", x)


def _diag(angle: float) -> GroupElement:
    return exp_alg(AlgebraElement(np.array([0.0, 0.0, angle])))


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def _random_torus(rng: np.random.Generator) -> TorusElement:
    phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
    return TorusElement(phi[0], phi[1], phi[2])


def _interior_base(rng: np.random.Generator) -> np.ndarray:
    # rejection from the unit cube; acceptance ratio 1/6
    while True:
        x = rng.uniform(0.0, 1.0, size=3)
        if float(STD_DELTA.margin(x)) < 0.0:
            return x


def _interior_sample(rng: np.random.Generator, base: Optional[np.ndarray]) -> Representation:
    x = _interior_base(rng) if base is None else base
    return act(_random_torus(rng), section(x))


def _face_sample(rng: np.random.Generator) -> Representation:
    # Common-axis quadruples whose moment lands in the interior of one of the
    # four facets.  Over a generic facet point every relation solution is
    # abelian (an axis-aligned commutator has a pinned sign in its axis
    # component, so two of them can only cancel trivially), hence sampling
    # the facets means sampling shared-axis angle data.
    theta1, theta2 = rng.uniform(0.0, np.pi, size=2)
    if rng.uniform() < 0.5:
        theta2 = -theta2  # hit the difference facets as well as the sum ones
    a1, a2 = rng.uniform(-np.pi, np.pi, size=2)
    return Representation(_diag(a1), _diag(theta1), _diag(a2), _diag(theta2))


def _edge_sample(rng: np.random.Generator) -> Representation:
    # One boundary angle collapses entirely: h1 = 1 frees g1, and the
    # relation reduces to [g2, h2] = 1.
    g1 = haar_sample(rng)
    axis = AlgebraElement(_random_axis(rng))
    a, b = rng.uniform(-np.pi, np.pi, size=2)
    g2 = exp_alg(AlgebraElement(a * axis.v))
    h2 = exp_alg(AlgebraElement(b * axis.v))
    return Representation(g1, GroupElement.identity(), g2, h2)


def _vertex_sample(rng: np.random.Generator) -> Representation:
    # Both h-slots die; the class is an unconstrained pair (g1, g2) up to
    # simultaneous conjugation.
    return Representation(
        haar_sample(rng),
        GroupElement.identity(),
        haar_sample(rng),
        GroupElement.identity(),
    )


def _abelian_sample(rng: np.random.Generator) -> Representation:
    angles = rng.uniform(-np.pi, np.pi, size=4)
    return Representation(*(_diag(float(a)) for a in angles))


def sample(spec: SampleSpec, rng: Optional[np.random.Generator] = None) -> Iterator[Representation]:
    """Yield ``spec.count`` representations drawn per ``spec.target``.

    The stream is a deterministic function of the spec: when ``rng`` is
    omitted it is seeded from ``spec.seed``.  Passing an explicit generator
    hands control of determinism to the caller (used for seed-split
    parallel runs).

    Raises
    ------
    SectionSolveFailure
        Propagated from the base-point section on interior targets.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    for _ in range(spec.count):
        if spec.target in (Target.INTERIOR_UNIFORM_BASE, Target.FIXED_BASE):
            rho = _interior_sample(rng, spec.base)
        elif spec.target is Target.BOUNDARY_FACE:
            rho = _face_sample(rng)
        elif spec.target is Target.BOUNDARY_EDGE:
            rho = _edge_sample(rng)
        elif spec.target is Target.VERTEX:
            rho = _vertex_sample(rng)
        else:
            rho = _abelian_sample(rng)
        if spec.conjugate:
            rho = rho.conjugated(haar_sample(rng))
        yield rho


def _deformation_direction(rho: Representation) -> AlgebraElement:
    """A fixed unit direction orthogonal to the common axis of ``rho``."""
    axis = None
    for x in rho.elements():
        n = float(np.linalg.norm(x.vec))
        if n > 1e-9:
            axis = x.vec / n
            break
    if axis is None:  # pragma: no cover - excluded by the precondition
        raise PreconditionViolated("no noncentral slot to read an axis from")
    # deterministic perpendicular: cross with the least-aligned basis vector
    pick = int(np.argmin(np.abs(axis)))
    e = np.zeros(3)
    e[pick] = 1.0
    d = np.array(_cross(axis, e))
    return AlgebraElement(d).unit()


def density_witness(rho: Representation, t: float) -> Representation:
    """Deform an abelian quadruple off its torus along an explicit path.

    Conjugates the first pair ``(g1, h1)`` by ``k(t) = exp(t * (pi/4) * d)``
    with ``d`` a fixed unit direction orthogonal to the common axis, leaving
    ``(g2, h2)`` untouched.  ``k(0)`` is the identity, and for every
    ``t in (0, 1]`` the rotated axis differs from the original, so the output
    is non-abelian while still solving the relation exactly (both pair
    commutators stay trivial).

    Parameters
    ----------
    rho:
        Abelian quadruple with no slot equal to plus or minus the identity.
    t:
        Path parameter in [0, 1].

    Raises
    ------
    PreconditionViolated
        If ``rho`` is not abelian, a slot is central, or ``t`` leaves [0, 1].
    """
    if not (0.0 <= t <= 1.0):
        raise PreconditionViolated(f"path parameter must lie in [0, 1], got {t}")
    if not is_abelian(rho):
        raise PreconditionViolated("density witness needs an abelian start point")
    if any(bool(is_central(x, EPS_CENTER)) for x in rho.elements()):
        raise PreconditionViolated("density witness needs every slot noncentral")
    d = _deformation_direction(rho)
    k = exp_alg(AlgebraElement(t * WITNESS_RATE * d.v))
    return Representation(
        conjugate(k, rho.g1),
        conjugate(k, rho.h1),
        rho.g2,
        rho.h2,
    )


def strict_inclusion_witness() -> Representation:
    """A boundary class that is nevertheless irreducible.

    Returns the quadruple ``(e_z, 1, e_x, 1)``: its trace triple sits at the
    origin vertex of the polytope (both h-slots are the identity), yet the two
    g-slots anticommute, so the class is not abelian.  This separates the
    irreducible locus from the part of it lying over the open polytope.
    """
    e_z = GroupElement(np.array([0.0, 0.0, 0.0, 1.0]))
    e_x = GroupElement(np.array([0.0, 1.0, 0.0, 0.0]))
    one = GroupElement.identity()
    return Representation(e_z, one, e_x, one)
