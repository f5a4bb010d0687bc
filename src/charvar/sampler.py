"""Random and targeted construction of relation solutions.

Targets: uniform-base interior samples (random base point x, twist angles),
boundary families (faces, edges, vertices of the trace polytope) and abelian
quadruples, each optionally Haar-conjugated.  The interior base is uniform on
the open simplex, a convenience measure for coverage of the polytope, not a
canonical volume on the class space.  Every target is one draw and one build:
items are drawn one by one in stream order and built in batches, as are the
near-abelian deformations that witness density of the irreducible locus; each
row is bit for bit the item built alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .errors import PreconditionViolated, _raise_first
from .repvar import Representation, is_abelian
from .su2 import AlgebraElement, GroupElement, _perpendicular, _vector_norm, conjugate, exp_alg
from .su2 import haar_sample, is_central
from .flows import TorusElement, act
from .polytope import STD_DELTA
from .tau import section

__all__ = [
    "Target",
    "SampleSpec",
    "sample",
    "sample_batches",
    "density_witness",
    "strict_inclusion_witness",
]

#: Coefficient of the deformation direction in ``density_witness``: the
#: conjugator runs from the identity (t = 0) to a quarter-turn (t = 1), so the
#: rotated axis never returns to the original one on the whole parameter
#: range.
WITNESS_RATE = np.pi / 4.0

_MAX_SEED = 2**64

#: Items per batch in ``sample_batches``, and JSONL lines per batch in ``cli``.
_CHUNK = 256


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
        ``Target.FIXED_BASE`` and refused with any other target.
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
            if not float(STD_DELTA.margin(x)) < 0.0:  # NaN is not interior either
                raise PreconditionViolated("base point must be strictly interior")
            object.__setattr__(self, "base", x)
        elif self.base is not None:
            raise PreconditionViolated(
                "a base point needs the fixed-base target (interior with --base),"
                f" not {self.target.value!r}"
            )


def _diag(angle) -> GroupElement:
    """exp of angle * e_z, batched over the shape of angle."""
    zero = np.zeros(np.shape(angle))
    return exp_alg(AlgebraElement(np.stack([zero, zero, angle], axis=-1)))


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def _random_torus(rng: np.random.Generator) -> TorusElement:
    return TorusElement(*rng.uniform(0.0, 2.0 * np.pi, size=3))


def _in_open_simplex(x1: float, x2: float, x3: float) -> bool:
    """``STD_DELTA.margin(x) < 0.0`` for one point without a NumPy call: the
    same comparisons, and the sum taken left to right as the margin's is."""
    return x1 > 0.0 and x2 > 0.0 and x3 > 0.0 and x1 + x2 + x3 - 1.0 < 0.0


def _interior_base(rng: np.random.Generator) -> np.ndarray:
    # rejection from the unit cube; acceptance ratio 1/6
    while True:
        x = rng.random(3)  # rng.uniform(0.0, 1.0, 3) bit for bit, at half the cost
        if _in_open_simplex(*x.tolist()):
            return x


def _interior_draw(rng: np.random.Generator, base: Optional[np.ndarray] = None) -> tuple:
    """The base point (unless pinned), then the torus angles."""
    return (_interior_base(rng) if base is None else base), rng.uniform(0.0, 2.0 * np.pi, size=3)


def _interior_build(x: np.ndarray, angles: np.ndarray) -> Representation:
    return act(TorusElement.from_array(angles), section(x))


def _face_draw(rng: np.random.Generator, base=None) -> tuple:
    # Common-axis quadruples over the interior of a facet, where every relation
    # solution is abelian: an axis-aligned commutator has a pinned sign in its
    # axis component, so two of them can only cancel trivially.
    theta1, theta2 = rng.uniform(0.0, np.pi, size=2)
    if rng.uniform() < 0.5:
        theta2 = -theta2  # hit the difference facets as well as the sum ones
    a1, a2 = rng.uniform(-np.pi, np.pi, size=2)
    return (np.array([a1, theta1, a2, theta2]),)


def _abelian_draw(rng: np.random.Generator, base=None) -> tuple:
    return (rng.uniform(-np.pi, np.pi, size=4),)


def _diag_build(angles: np.ndarray) -> Representation:
    """Four _diag slots, one per column of an (n, 4) angle array."""
    return Representation(*(_diag(angles[:, i]) for i in range(4)))


def _edge_draw(rng: np.random.Generator, base=None) -> tuple:
    # One boundary angle collapses entirely: h1 = 1 frees g1, and the
    # relation reduces to [g2, h2] = 1.
    g1, axis = haar_sample(rng).q, _random_axis(rng)
    a, b = rng.uniform(-np.pi, np.pi, size=2)
    return g1, a * axis, b * axis


def _edge_build(g1: np.ndarray, v2: np.ndarray, w2: np.ndarray) -> Representation:
    g2, h2 = (exp_alg(AlgebraElement(v)) for v in (v2, w2))
    return Representation(GroupElement(g1), GroupElement.identity((len(g1),)), g2, h2)


def _vertex_draw(rng: np.random.Generator, base=None) -> tuple:
    # Both h-slots die; the class is an unconstrained pair (g1, g2) up to
    # simultaneous conjugation.  The slots are built as drawn.
    one = (1.0, 0.0, 0.0, 0.0)
    return (np.array([haar_sample(rng).q, one, haar_sample(rng).q, one]),)


#: Each target's (draw, build): draw(rng, base) makes one item's random inputs
#: in stream order (base is None but on the fixed-base target), and build makes
#: a batch from each input stacked over its items.
_DRAW_BUILD = {
    Target.INTERIOR_UNIFORM_BASE: (_interior_draw, _interior_build),
    Target.FIXED_BASE: (_interior_draw, _interior_build),
    Target.BOUNDARY_FACE: (_face_draw, _diag_build),
    Target.BOUNDARY_EDGE: (_edge_draw, _edge_build),
    Target.VERTEX: (_vertex_draw, Representation.from_slots),
    Target.ABELIAN_TORUS: (_abelian_draw, _diag_build),
}


def _draw(rng: np.random.Generator, draw=_interior_draw, base=None, conjugate=True) -> tuple:
    """One item's random inputs: draw's, then its Haar conjugator when conjugate."""
    inputs = draw(rng, base)
    return (*inputs, haar_sample(rng).q) if conjugate else inputs


def _build(draws: list, build=_interior_build, conjugate=True) -> Representation:
    """The items of a list of _draw results as one batch: one build and, when conjugate,
    one conjugation; by default the verify suites' conjugated interior samples."""
    inputs = [np.array(column) for column in zip(*draws)]
    if not conjugate:
        return build(*inputs)
    return build(*inputs[:-1]).conjugated(GroupElement(inputs[-1]))


def sample_batches(spec: SampleSpec) -> Iterator[Representation]:
    """The stream of ``sample(spec)`` as batches of up to ``_CHUNK`` items.

    Every target takes one path: each item's random inputs are drawn in
    stream order (its Haar conjugator last, when the spec conjugates), then
    each batch is built by one call of the target's build and one
    conjugation.  Row i of a batch is bit for bit the item built alone.

    Raises
    ------
    SectionSolveFailure
        From the base-point section on interior targets, only for a base
        point within about 1e-160 of the vertex x = 0, where its closed form
        is 0/0.
    """
    rng = np.random.default_rng(spec.seed)
    draw, build = _DRAW_BUILD[spec.target]
    for start in range(0, spec.count, _CHUNK):
        size = min(_CHUNK, spec.count - start)
        draws = [_draw(rng, draw, spec.base, spec.conjugate) for _ in range(size)]
        yield _build(draws, build, spec.conjugate)


def sample(spec: SampleSpec) -> Iterator[Representation]:
    """Yield ``spec.count`` representations drawn per ``spec.target``.

    The stream is a deterministic function of the spec: its generator is
    seeded from ``spec.seed``.  It is ``sample_batches(spec)`` item by item.
    """
    for batch in sample_batches(spec):
        yield from (batch[i] for i in range(batch.batch_shape[0]))


def _deformation_direction(rho: Representation) -> np.ndarray:
    """A fixed unit direction orthogonal to the common axis of each quadruple,
    the axis read from its first noncentral slot."""
    vecs = rho.slots()[..., 1:]
    norms = _vector_norm(vecs)
    first = np.argmax(norms > 1e-9, axis=-1)[..., None]
    axis = np.take_along_axis(vecs, first[..., None], axis=-2)[..., 0, :]
    return _perpendicular(axis / np.take_along_axis(norms, first, axis=-1))


def density_witness(rho: Representation, t: float | np.ndarray) -> Representation:
    """Deform abelian quadruples off their torus along an explicit path.

    Conjugates the first pair ``(g1, h1)`` by ``k(t) = exp(t * (pi/4) * d)``
    with ``d`` a fixed unit direction orthogonal to the common axis, leaving
    ``(g2, h2)`` untouched.  ``k(0)`` is the identity, and for every
    ``t in (0, 1]`` the rotated axis differs from the original, so the output
    is non-abelian while still solving the relation exactly (both pair
    commutators stay trivial).  Batched over ``rho`` and ``t``; row i is bit
    for bit the witness of quadruple i alone at its own ``t``.

    Parameters
    ----------
    rho:
        Abelian quadruples with no slot equal to plus or minus the identity.
    t:
        Path parameter in [0, 1], one value or one per quadruple.

    Raises
    ------
    PreconditionViolated
        If ``rho`` is not abelian, a slot is central, or ``t`` leaves [0, 1].
    """
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), rho.batch_shape)
    slots = rho.slots()
    _raise_first((~((0.0 <= t) & (t <= 1.0)), PreconditionViolated,
                  "path parameter must lie in [0, 1]", t),
                 (np.logical_not(is_abelian(rho)), PreconditionViolated,  # not ~: ~True is -2
                  "density witness needs an abelian start point", slots),
                 (is_central(GroupElement(slots)).any(axis=-1), PreconditionViolated,
                  "density witness needs every slot noncentral", slots))
    d = _deformation_direction(rho)
    k = exp_alg(AlgebraElement((t * WITNESS_RATE)[..., None] * d))
    return Representation(conjugate(k, rho.g1), conjugate(k, rho.h1), rho.g2, rho.h2)


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
