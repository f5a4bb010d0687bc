# flows.py
# The three commuting twist circles on interior representation classes: two
# right-multiplication twists along the axes of h1 and h2, and a third flow
# whose generator pair (X, Y) is built from the products h2 h1 and h1 h2,
#
#     X = h2 h1 - (h2 h1)^{-1},   Y = h1 h2 - (h1 h2)^{-1}
#
# (as matrices; as quaternions these are the pure vectors 2 vec(h2 h1) and
# 2 vec(h1 h2), of equal length since both products share a trace).
#
# Normalization: every circle uses the *unit* generator, so angle pi
# multiplies the acted slots by -I and the action has period 2 pi.  With this
# parametrization the kernel of the torus action on classes is exactly
# {(0,0,0), (pi,pi,pi)}: at (pi,pi,pi) the sign from the third circle cancels
# the sign from the first (on g1) and second (on g2) circle, slot by slot --
# and the arithmetic here makes that cancellation bitwise.
#
# Everything broadcasts: a TorusElement may hold angle arrays, and act maps a
# batch of quadruples under a batch of angles elementwise.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGenerator, _raise_first
from .repvar import Representation
from .su2 import (
    AlgebraElement,
    GroupElement,
    _blockwise,
    _distance,
    _exact_center,
    _exp,
    _level,
    _pack,
    _qmul,
    _row_norm,
    _split,
)
from .tolerances import EPS_CENTER, EPS_MAT

__all__ = [
    "TorusElement",
    "FlowGenerators",
    "FlowIdentityReport",
    "generators",
    "act",
    "verify_flow_identities",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class TorusElement:
    """Angles (phi1, phi2, phi3) of the three twist circles, reduced mod 2 pi.

    Fields may be scalars or broadcasting angle arrays.  Composition is
    componentwise addition mod 2 pi.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    phi3: np.ndarray

    def __post_init__(self):
        for name in ("phi1", "phi2", "phi3"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            # np.mod(a, 2 pi) is a bit for bit on [+0, 2 pi), so an array
            # already there is copied, not reduced; -0.0, NaN and every other
            # angle is reduced, and so is a single angle, which costs less
            # to reduce than to check.
            if a.ndim and (a < TWO_PI).all() and not np.signbit(a).any():
                a = a.copy()
            else:
                a = np.mod(a, TWO_PI)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def zero(cls) -> "TorusElement":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def kernel(cls) -> "TorusElement":
        """The nontrivial kernel element (pi, pi, pi)."""
        return cls(np.pi, np.pi, np.pi)

    @classmethod
    def from_array(cls, t) -> "TorusElement":
        t = np.asarray(t, dtype=np.float64)
        if t.shape[-1:] != (3,):
            raise ValueError("TorusElement.from_array expects shape (..., 3)")
        return cls(t[..., 0], t[..., 1], t[..., 2])

    def as_array(self) -> np.ndarray:
        return np.stack(
            np.broadcast_arrays(self.phi1, self.phi2, self.phi3), axis=-1
        )

    def compose(self, other: "TorusElement") -> "TorusElement":
        return TorusElement(
            self.phi1 + other.phi1, self.phi2 + other.phi2, self.phi3 + other.phi3
        )

    __add__ = compose

    def inverse(self) -> "TorusElement":
        return TorusElement(-self.phi1, -self.phi2, -self.phi3)

    def kernel_distance(self) -> np.ndarray:
        """max-norm circle distance to the nearer of (0,0,0) and (pi,pi,pi)."""
        t = self.as_array()
        d0 = np.abs((t + np.pi) % TWO_PI - np.pi)
        dk = np.abs(t - np.pi)
        return np.minimum(np.max(d0, axis=-1), np.max(dk, axis=-1))


@dataclass(frozen=True)
class FlowGenerators:
    """Unit twist generators of an interior quadruple.

    xi1_hat, xi2_hat: axes of h1, h2.  X_hat, Y_hat: unit directions of
    h2 h1 - (h2 h1)^{-1} and h1 h2 - (h1 h2)^{-1} (positive multiples).
    """

    xi1_hat: AlgebraElement
    xi2_hat: AlgebraElement
    X_hat: AlgebraElement
    Y_hat: AlgebraElement


_DEGENERATE = tuple(
    f"{name} is within {EPS_CENTER:g} of the center; the twist flows are defined "
    "on interior classes only; vector norm" for name in ("h1", "h2", "h2*h1", "h1*h2"))


def _generators(h1: np.ndarray, h2: np.ndarray) -> tuple:
    """The components of the unit generators (xi1, xi2, X, Y) of the
    quaternion arrays h1, h2: the axes of h1, h2, h2 h1 and h1 h2, whose
    norms are checked in that order.  The two products are one level
    (_level), and so are the four norms."""
    h1, h2 = _split(h1), _split(h2)
    vecs = [h[1:] for h in (h1, h2, *_level(_qmul, [(h2, h1), (h1, h2)]))]
    norms = _level(_row_norm, [(v,) for v in vecs])
    _raise_first(*((n < EPS_CENTER, DegenerateGenerator, what, n)
                   for what, n in zip(_DEGENERATE, norms)))
    return tuple(tuple(c / n for c in v) for v, n in zip(vecs, norms))


def generators(rho: Representation) -> FlowGenerators:
    """Unit generators of the three circles at rho.

    DegenerateGenerator if any of h1, h2, h1 h2 is (numerically) central --
    such classes sit over the boundary of the moment tetrahedron, where the
    torus action is not defined.
    """
    axes = _generators(rho.h1.q, rho.h2.q)
    return FlowGenerators(*(AlgebraElement(np.stack(a, axis=-1)) for a in axes))


def _twisted(left: tuple, phi_left: tuple, g: tuple, right: tuple, phi_right: tuple) -> tuple:
    """e^{phi_left left} g e^{phi_right right} for unit axes left, right and
    g given as components, and angles as tuples of one array.

    The arithmetic is that of
    mul(mul(exp_alg(phi_left * left), g), exp_alg(phi_right * right)),
    except where both exponentials are exactly +-I: there the product would
    carry the exponentials' signed zeros, and the result is g times the
    product of their scalar parts, an exact sign flip of g (the same bits
    as the chain on a non-central g).
    """
    # each exponential is built just before its product, so that the two
    # are never held at once
    e = _exp(*(c * phi_left[0] for c in left))
    central, sign = _exact_center(*e), e[0]
    q = _qmul(e, g)
    e = _exp(*(c * phi_right[0] for c in right))
    q = _qmul(q, e)
    if central is not False:
        both = central & _exact_center(*e)
        if np.any(both):
            sign = sign * e[0]
            q = tuple(np.where(both, c * sign, r) for c, r in zip(g, q))
    return q


def _act(phi1, phi2, phi3, g1, h1, g2, h2) -> tuple:
    """The twisted g1 and g2 of act, on angle and slot quaternion arrays:
    the two twists are one level (_level)."""
    xi1, xi2, x_hat, y_hat = _generators(h1, h2)
    g1, g2 = _level(
        _twisted,
        [(x_hat, (phi3,), _split(g1), xi1, (phi1,)), (y_hat, (phi3,), _split(g2), xi2, (phi2,))],
    )
    return _pack(*g1), _pack(*g2)


def act(t: TorusElement, rho: Representation) -> Representation:
    """The torus action:

        (e^{phi3 X^} g1 e^{phi1 xi1^},  h1,  e^{phi3 Y^} g2 e^{phi2 xi2^},  h2).

    h-slots pass through untouched (the moment triple is invariant bitwise);
    the relation is preserved to roundoff.  DegenerateGenerator on boundary
    classes, as for generators(), naming the batch's earliest bad row (a long
    batch runs in blocks, and su2._blockwise refuses it as a whole).
    """
    phis = np.broadcast_arrays(t.phi1, t.phi2, t.phi3)
    slots = [x.q for x in rho.elements()]
    g1, g2 = _blockwise(_act, (phis[0].shape, rho.batch_shape), *phis, *slots)
    h1, h2 = rho.h1, rho.h2
    if g1.shape[:-1] != h1.batch_shape:
        # batched angles over a scalar tuple: fan the untouched slots out
        h1 = GroupElement(np.broadcast_to(h1.q, g1.shape).copy())
        h2 = GroupElement(np.broadcast_to(h2.q, g1.shape).copy())
    return Representation(GroupElement(g1), h1, GroupElement(g2), h2)


@dataclass(frozen=True)
class FlowIdentityReport:
    """Residuals of the two intertwining identities at flow time t:

        e^{tX} h2 = h2 e^{tY}    and    h1 e^{tX} = e^{tY} h1,

    evaluated with the raw (unnormalized) generators X, Y.  Fields are floats
    for a single quadruple and arrays over a batch.
    """

    t: float | np.ndarray
    residual_h2: float | np.ndarray
    residual_h1: float | np.ndarray

    @property
    def max_residual(self) -> float | np.ndarray:
        if np.ndim(self.residual_h2) == 0:
            return max(self.residual_h2, self.residual_h1)
        return np.maximum(self.residual_h2, self.residual_h1)

    def passed(self, tol: float = EPS_MAT) -> bool | np.ndarray:
        ok = self.max_residual < tol
        return ok if np.ndim(ok) else bool(ok)


def verify_flow_identities(rho: Representation, t) -> FlowIdentityReport:
    """Check the conjugation identities that make the third circle close up.

    Uses raw X = 2 vec(h2 h1), Y = 2 vec(h1 h2) (the identities hold for the
    unnormalized generators at any common time, including the degenerate
    commuting case where X = Y and both sides agree trivially).  Batched:
    t may hold one time per quadruple.  The products h2 h1 and h1 h2 are one
    level (_level), then come the two exponentials, and the four products of
    the identities are one more level; each is the arithmetic of su2.mul and
    su2.exp_alg, so a row reads bit for bit as if alone.
    """
    t = np.asarray(t, dtype=np.float64)
    # the slots are fanned out over the times: each level needs one shape per operand
    h1, h2 = (_split(q) for q in np.broadcast_arrays(rho.h1.q, rho.h2.q, t[..., None])[:2])
    ex, ey = (_exp(*(2.0 * c * t for c in p[1:])) for p in _level(_qmul, [(h2, h1), (h1, h2)]))
    a, b, c, d = _level(_qmul, [(ex, h2), (h2, ey), (h1, ex), (ey, h1)])
    residual_h2 = _distance(tuple(p - q for p, q in zip(a, b)))
    residual_h1 = _distance(tuple(p - q for p, q in zip(c, d)))
    if np.ndim(residual_h2) == 0:
        return FlowIdentityReport(float(t), float(residual_h2), float(residual_h1))
    return FlowIdentityReport(t, residual_h2, residual_h1)
