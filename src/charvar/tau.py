# tau.py
# Trivialization of the interior: an explicit section x -> rho over the open
# simplex and fiber angle coordinates for the three twist circles; and the
# anti-symplectic involution tau, the word map (h1 g1, h1^-1, h2 g2, h2^-1).
#
# Section construction (deterministic; every choice is fixed here):
#   input x interior to the standard simplex; a = M_P x, theta_i = pi a_i.
#   (1) h1 = (cos t1, 0, 0, sin t1)                       -- axis z;
#   (2) h2 = (cos t2, sin t2 * m),  m = (sin phi, 0, cos phi) in the xz-plane,
#       cos phi = (cos t1 cos t2 - cos t3)/(sin t1 sin t2), so that
#       tr(h1 h2) = 2 cos t3 (re-derived and unit-tested);
#   (3) common commutator trace t? = 1 + max(cos 2t1, cos 2t2), halved toward
#       2 while the axis-matching discriminant below is negative (the initial
#       value is not always attainable; the fallback keeps both one-parameter
#       families nonempty and terminates, since the mismatch vanishes as
#       t? -> 2);
#   (4) alignments c_i = (t? - 2 cos 2t_i)/(2 - 2 cos 2t_i) in (0,1): within
#       the family g = (sqrt(c), sqrt(1-c) e^{i psi}, 0) written in h's
#       eigenframe, the commutator is
#           [g,h] = (t?/2,  r cos X,  r sin X,  -(1-c) sin 2t),
#           r = 2 sqrt(c(1-c)) sin t,  X = psi + t - pi/2,
#       so tr[g,h] = 2c + 2(1-c) cos 2t ranges over [2 cos 2t, 2];
#   (5) the two phases are solved in closed form: writing s? for the vector
#       norm sqrt(1-(t?/2)^2) of the commutator, the unit axis n with
#           n . z = p := -(1-c1) sin 2t1 / s?,
#           n . m = q := +(1-c2) sin 2t2 / s?,
#       out-of-plane component +sqrt(D)/sin phi,
#           D = sin^2 phi - (p^2 + q^2 - 2 p q cos phi),
#       makes vec[g1,h1] = s? n and vec[g2,h2] = -s? n, i.e.
#       [g2,h2] = [g1,h1]^{-1} exactly.
#   A damped Gauss-Newton polish on (psi1, psi2) (8 restarts, 200 total
#   iterations) backs up the closed form; SectionSolveFailure if the residual
#   never reaches the tolerance.
#
# section takes one base point or a batch (..., 3) and has one code path for
# both.  Steps (1)-(5) run over arrays; in (3) every row halves its own t?, so
# it keeps the pass count it has alone; the polish runs one row at a time,
# each from its own default_rng(0).  Every row is bit for bit the section of
# that point alone, which holds only because each expression is the scalar
# one: sin^2 phi is np.float_power(sin phi, 2), because a NumPy scalar's ** 2
# calls pow() while an array's ** 2 is a multiply, and the two differ in the
# last bit on about 1 value in 1,000.  Arrays of one row carry NumPy's
# per-call overhead: one point takes about 0.4 ms, a batch about 4 us a row.
#
# Fiber coordinates: conjugate rho into the section's (h1, h2) frame, then
# recover the angles by linear phase alignment -- (cos l1, sin l1) is the
# null vector of a 2x2 system, l3 and l2 follow from single atan2 reads.
# The angles are well-defined modulo the kernel {(0,0,0), (pi,pi,pi)} and are
# canonicalized to the representative with phi3 in [0, pi).

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FiberSolveFailure,
    PreconditionViolated,
    SectionSolveFailure,
)
from .flows import TorusElement, act, generators
from .polytope import M_P, STD_DELTA, SimplexPoint, mu_lambda
from .repvar import Representation, _relation_word, relation_residual
from .su2 import GroupElement, _cross, _perpendicular, conjugate, exp_alg, find_conjugator, mul
from .tolerances import EPS_MAT, EPS_REL

__all__ = ["FiberCoordinates", "section", "fiber_coordinates", "tau"]

NEWTON_RESTARTS = 8
NEWTON_BUDGET = 200


@dataclass(frozen=True)
class FiberCoordinates:
    """Base point in the open simplex plus twist angles over the section.

    act(angles, section(base)) recovers the described class; angles are the
    canonical representative modulo the kernel (phi3 in [0, pi))."""

    base: SimplexPoint
    angles: TorusElement


def _as_interior_points(x) -> np.ndarray:
    coords = x.x if isinstance(x, SimplexPoint) else np.asarray(x, dtype=np.float64)
    if coords.shape[-1:] != (3,):
        raise ValueError("section expects base points of shape (..., 3)")
    outside = STD_DELTA.margin(coords) >= 0.0
    if np.any(outside):
        raise PreconditionViolated(
            f"section needs strictly interior base points, got {coords[outside]}"
        )
    return coords


def _family_element(c, psi) -> np.ndarray:
    u = np.sqrt(1.0 - c)
    return np.stack([np.sqrt(c), u * np.cos(psi), u * np.sin(psi), np.zeros_like(u)], axis=-1)


def _axis_m(phi) -> np.ndarray:
    """The unit axis m = (sin phi, 0, cos phi) of h2, shape (..., 3)."""
    return np.stack([np.sin(phi), np.zeros_like(phi), np.cos(phi)], axis=-1)


def _build(theta1, theta2, phi, c1, c2, psi1, psi2) -> Representation:
    """Assemble the quadruple from angles and phases (g2 rotated into place)."""
    zero = np.zeros_like(theta1)
    h1 = GroupElement(np.stack([np.cos(theta1), zero, zero, np.sin(theta1)], axis=-1))
    h2 = GroupElement(
        np.concatenate((np.cos(theta2)[..., None], np.sin(theta2)[..., None] * _axis_m(phi)), axis=-1)
    )
    g1 = GroupElement(_family_element(c1, psi1))
    r = GroupElement(np.stack([np.cos(phi / 2), zero, np.sin(phi / 2), zero], axis=-1))
    g2 = conjugate(r, GroupElement(_family_element(c2, psi2)))
    return Representation(g1, h1, g2, h2)


_Y_AXIS = np.array([0.0, 1.0, 0.0])
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def _axis_match(theta1, theta2, phi, tstar):
    """Alignments c_i, the axis components p, q of the module header, and
    the discriminant at commutator trace tstar, over arrays of rows; the
    last output is False where tstar is not attainable (s* = 0 or a
    negative discriminant)."""
    c1 = (tstar - 2 * np.cos(2 * theta1)) / (2 - 2 * np.cos(2 * theta1))
    c2 = (tstar - 2 * np.cos(2 * theta2)) / (2 - 2 * np.cos(2 * theta2))
    sstar = np.sqrt(np.maximum((2.0 - tstar) * (2.0 + tstar), 0.0)) / 2.0
    p = -(1.0 - c1) * np.sin(2 * theta1) / sstar
    q = +(1.0 - c2) * np.sin(2 * theta2) / sstar
    # float_power, not ** 2: see the module header
    sin2phi = np.float_power(np.sin(phi), 2)
    disc = sin2phi - (p * p + q * q - 2.0 * p * q * np.cos(phi))
    return c1, c2, p, q, sin2phi, disc, (sstar != 0.0) & ~(disc < 0.0)


def _closed_form_phases(theta1, theta2, phi, c1, c2, p, q, sin2phi, disc):
    """(c1, c2, psi1, psi2) matching the commutator axes, from the
    _axis_match outputs at an attainable tstar."""
    a = (p - q * np.cos(phi)) / sin2phi
    b = (q - p * np.cos(phi)) / sin2phi
    c_out = np.sqrt(disc) / np.sin(phi)
    n_hat = a[:, None] * _Z_AXIS + b[:, None] * _axis_m(phi) + c_out[:, None] * _Y_AXIS
    # phase of g1 from the xy-part of n
    chi1 = np.arctan2(n_hat[:, 1], n_hat[:, 0])
    psi1 = chi1 - theta1 + np.pi / 2
    # phase of g2 from -n rotated back into h2's eigenframe (R_y(-phi))
    w = -n_hat
    chi2 = np.arctan2(w[:, 1], w[:, 0] * np.cos(phi) - w[:, 2] * np.sin(phi))
    psi2 = chi2 - theta2 + np.pi / 2
    return c1, c2, psi1, psi2


def section(x, tol: float = EPS_REL) -> Representation:
    """The deterministic section over the open simplex (see module header).

    x is one base point (3,) or a batch (..., 3); a single point gives a
    single quadruple.  Every row is bit for bit the section of that point
    alone.  The result has mu_lambda equal to x to roundoff (the h-slots
    realize the trace angles exactly) and relation residual < tol.
    """
    coords = _as_interior_points(x)
    rows = coords.reshape(-1, 3)
    theta = np.pi * M_P.apply(rows)
    t1, t2 = theta[:, 0], theta[:, 1]
    cphi = (np.cos(t1) * np.cos(t2) - np.cos(theta[:, 2])) / (np.sin(t1) * np.sin(t2))
    phi = np.arccos(np.clip(cphi, -1.0, 1.0))
    if np.any(np.sin(phi) < 1e-12):
        raise SectionSolveFailure(
            "base point too close to the boundary: h1, h2 nearly aligned"
        )

    # each row halves its own commutator trace toward 2 until it is attainable
    # and keeps the _axis_match outputs of the pass that attains it
    tstar = 1.0 + np.maximum(np.cos(2 * t1), np.cos(2 * t2))
    match = np.empty((6, len(rows)))
    todo = np.arange(len(rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            *outputs, solved = _axis_match(t1[todo], t2[todo], phi[todo], tstar[todo])
            for kept, out in zip(match, outputs):
                kept[todo[solved]] = out[solved]
            todo = todo[~solved]
            if todo.size == 0:
                break
            tstar[todo] = 2.0 - (2.0 - tstar[todo]) / 2.0  # halve the gap toward 2
        else:
            raise SectionSolveFailure("no attainable common commutator trace found")
    phases = _closed_form_phases(t1, t2, phi, *match)
    # single points build and check as single quadruples: scalar arithmetic
    # is cheaper than arrays of one row
    shape = coords.shape[:-1]
    params = [p.reshape(shape) for p in (t1, t2, phi, *phases)]
    rho = _build(*params)
    stuck = np.flatnonzero(~(relation_residual(rho) < tol))
    if stuck.size:
        slots = rho.slots().reshape(-1, 4, 4)
        for i in stuck:
            slots[i] = _polish(*(p.flat[i] for p in params), tol).slots()
        rho = Representation(*(GroupElement(slots[:, j].reshape(shape + (4,)).copy()) for j in range(4)))
    return rho


def _polish(theta1, theta2, phi, c1, c2, psi1, psi2, tol) -> Representation:
    """Damped Gauss-Newton on the two phases of one row: within ~1e-9 of an
    edge the closed form can leave a residual just above tol."""
    rng = np.random.default_rng(0)
    budget = NEWTON_BUDGET
    best = np.inf
    for restart in range(NEWTON_RESTARTS):
        if restart == 0:
            p1, p2 = psi1, psi2
        else:
            p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
        while budget > 0:
            budget -= 1
            current = _build(theta1, theta2, phi, c1, c2, p1, p2)
            # residual of [g1,h1][g2,h2] against identity, as a 4-vector
            full = _relation_word(current)
            r_vec = full.q - np.array([1.0, 0.0, 0.0, 0.0])
            res = float(np.sqrt(2.0) * np.linalg.norm(r_vec))
            if res < tol:
                return current
            best = min(best, res)
            step = 1e-7
            jac = np.empty((4, 2))
            for j, (d1, d2) in enumerate(((step, 0.0), (0.0, step))):
                bumped = _build(theta1, theta2, phi, c1, c2, p1 + d1, p2 + d2)
                jac[:, j] = (_relation_word(bumped).q - full.q) / step
            delta, *_ = np.linalg.lstsq(jac, -r_vec, rcond=None)
            norm = float(np.linalg.norm(delta))
            if norm > 0.5:  # damping
                delta *= 0.5 / norm
            p1, p2 = p1 + delta[0], p2 + delta[1]
        if budget <= 0:
            break
    raise SectionSolveFailure(
        f"phase solve stalled at residual {best:.3e} (tolerance {tol:.1e})"
    )


def _canonical_angles(l1: float, l2: float, l3: float) -> TorusElement:
    arr = np.mod(np.array([l1, l2, l3]), 2 * np.pi)
    if arr[2] >= np.pi:
        arr = np.mod(arr + np.pi, 2 * np.pi)
    return TorusElement(arr[0], arr[1], arr[2])


def fiber_coordinates(rho: Representation, tol: float = EPS_REL) -> FiberCoordinates:
    """Base point and twist angles of an interior class over the section.

    Conjugates rho so its (h1, h2) agree with the section's, then reads the
    three angles by phase alignment against the section's g-slots.  The
    recovered angles satisfy act(angles, section(base)) == rho up to overall
    conjugation, verified to `tol`; FiberSolveFailure otherwise.
    """
    if rho.batch_shape != ():
        raise ValueError("fiber_coordinates is scalar-only")
    base = mu_lambda(rho)
    if not base.is_interior:
        raise PreconditionViolated(
            "fiber coordinates exist over interior base points only"
        )
    s_rho = section(base.x, tol)
    k = find_conjugator([rho.h1, rho.h2], [s_rho.h1, s_rho.h2], EPS_MAT)
    if k is None:
        raise FiberSolveFailure("could not align the (h1, h2) frame")
    aligned = rho.conjugated(k)

    gen = generators(s_rho)
    # l1, l3 from g1' = e^{l3 X^} g1_s e^{l1 xi1^}:
    #   g1' e^{-l1 xi1^} (g1_s)^{-1} = cos(l1) A - sin(l1) B = e^{l3 X^}
    a_q = mul(aligned.g1, s_rho.g1.inverse())
    xi1_q = GroupElement(np.concatenate(([0.0], gen.xi1_hat.v)))
    b_q = mul(mul(aligned.g1, xi1_q), s_rho.g1.inverse())
    e1 = _perpendicular(gen.X_hat.v)
    e2 = np.array(_cross(gen.X_hat.v, e1))
    m = np.array(
        [
            [float(np.dot(a_q.vec, e1)), -float(np.dot(b_q.vec, e1))],
            [float(np.dot(a_q.vec, e2)), -float(np.dot(b_q.vec, e2))],
        ]
    )
    _, _, vt = np.linalg.svd(m)
    cos_l1, sin_l1 = vt[-1]
    l1 = float(np.arctan2(sin_l1, cos_l1))
    f_q = GroupElement(cos_l1 * a_q.q - sin_l1 * b_q.q)
    l3 = float(np.arctan2(np.dot(f_q.vec, gen.X_hat.v), f_q.w))
    # l2 from (g2_s)^{-1} e^{-l3 Y^} g2' = e^{l2 xi2^}
    g_q = mul(
        mul(s_rho.g2.inverse(), exp_alg(-l3 * gen.Y_hat)), aligned.g2
    )
    l2 = float(np.arctan2(np.dot(g_q.vec, gen.xi2_hat.v), g_q.w))

    angles = _canonical_angles(l1, l2, l3)
    worst = act(angles, s_rho).slot_distance(aligned)
    if worst >= tol:
        raise FiberSolveFailure(
            f"angle solve residual {worst:.3e} exceeds {tol:.1e}"
        )
    return FiberCoordinates(base=base, angles=angles)


def tau(rho: Representation) -> Representation:
    """The anti-symplectic involution (g1, h1, g2, h2) -> (h1 g1, h1^-1, h2 g2, h2^-1).

    [h g, h^-1] = [g, h]^-1 inverts each handle's commutator, so the relation
    holds; the traces of h1, h2 and h1 h2 are kept, so the moment point is
    fixed; the generators (xi1, xi2, X, Y) go to (-xi1, -xi2, -Y, -X), so
    tau(act(t, rho)) = act(-t, tau(rho)).  Batches and boundary classes work.
    """
    h1, h2 = rho.h1, rho.h2
    return Representation(mul(h1, rho.g1), h1.inverse(), mul(h2, rho.g2), h2.inverse())
