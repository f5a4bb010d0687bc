# tau.py
# Trivialization of the interior: an explicit section x -> rho over the open
# simplex and fiber angle coordinates for the three twist circles; and the
# anti-symplectic involution tau, the word map (h1 g1, h1^-1, h2 g2, h2^-1).
#
# Section construction (closed form; every choice is fixed here):
#   input x interior to the standard simplex; a = M_P x, theta_i = pi a_i.
#   (1) h1 = (cos t1, 0, 0, sin t1)                       -- axis z;
#   (2) h2 = (cos t2, sin t2 * m),  m = (sin phi, 0, cos phi) in the xz-plane,
#       cos phi = (cos t1 cos t2 - cos t3)/(sin t1 sin t2), so that
#       tr(h1 h2) = 2 cos t3 (re-derived and unit-tested);
#   (3) g1 = h1^(-1/2) = (cos(t1/2), 0, 0, -sin(t1/2)),
#       g2 = h2^(-1/2) = (cos(t2/2), -sin(t2/2) m).
#   Each g_i commutes with its h_i, so [g1,h1] = [g2,h2] = 1 and the relation
#   holds to roundoff: there is nothing to solve.
#
# Why the section is tau's fixed branch, and Lagrangian: the half-turn j
# about the y-axis sends z to -z and m to -m, so it inverts h1 and h2 and
# carries each g_i = h_i^(-1/2) to h_i^(1/2) = h_i g_i.  Hence
# j s(x) j^-1 = tau(s(x)): every section point is a tau-fixed class.  The
# section is smooth on the open simplex and its moment is x, so it is an open
# piece of the fixed locus of the anti-symplectic involution tau, which is
# Lagrangian.  Over it tau is negation of the fiber angles:
# tau(act(t, s)) = act(-t, tau(s)) = act(-t, s) as classes.
#
# section takes one base point or a batch (..., 3) and runs the same array
# expressions on both, so every row is bit for bit the section of that point
# alone.  The closed form fails only where it is not finite: within ~1e-160
# of the vertex x = 0, sin t1 sin t2 underflows to 0 and cos phi reads 0/0;
# section raises SectionSolveFailure there.
#
# Fiber coordinates, over one class or a batch (every row bit for bit the
# class alone): one conjugator solve puts rho into the section's (h1, h2)
# frame, and phase alignment reads the angles -- (cos l1, sin l1) is the null
# vector of a 2x2 system (one stacked SVD), l3 and l2 are atan2 reads.  The
# angles are canonical modulo the kernel {(0,0,0), (pi,pi,pi)}: phi3 in [0, pi).

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiberSolveFailure, OutsidePolytope, PreconditionViolated
from .errors import SectionSolveFailure, _raise_first
from .flows import TorusElement, act, generators
from .polytope import M_P, STD_DELTA, SimplexPoint, mu_lambda_coordinates
from .repvar import Representation
from .su2 import GroupElement, _cross, _perpendicular, exp_alg, find_conjugator, mul
from .tolerances import EPS_MAT, EPS_REL

__all__ = ["FiberCoordinates", "section", "fiber_coordinates", "tau"]


@dataclass(frozen=True)
class FiberCoordinates:
    """Base points in the open simplex, (..., 3), plus the twist angles over
    the section, a TorusElement of the same batch shape.

    act(angles, section(base)) recovers the described classes; angles are the
    canonical representative modulo the kernel (phi3 in [0, pi))."""

    base: np.ndarray
    angles: TorusElement


def section(x) -> Representation:
    """tau's fixed branch (h1^(-1/2), h1, h2^(-1/2), h2) over the open simplex
    (see module header).

    x is one base point (3,) or a batch (..., 3); a single point gives a
    single quadruple.  Every row is bit for bit the section of that point
    alone.  The relation residual is at roundoff, and mu_lambda equals x to
    roundoff away from the boundary (README "Boundary envelope").
    """
    coords = x.x if isinstance(x, SimplexPoint) else np.asarray(x, dtype=np.float64)
    if coords.shape[-1:] != (3,):
        raise ValueError("section expects base points of shape (..., 3)")
    with np.errstate(all="ignore"):  # the rows refused below may hold any numbers
        theta = np.pi * M_P.apply(coords)
        t1, t2 = theta[..., 0], theta[..., 1]
        cphi = (np.cos(t1) * np.cos(t2) - np.cos(theta[..., 2])) / (np.sin(t1) * np.sin(t2))
    _raise_first((~(STD_DELTA.margin(coords) < 0.0), PreconditionViolated,  # NaN rows too
                  "section needs strictly interior base points", coords),
                 (~np.isfinite(cphi), SectionSolveFailure,
                  "base point too close to the vertex x = 0: the h2 axis is 0/0", coords))
    phi = np.arccos(np.clip(cphi, -1.0, 1.0))
    zero = np.zeros_like(t1)
    m = np.stack([np.sin(phi), zero, np.cos(phi)], axis=-1)  # the axis of h2
    h1 = np.stack([np.cos(t1), zero, zero, np.sin(t1)], axis=-1)
    h2 = np.concatenate((np.cos(t2)[..., None], np.sin(t2)[..., None] * m), axis=-1)
    g1 = np.stack([np.cos(t1 / 2), zero, zero, -np.sin(t1 / 2)], axis=-1)
    g2 = np.concatenate((np.cos(t2 / 2)[..., None], -np.sin(t2 / 2)[..., None] * m), axis=-1)
    return Representation(*(GroupElement(q) for q in (g1, h1, g2, h2)))


def fiber_coordinates(rho: Representation) -> FiberCoordinates:
    """Base points and twist angles of interior classes over the section.

    rho is one class or a batch; every row is bit for bit the call on that
    class alone.  Conjugates rho so its (h1, h2) agree with the section's,
    then reads the three angles by phase alignment against the section's
    g-slots, and checks act(angles, section(base)) against rho to EPS_REL.
    A bad row fails the batch, and the message names the first one:
    OutsidePolytope for a base point outside the simplex (or not finite),
    PreconditionViolated for one on its boundary, FiberSolveFailure where
    the frame or the angles do not check.
    """
    base = mu_lambda_coordinates(rho)
    outside, active = STD_DELTA._region_masks(base)
    _raise_first((outside, OutsidePolytope, "quotient moment triple outside the simplex", base),
                 (np.any(active, axis=-1), PreconditionViolated,
                  "fiber coordinates exist over interior base points only", base))
    s_rho = section(base)
    h_rho, h_section = (GroupElement(r.slots()[..., 1::2, :]) for r in (rho, s_rho))
    k, frame = find_conjugator(h_rho, h_section)
    aligned = rho.conjugated(k)

    gen = generators(s_rho)
    # l1, l3 from g1' = e^{l3 X^} g1_s e^{l1 xi1^}:
    #   g1' e^{-l1 xi1^} (g1_s)^{-1} = cos(l1) A - sin(l1) B = e^{l3 X^}
    g1_inv = s_rho.g1.inverse()
    xi1_q = GroupElement(np.insert(gen.xi1_hat.v, 0, 0.0, axis=-1))
    a_q = mul(aligned.g1, g1_inv)
    b_q = mul(mul(aligned.g1, xi1_q), g1_inv)
    e1 = _perpendicular(gen.X_hat.v)
    e2 = np.stack(_cross(np.moveaxis(gen.X_hat.v, -1, 0), np.moveaxis(e1, -1, 0)), axis=-1)
    # m[i, j] = e_i . (A, -B)_j, each entry one np.vecdot (the arithmetic of np.dot)
    e = np.stack([e1, e2], axis=-2)[..., :, None, :]
    m = np.vecdot(e, np.stack([a_q.vec, -b_q.vec], axis=-2)[..., None, :, :])
    cos_l1, sin_l1 = np.moveaxis(np.linalg.svd(m)[2][..., -1, :], -1, 0)
    f_q = GroupElement(cos_l1[..., None] * a_q.q - sin_l1[..., None] * b_q.q)
    l3 = np.arctan2(np.vecdot(f_q.vec, gen.X_hat.v), f_q.w)
    # l2 from (g2_s)^{-1} e^{-l3 Y^} g2' = e^{l2 xi2^}
    g_q = mul(mul(s_rho.g2.inverse(), exp_alg(gen.Y_hat * -l3[..., None])), aligned.g2)
    l2 = np.arctan2(np.vecdot(g_q.vec, gen.xi2_hat.v), g_q.w)
    phi = np.mod(np.stack([np.arctan2(sin_l1, cos_l1), l2, l3], axis=-1), 2 * np.pi)
    angles = TorusElement.from_array(
        np.where(phi[..., 2:] >= np.pi, np.mod(phi + np.pi, 2 * np.pi), phi)
    )
    worst = np.asarray(act(angles, s_rho).slot_distance(aligned))
    _raise_first(  # the frame and the angles, read on rows that pass the checks above
        (~(frame < EPS_MAT), FiberSolveFailure, "could not align the (h1, h2) frame", frame),
        (~(worst < EPS_REL), FiberSolveFailure, "angle solve residual >= EPS_REL", worst))
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
