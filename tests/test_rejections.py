"""Every batched precondition refuses its batch the same way: the batch
raises the error its earliest bad row raises alone, over all of a row's
checks, and the message names that row and its value (errors._raise_first),
and so does the error's row.

Each case builds a batch whose earliest bad row is (2,), or (1, 2) on a 2-D
batch, and that row on its own.  The earliest-row cases give a map with more
than one check two bad rows: row 2 fails a later check than row 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from charvar.errors import (
    ClassificationAmbiguity,
    DegenerateGenerator,
    OutsidePolytope,
    PreconditionViolated,
    RelationViolated,
    ZeroVector,
)
from charvar.flows import generators
from charvar.polytope import boundary_commutation_check, moment_mu, mu_lambda
from charvar.repvar import Representation, new_checked
from charvar.sampler import density_witness
from charvar.sigma import blowup_point, classify_fixed_point, n2_interval, rp2_fiber_point, sigma
from charvar.su2 import AlgebraElement, GroupElement, commutator, distance, haar_sample
from charvar.tau import fiber_coordinates, section
from charvar.tolerances import EPS_CENTER, EPS_MAT

ONE = np.array([1.0, 0.0, 0.0, 0.0])


def pure_units(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return np.insert(v / np.linalg.norm(v, axis=-1, keepdims=True), 0, 0.0, axis=-1)


def diag(angles: np.ndarray) -> np.ndarray:
    q = np.zeros(angles.shape + (4,))
    q[..., 0], q[..., 3] = np.cos(angles), np.sin(angles)
    return q


def swap_slots(rng) -> np.ndarray:
    """Four swap quadruples (a, b, b, a), which solve the relation, as slots."""
    a, b = haar_sample(rng, (4,)).q, haar_sample(rng, (4,)).q
    return np.stack([a, b, b, a], axis=1)


def blowup_args(rng) -> list[np.ndarray]:
    """g, h and k of four good blowup points."""
    g, h = haar_sample(rng, (4,)), haar_sample(rng, (4,))
    comm = commutator(g, h).vec
    k = np.insert(comm / np.linalg.norm(comm, axis=-1, keepdims=True), 0, 0.0, axis=-1)
    return [g.q.copy(), h.q.copy(), k]


def rows(arrays, i):
    """The arguments as a batch, and their row i alone."""
    return arrays, [a[i] for a in arrays]


def quaternion_zero(rng):
    q = rng.normal(size=(2, 3, 4))
    q[1, 2] = 0.0
    return (q,), (q[1, 2],)


def algebra_zero(rng):
    v = rng.normal(size=(4, 3))
    v[2] = 0.0
    return (AlgebraElement(v),), (AlgebraElement(v[2]),)


def slot_not_unit(rng):
    slots = swap_slots(rng)
    slots[2, 0] *= 2.0
    batch, one = rows([slots[:, i] for i in range(4)], 2)
    return [GroupElement(q) for q in batch], [GroupElement(q) for q in one]


def relation_broken(rng):
    slots = swap_slots(rng)
    slots[2, 0] = haar_sample(rng).q
    batch, one = rows([slots[:, i] for i in range(4)], 2)
    return [GroupElement(q) for q in batch], [GroupElement(q) for q in one]


def quadruple(slots: np.ndarray, i):
    rho = Representation.from_slots(slots)
    return (rho,), (rho[i],)


def moment_not_finite(rng):
    slots = swap_slots(rng)
    slots[2, 1] = np.nan
    return quadruple(slots, 2)


def quotient_not_finite(rng):
    slots = np.stack([swap_slots(rng), swap_slots(rng)])
    slots[1, 2, 3] = np.nan
    return quadruple(slots, (1, 2))


def not_sigma_fixed(rng):
    slots = swap_slots(rng)
    slots[2] = section(np.array([0.2, 0.3, 0.1])).slots()  # interior classes are never fixed
    return quadruple(slots, 2)


def central_h1(rng):
    slots = haar_sample(rng, (4, 4)).q.copy()
    slots[2, 1] = ONE
    return quadruple(slots, 2)


def sigma_off_relation(rng):
    slots = swap_slots(rng)
    slots[2] = haar_sample(rng, (4,)).q
    return quadruple(slots, 2)


def pillow_batch_off_relation(rng):
    slots = np.stack([swap_slots(rng)[:3], swap_slots(rng)[:3]])
    slots[1, 2] = haar_sample(rng, (4,)).q
    return quadruple(slots, (1, 2))


def blowup_case(change):
    def build(rng):
        args = blowup_args(rng)
        change(rng, *args)
        batch, one = rows(args, 2)
        return [GroupElement(q) for q in batch], [GroupElement(q) for q in one]

    return build


def k_not_square_root(rng, g, h, k):
    k[2] = ONE


def commuting_pair(rng, g, h, k):
    g[2], h[2] = diag(np.array([0.3, 0.9]))
    k[2] = [0.0, 0.0, 0.0, 1.0]


def k_not_commuting(rng, g, h, k):
    k[2] = pure_units(rng, 1)[0]


def g_not_finite(rng, g, h, k):
    g[2] = np.nan


def rp2_not_square_root(rng):
    k = pure_units(rng, 4)
    k[2] = haar_sample(rng).q
    return (GroupElement(k),), (GroupElement(k[2]),)


def alpha_outside(rng):
    alpha = np.linspace(0.0, np.pi / 2, 4)
    alpha[2] = 2.0
    return (0.7, 1.3, alpha), (0.7, 1.3, alpha[2])


def theta_not_finite(rng):
    theta = rng.uniform(0.3, 2.8, size=4)
    theta[2] = np.nan
    return (theta, 1.3, 0.4), (theta[2], 1.3, 0.4)


def s_not_finite(rng):
    s = rng.uniform(0.3, 2.8, size=4)
    s[2] = np.inf
    return (0.7, s, 0.4), (0.7, s[2], 0.4)


def central_arc(rng):
    theta, s = rng.uniform(0.3, 2.8, size=(2, 2, 3))
    theta[1, 2], s[1, 2] = 0.0, np.pi
    return (theta, s, 0.4), (theta[1, 2], s[1, 2], 0.4)


def abelian_slots(rng) -> np.ndarray:
    return diag(rng.uniform(0.3, 2.8, size=(4, 4)))


def witness(slots: np.ndarray):
    rho = Representation.from_slots(slots)
    return (rho, 0.5), (rho[2], 0.5)


def nonabelian_start(rng):
    slots = abelian_slots(rng)
    slots[2, 0] = haar_sample(rng).q
    return witness(slots)


def central_slot(rng):
    slots = abelian_slots(rng)
    slots[2, 1] = ONE
    return witness(slots)


def t_outside(rng):
    rho = Representation.from_slots(abelian_slots(rng))
    t = np.linspace(0.0, 1.0, 4)
    t[2] = 1.5
    return (rho, t), (rho[2], t[2])


def base_on_boundary(rng):
    x = np.full((2, 3, 3), 0.2)
    x[1, 2] = [0.5, 0.5, 0.0]
    return (x,), (x[1, 2],)


# earliest-row cases: row 2 fails a later check of the map than row 3


def relation_before_slot(rng):
    slots = swap_slots(rng)
    slots[2, 0] = haar_sample(rng).q
    slots[3, 1] *= 2.0
    batch, one = rows([slots[:, i] for i in range(4)], 2)
    return [GroupElement(q) for q in batch], [GroupElement(q) for q in one]


def central_h2_before_h1(rng):
    slots = haar_sample(rng, (4, 4)).q.copy()
    slots[2, 3], slots[3, 1] = ONE, ONE
    return quadruple(slots, 2)


def central_product_before_h1(rng):
    slots = haar_sample(rng, (4, 4)).q.copy()
    slots[2, 3] = slots[2, 1] * [1.0, -1.0, -1.0, -1.0]  # h2 = h1^-1
    slots[3, 1] = ONE
    return quadruple(slots, 2)


def relation_before_k(rng, g, h, k):
    g[2] = np.nan
    k[3] = ONE


def gray_centrality_before_not_fixed(rng):
    # a swap quadruple (g, h, h, g) is fixed; with [g,h] 3 tol off 1 it is in the gray zone
    g, h = diag(np.array([0.7, 1.1]))
    tilt = np.array([0.0, 1e-6, 0.0, 0.0])
    off = distance(commutator(GroupElement(g), GroupElement.from_quaternion(h + tilt)),
                   GroupElement.identity())  # linear in the tilt, this small
    h = GroupElement.from_quaternion(h + tilt * 3 * EPS_MAT / off).q
    slots = swap_slots(rng)
    slots[2] = [g, h, h, g]
    slots[3] = section(np.array([0.2, 0.3, 0.1])).slots()  # interior classes are never fixed
    return quadruple(slots, 2)


def boundary_before_outside(rng):
    slots = section(np.full((4, 3), 0.2)).slots().copy()
    slots[2] = abelian_slots(rng)[0]
    slots[3, 1] = np.nan
    return quadruple(slots, 2)


def central_slot_before_t(rng):
    slots = abelian_slots(rng)
    slots[2, 1] = ONE
    rho = Representation.from_slots(slots)
    t = np.linspace(0.0, 1.0, 4)
    t[3] = 1.5
    return (rho, t), (rho[2], t[2])


def angle_before_alpha(rng):
    theta, alpha = rng.uniform(0.3, 2.8, size=4), np.linspace(0.0, np.pi / 2, 4)
    theta[2], alpha[3] = np.nan, 2.0
    return (theta, 1.3, alpha), (theta[2], 1.3, alpha[2])


CASES = {
    "from_quaternion": (GroupElement.from_quaternion, quaternion_zero, ZeroVector,
                        "cannot normalize a zero quaternion", (1, 2)),
    "unit": (AlgebraElement.unit, algebra_zero, ZeroVector,
             "no direction defined for a zero algebra element", (2,)),
    "new_checked-slot": (new_checked, slot_not_unit, PreconditionViolated,
                         "slot g1 is not a finite unit quaternion", (2,)),
    "new_checked-relation": (new_checked, relation_broken, RelationViolated,
                             "surface relation violated: residual", (2,)),
    "boundary_commutation_check": (boundary_commutation_check, moment_not_finite,
                                   OutsidePolytope, "violates the tetrahedron", (2,)),
    "moment_mu": (moment_mu, moment_not_finite, OutsidePolytope,
                  "moment triple violates the tetrahedron", (2,)),
    "mu_lambda": (mu_lambda, quotient_not_finite, OutsidePolytope,
                  "quotient moment triple outside the simplex", (1, 2)),
    "classify_fixed_point": (classify_fixed_point, not_sigma_fixed, PreconditionViolated,
                             "class is not sigma-fixed", (2,)),
    "classify_fixed_point-relation": (classify_fixed_point, pillow_batch_off_relation,
                                      PreconditionViolated, "sigma input violates the relation",
                                      (1, 2)),
    "generators": (generators, central_h1, DegenerateGenerator,
                   f"h1 is within {EPS_CENTER:g} of the center", (2,)),
    "sigma": (sigma, sigma_off_relation, PreconditionViolated,
              "sigma input violates the relation", (2,)),
    "blowup_point-k": (blowup_point, blowup_case(k_not_square_root), PreconditionViolated,
                       "blowup_point needs a unit k with k^2 = -1", (2,)),
    "blowup_point-commutator": (blowup_point, blowup_case(commuting_pair),
                                PreconditionViolated, "blowup_point needs [g,h] != 1", (2,)),
    "blowup_point-commuting": (blowup_point, blowup_case(k_not_commuting),
                               PreconditionViolated,
                               "blowup_point needs k to commute with [g,h]", (2,)),
    "blowup_point-relation": (blowup_point, blowup_case(g_not_finite), PreconditionViolated,
                              "blowup_point result violates the relation", (2,)),
    "rp2_fiber_point": (rp2_fiber_point, rp2_not_square_root, PreconditionViolated,
                        "rp2_fiber_point needs k^2 = -1", (2,)),
    "n2_interval-alpha": (n2_interval, alpha_outside, PreconditionViolated,
                          "interval parameter must lie in [0, pi/2]", (2,)),
    "n2_interval-theta": (n2_interval, theta_not_finite, PreconditionViolated,
                          "arc angles must be finite", (2,)),
    "n2_interval-s": (n2_interval, s_not_finite, PreconditionViolated,
                      "arc angles must be finite", (2,)),
    "n2_interval-central": (n2_interval, central_arc, PreconditionViolated,
                            "degenerate arc: both angles are multiples of pi (central pair)",
                            (1, 2)),
    "density_witness-abelian": (density_witness, nonabelian_start, PreconditionViolated,
                                "density witness needs an abelian start point", (2,)),
    "density_witness-central": (density_witness, central_slot, PreconditionViolated,
                                "density witness needs every slot noncentral", (2,)),
    "density_witness-t": (density_witness, t_outside, PreconditionViolated,
                          "path parameter must lie in [0, 1]", (2,)),
    "section-interior": (section, base_on_boundary, PreconditionViolated,
                         "section needs strictly interior base points", (1, 2)),
    "new_checked-earliest": (new_checked, relation_before_slot, RelationViolated,
                             "surface relation violated: residual", (2,)),
    "generators-earliest-h2": (generators, central_h2_before_h1, DegenerateGenerator,
                               f"h2 is within {EPS_CENTER:g} of the center", (2,)),
    "generators-earliest-product": (generators, central_product_before_h1, DegenerateGenerator,
                                    f"h2*h1 is within {EPS_CENTER:g} of the center", (2,)),
    "blowup_point-earliest": (blowup_point, blowup_case(relation_before_k), PreconditionViolated,
                              "blowup_point result violates the relation", (2,)),
    "fiber_coordinates-earliest": (fiber_coordinates, boundary_before_outside,
                                   PreconditionViolated,
                                   "fiber coordinates exist over interior base points only",
                                   (2,)),
    "density_witness-earliest": (density_witness, central_slot_before_t, PreconditionViolated,
                                 "density witness needs every slot noncentral", (2,)),
    "n2_interval-earliest": (n2_interval, angle_before_alpha, PreconditionViolated,
                             "arc angles must be finite", (2,)),
    "classify_fixed_point-earliest": (classify_fixed_point, gray_centrality_before_not_fixed,
                                      ClassificationAmbiguity,
                                      "[g1,h1] centrality residual in the gray zone", (2,)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_row_names_itself(case):
    fn, build, error, text, row = CASES[case]
    batch, one = build(np.random.default_rng(11))
    with pytest.raises(error) as raised:
        fn(*batch)
    message = str(raised.value)
    assert type(raised.value) is error
    assert text in message
    assert message.endswith(f" (row {row})")
    assert raised.value.row == row
    with pytest.raises(error) as alone:
        fn(*one)
    assert type(alone.value) is error
    assert text in str(alone.value) and "(row" not in str(alone.value)
    assert alone.value.row == ()
