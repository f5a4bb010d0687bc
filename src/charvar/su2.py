# su2.py
# Arithmetic for K = SU(2) and its Lie algebra k = su(2).
#
# Convention (fixed once, used everywhere):
#   A group element is stored as a unit quaternion q = (w, x, y, z) and viewed
#   as the complex matrix
#
#       M(q) = [[ w + i z,  x + i y],
#               [-x + i y,  w - i z]],
#
#   so that tr M = 2w exactly, det M = |q|^2, and the pure units map to
#
#       e_x -> [[0, 1], [-1, 0]],   e_y -> [[0, i], [i, 0]],
#       e_z -> [[i, 0], [0, -i]]  (= diag(i, -i)).
#
#   Quaternion multiplication matches matrix multiplication under M (checked
#   against the complex oracle in the tests).  An algebra element is stored as
#   a real 3-vector v, viewed as the anti-Hermitian traceless matrix
#   x*M(e_x) + y*M(e_y) + z*M(e_z) with eigenvalues +-i*|v|; the invariant
#   inner product is the Euclidean dot product (invariant form up to scale).
#
# All types are immutable values (arrays are frozen); every operation is a
# pure function, safe under concurrency.  Operations broadcast: a GroupElement
# may hold a single quaternion (shape (4,)) or a batch (shape (..., 4)), and
# the arithmetic applies elementwise.  The simultaneous-conjugator solve is
# one batched kernel (_find_conjugators) over element lists stacked as
# (..., n, 4) arrays; quadruples reach it as repvar.Representation.slots()
# (n = 4), and find_conjugator and conjugator_nullspace take a Python list of
# single elements through _element_lists.  _find_conjugators decides nothing:
# it returns each row's candidate k and worst conjugation residual, and every
# caller (find_conjugator, the class-equality decision, sigma fixedness)
# compares that residual with its own tolerance.  The solve needs no case
# split: any nonzero null vector of k a_i = b_i k is a conjugator, so lists
# with a one-, two- or four-dimensional solution space (irreducible, abelian
# or central) are decided alike.  The stabilizer read is batched too:
# _stabilizer_types takes (..., n, 4) stacks, and stabilizer_type is its read
# of one list of single elements.
#
# Exactness: products are exact sign flips per row where one operand is exactly
# +-I (no renormalization, whatever the other rows of a batch hold), and the
# exponential snaps cos/sin residue below SNAP_TOL at multiples of pi/2.
# Together these make identities like exp(pi * n) = -I and (-I) g (-I) = g
# hold bitwise, which downstream modules assert (torus kernel, interval
# endpoints).
#
# The order of operations in the kernels (_qmul, conjugate, _cross) is part
# of the exactness contract: every component is computed by the expression
# written there, grouped as written, and fixed-seed outputs are reproducible
# bit for bit only because of it.  Regrouping the arithmetic (a "simpler"
# sum, a fused dot product, a matrix form) changes output bits and is a
# regression; tests/test_su2.py checks the kernels bitwise against the
# vector/cross-product formulation they replaced.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CenterAmbiguity, ZeroVector
from .tolerances import EPS_CENTER, EPS_MAT

# Angles within SNAP_TOL of a multiple of pi/2 are treated as exact: the
# corresponding cos/sin residue (about 1.2e-16 at pi itself, up to ~8e-16
# after unit-normalization error in the axis) is replaced by 0 / +-1.
SNAP_TOL = 1e-14
_SNAP_DEV = 1e-15


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A point of SU(2): unit quaternion(s) of shape (..., 4), order (w,x,y,z)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.shape[-1:] != (4,):
            raise ValueError("GroupElement expects shape (..., 4)")
        object.__setattr__(self, "q", _ro(q))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_quaternion(cls, q) -> "GroupElement":
        """Build from quaternion components, renormalizing to unit norm."""
        q = np.array(q, dtype=np.float64)
        n2 = np.sum(q * q, axis=-1)
        if np.any(n2 == 0.0):
            raise ZeroVector("cannot normalize a zero quaternion")
        div = np.where(n2 == 1.0, 1.0, np.sqrt(n2))
        return cls(q / div[..., None])

    @classmethod
    def identity(cls, shape: tuple[int, ...] = ()) -> "GroupElement":
        q = np.zeros(shape + (4,))
        q[..., 0] = 1.0
        return cls(q)

    @classmethod
    def minus_identity(cls, shape: tuple[int, ...] = ()) -> "GroupElement":
        q = np.zeros(shape + (4,))
        q[..., 0] = -1.0
        return cls(q)

    @classmethod
    def from_matrix(cls, m) -> "GroupElement":
        """Recover the quaternion from a 2x2 complex matrix in the fixed convention."""
        m = np.asarray(m, dtype=np.complex128)
        if m.shape[-2:] != (2, 2):
            raise ValueError("expected shape (..., 2, 2)")
        w = 0.5 * (m[..., 0, 0] + m[..., 1, 1]).real
        z = 0.5 * (m[..., 0, 0] - m[..., 1, 1]).imag
        x = 0.5 * (m[..., 0, 1] - m[..., 1, 0]).real
        y = 0.5 * (m[..., 0, 1] + m[..., 1, 0]).imag
        return cls.from_quaternion(np.stack([w, x, y, z], axis=-1))

    # -- views -------------------------------------------------------------

    @property
    def w(self) -> np.ndarray:
        return self.q[..., 0]

    @property
    def vec(self) -> np.ndarray:
        return self.q[..., 1:]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.q.shape[:-1]

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex matrix view M(q)."""
        w, x, y, z = (self.q[..., i] for i in range(4))
        m = np.empty(self.batch_shape + (2, 2), dtype=np.complex128)
        m[..., 0, 0] = w + 1j * z
        m[..., 0, 1] = x + 1j * y
        m[..., 1, 0] = -x + 1j * y
        m[..., 1, 1] = w - 1j * z
        return m

    # -- arithmetic --------------------------------------------------------

    def inverse(self) -> "GroupElement":
        return GroupElement(self.q * np.array([1.0, -1.0, -1.0, -1.0]))

    def trace(self) -> np.ndarray:
        return 2.0 * self.w

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return mul(self, other)

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.q)

    def __getitem__(self, idx) -> "GroupElement":
        return GroupElement(self.q[idx])

    def __repr__(self) -> str:
        if self.batch_shape:
            return f"GroupElement(batch {self.batch_shape})"
        return "GroupElement([{:+.6f}, {:+.6f}, {:+.6f}, {:+.6f}])".format(*self.q)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A point of su(2): real 3-vector(s) of shape (..., 3)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.shape[-1:] != (3,):
            raise ValueError("AlgebraElement expects shape (..., 3)")
        object.__setattr__(self, "v", _ro(v))

    @property
    def norm(self) -> np.ndarray:
        return np.linalg.norm(self.v, axis=-1)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.v.shape[:-1]

    @property
    def matrix(self) -> np.ndarray:
        """The anti-Hermitian traceless 2x2 view."""
        x, y, z = (self.v[..., i] for i in range(3))
        m = np.empty(self.batch_shape + (2, 2), dtype=np.complex128)
        m[..., 0, 0] = 1j * z
        m[..., 0, 1] = x + 1j * y
        m[..., 1, 0] = -x + 1j * y
        m[..., 1, 1] = -1j * z
        return m

    def unit(self, tol: float = 0.0) -> "AlgebraElement":
        """The unit-norm element along self; ZeroVector at (numerically) zero."""
        n = self.norm
        if np.any(n <= tol):
            raise ZeroVector("no direction defined for a zero algebra element")
        return AlgebraElement(self.v / np.asarray(n)[..., None])

    def __mul__(self, s: float) -> "AlgebraElement":
        return AlgebraElement(self.v * s)

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.v)

    def __getitem__(self, idx) -> "AlgebraElement":
        return AlgebraElement(self.v[idx])

    def __repr__(self) -> str:
        if self.batch_shape:
            return f"AlgebraElement(batch {self.batch_shape})"
        return "AlgebraElement([{:+.6f}, {:+.6f}, {:+.6f}])".format(*self.v)


class StabilizerType(Enum):
    FULL = "full"
    TORUS = "torus"
    CENTER = "center"


# ---------------------------------------------------------------------------
# products and conjugation
# ---------------------------------------------------------------------------


def _split(q: np.ndarray) -> np.ndarray:
    """The components (w, x, y, z) of quaternion(s) q, stacked on axis 0.

    Unpacking the result gives four arrays of the batch shape (numpy scalars
    for a single quaternion), so the kernels below broadcast like q does.
    """
    return q.transpose(-1, *range(q.ndim - 1))


def _pack(w, x, y, z) -> np.ndarray:
    """The (..., 4) array with components w, x, y, z.

    x has the full batch shape; w may have fewer axes (conjugate passes g's
    scalar part unchanged) and is broadcast.
    """
    q = np.empty(x.shape + (4,))
    q[..., 0] = w
    q[..., 1] = x
    q[..., 2] = y
    q[..., 3] = z
    return q


def _cross(a, b) -> tuple:
    """a x b from component triples (a length-3 vector unpacks to one).

    The operations and their order are NumPy's cross product's:
    (a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0).
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _perpendicular(n: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each row of n (..., 3): n x e_i, with e_i
    the basis vector along the least-magnitude component of n, normalized."""
    probe = np.eye(3)[np.argmin(np.abs(n), axis=-1)]
    d = np.stack(_cross(np.moveaxis(n, -1, 0), np.moveaxis(probe, -1, 0)), axis=-1)
    return d / np.linalg.norm(d, axis=-1)[..., None]


def _vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v with the arithmetic of np.linalg.norm
    on one vector, a dot product (np.linalg.norm(axis=-1) sums differently)."""
    return np.sqrt(np.vecdot(v, v))


def _exact_center(w, x, y, z):
    """Which elements are exactly +-I: a bool when all agree, else a mask over the batch."""
    if x.ndim == 0:
        return bool(not (x or y or z) and abs(w) == 1.0)
    n = x.size  # a component nonzero in every element rules them all out
    if np.count_nonzero(x) == n or np.count_nonzero(y) == n or np.count_nonzero(z) == n:
        return False
    mask = abs(w) == 1.0
    for c in (x, y, z):
        if np.count_nonzero(c):  # an all-zero component rules no element out
            mask &= c == 0.0
    return mask if mask.any() and not mask.all() else bool(mask.all())


def _qmul(a: tuple, b: tuple) -> tuple:
    """Renormalized product of component quadruples a = (w, x, y, z) and b.

    The one quaternion-product kernel; see the exactness note in the header.
    """
    cb = _exact_center(*b)
    if cb is True:
        return tuple(c * b[0] for c in a)
    ca = _exact_center(*a)
    if ca is True and cb is False:
        return tuple(c * a[0] for c in b)
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    cx, cy, cz = _cross((ax, ay, az), (bx, by, bz))
    # the dot starts from +0.0, as a NumPy sum does: an all -0.0 dot is +0.0
    w = aw * bw - (((0.0 + ax * bx) + ay * by) + az * bz)
    x = (aw * bx + bw * ax) + cx
    y = (aw * by + bw * ay) + cy
    z = (aw * bz + bw * az) + cz
    # a product with |q|^2 == 1.0 is divided by exactly 1: sqrt(1.0) == 1.0
    n = np.sqrt(((w * w + x * x) + y * y) + z * z)
    q = w / n, x / n, y / n, z / n
    for center, s, other in ((ca, a[0], b), (cb, b[0], a)):
        if center is not False:
            q = tuple(np.where(center, c * s, r) for c, r in zip(other, q))
    return q


def _commutator(g: tuple, h: tuple) -> tuple:
    """[g, h] = (g h)(g^-1 h^-1) on component quadruples."""
    gw, gx, gy, gz = g
    hw, hx, hy, hz = h
    return _qmul(_qmul(g, h), _qmul((gw, -gx, -gy, -gz), (hw, -hx, -hy, -hz)))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Quaternion product, renormalized.

    Products with an exactly central operand (+-I) are exact sign flips and
    skip renormalization, so central factors never perturb bits.
    """
    return GroupElement(_pack(*_qmul(_split(a.q), _split(b.q))))


def conjugate(k: GroupElement, g: GroupElement) -> GroupElement:
    """k g k^-1 via the vector-rotation formula.

    Preserves the scalar part w bitwise (conjugation fixes the trace), which
    keeps trace-based coordinates of conjugated elements exactly stable.
    """
    kw, kx, ky, kz = _split(k.q)
    gw, gx, gy, gz = _split(g.q)
    tx, ty, tz = (2.0 * c for c in _cross((kx, ky, kz), (gx, gy, gz)))
    cx, cy, cz = _cross((kx, ky, kz), (tx, ty, tz))
    return GroupElement(_pack(gw, (gx + kw * tx) + cx, (gy + kw * ty) + cy, (gz + kw * tz) + cz))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g h g^-1 h^-1."""
    return GroupElement(_pack(*_commutator(_split(g.q), _split(h.q))))


def _surface_word(
    g1: GroupElement, h1: GroupElement, g2: GroupElement, h2: GroupElement
) -> GroupElement:
    """The genus-2 surface word [g1, h1][g2, h2], fused on components."""
    a, b, c, d = (_split(x.q) for x in (g1, h1, g2, h2))
    return GroupElement(_pack(*_qmul(_commutator(a, b), _commutator(c, d))))


def distance(a: GroupElement, b: GroupElement) -> np.ndarray:
    """Frobenius norm of the matrix difference (= sqrt(2) * quaternion distance)."""
    return np.sqrt(2.0) * np.linalg.norm(a.q - b.q, axis=-1)


def is_central(g: GroupElement, tol: float = EPS_CENTER) -> np.ndarray:
    """True where g is within tol of +-I (vector-part norm below tol)."""
    return np.linalg.norm(g.vec, axis=-1) < tol


# ---------------------------------------------------------------------------
# exponential / logarithm / trace angle
# ---------------------------------------------------------------------------


def _snap_trig(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap (cos, sin) pairs to exact values at multiples of pi/2."""
    c = np.array(c, dtype=np.float64, copy=True)
    s = np.array(s, dtype=np.float64, copy=True)
    at_pi = (np.abs(s) < SNAP_TOL) & (np.abs(np.abs(c) - 1.0) < _SNAP_DEV)
    at_half = (np.abs(c) < SNAP_TOL) & (np.abs(np.abs(s) - 1.0) < _SNAP_DEV)
    c = np.where(at_pi, np.copysign(1.0, c), c)
    s = np.where(at_pi, 0.0, s)
    s = np.where(at_half, np.copysign(1.0, s), s)
    c = np.where(at_half, 0.0, c)
    return c, s


def exp_alg(v: AlgebraElement) -> GroupElement:
    """Closed-form exponential su(2) -> SU(2).

    For theta = |v|: result has scalar part cos(theta) and vector part
    sin(theta) * v / theta (series-continued at theta -> 0).
    """
    arr = v.v
    theta = np.linalg.norm(arr, axis=-1)
    c, s = _snap_trig(np.cos(theta), np.sin(theta))
    safe = np.where(theta > 1e-8, theta, 1.0)
    coef = np.where(theta > 1e-8, s / safe, 1.0 - theta * theta / 6.0)
    q = np.concatenate([c[..., None], arr * coef[..., None]], axis=-1)
    return GroupElement(q)


def log_grp(g: GroupElement) -> AlgebraElement:
    """Principal-branch logarithm: the unique v with |v| in [0, pi), exp(v) = g.

    Raises CenterAmbiguity where g is within EPS_CENTER of -I (no preferred
    axis); g = +I maps to 0.
    """
    w, vec = g.w, g.vec
    vn = np.linalg.norm(vec, axis=-1)
    if np.any((w < 0.0) & (vn < EPS_CENTER)):
        raise CenterAmbiguity("logarithm undefined within tolerance of -I")
    theta = np.arctan2(vn, w)
    safe = np.where(vn > 0.0, vn, 1.0)
    return AlgebraElement(vec * (theta / safe)[..., None])


def trace_angle(g: GroupElement) -> np.ndarray:
    """Modified trace coordinate f(g) = arccos(tr(g)/2) / pi, in [0, 1]."""
    return np.arccos(np.clip(g.w, -1.0, 1.0)) / np.pi


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def haar_sample(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> GroupElement:
    """Haar-uniform element(s): a normalized 4-dimensional Gaussian."""
    q = rng.normal(size=shape + (4,))
    n = np.linalg.norm(q, axis=-1)
    while np.any(n == 0.0):  # pragma: no cover - measure zero
        bad = n == 0.0
        q[bad] = rng.normal(size=(int(np.sum(bad)), 4))
        n = np.linalg.norm(q, axis=-1)
    return GroupElement(q / n[..., None])


# ---------------------------------------------------------------------------
# conjugation solves
# ---------------------------------------------------------------------------


# Quaternion products as 4 x 4 matrices on the other factor's coordinates:
# _left_mul_matrix(q) @ k = q k and _right_mul_matrix(q) @ k = k q, with
# entry [r, c] = SIGN[r, c] * q[_MUL_INDEX[r, c]].  A sign of +-1.0 is exact,
# so the entries are the components of q bit for bit.
_MUL_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]]
)
_RIGHT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]]
)


def _left_mul_matrix(q: np.ndarray) -> np.ndarray:
    """(..., 4, 4) matrices of k -> q k for quaternions q of shape (..., 4)."""
    return q[..., _MUL_INDEX] * _LEFT_SIGN


def _right_mul_matrix(q: np.ndarray) -> np.ndarray:
    """(..., 4, 4) matrices of k -> k q for quaternions q of shape (..., 4)."""
    return q[..., _MUL_INDEX] * _RIGHT_SIGN


def _conjugation_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stacked (..., 4n, 4) linear system k a_i - b_i k = 0 in the
    coordinates of k, for element lists a, b of shape (..., n, 4)."""
    m = _right_mul_matrix(a) - _left_mul_matrix(b)
    return m.reshape(m.shape[:-3] + (4 * m.shape[-3], 4))


def _element_lists(
    as_: Sequence[GroupElement], bs: Sequence[GroupElement]
) -> tuple[np.ndarray, np.ndarray]:
    """Two equally long, non-empty element lists as (..., n, 4) arrays, the
    layout of _find_conjugators; for a quadruple it equals
    Representation.slots()."""
    if len(as_) != len(bs) or len(as_) == 0:
        raise ValueError("need equally sized, non-empty element lists")
    return np.stack([a.q for a in as_], axis=-2), np.stack([b.q for b in bs], axis=-2)


def _find_conjugators(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conjugator solve over a batch of element lists a, b of shape (..., n, 4).

    Returns (k, worst) over the common batch shape: k is the unit candidate
    (..., 4) of each system, its smallest right singular vector, and worst is
    the largest Frobenius residual of k a_i k^-1 against b_i.  A conjugator
    exists where worst is below the caller's tolerance.  One stacked SVD
    serves the whole batch, and every row is bit for bit the solve of that
    row alone.
    """
    _, _, vt = np.linalg.svd(_conjugation_system(a, b))
    k = GroupElement.from_quaternion(vt[..., -1, :])
    moved = conjugate(GroupElement(k.q[..., None, :]), GroupElement(a))
    return k.q, np.max(distance(moved, GroupElement(b)), axis=-1)


# Singular values below this bound span conjugator_nullspace's basis.
_NULL_SVAL = 1e-7


def conjugator_nullspace(
    as_: Sequence[GroupElement],
    bs: Sequence[GroupElement],
) -> np.ndarray:
    """Orthonormal basis (columns) of {k in R^4 : k a_i = b_i k for all i}.

    The constraints are linear in the quaternion coordinates of k; the basis
    collects the right singular vectors with singular value below
    _NULL_SVAL.  Nonzero quaternions are invertible, so any unit-norm element
    of an exact nullspace is a valid conjugator.
    """
    _, svals, vt = np.linalg.svd(_conjugation_system(*_element_lists(as_, bs)))
    return vt[svals < _NULL_SVAL].T


def find_conjugator(
    as_: Sequence[GroupElement],
    bs: Sequence[GroupElement],
    tol: float = EPS_MAT,
) -> Optional[GroupElement]:
    """A k in SU(2) with k a_i k^-1 = b_i for all i, or None if none exists.

    The candidate is the smallest right singular vector of the stacked linear
    system k a_i - b_i k = 0; it is accepted iff the worst conjugation
    residual (Frobenius) is below tol.  Absence is a valid return: traces are
    conjugation invariants, so mismatched traces simply yield None.
    """
    k, worst = _find_conjugators(*_element_lists(as_, bs))
    return GroupElement(k) if worst < tol else None


def _stabilizer_types(x: np.ndarray, axis_tol: float = EPS_MAT) -> np.ndarray:
    """stabilizer_type of each element list of a (..., n, 4) stack, as an
    object array of StabilizerType over the batch shape.  The norms are
    _vector_norm and the sines _cross, the arithmetic of one list alone."""
    vec = x[..., 1:]
    vn = _vector_norm(vec)
    moving = ~(vn < EPS_CENTER)  # the non-central elements, whose axes must agree
    axes = vec / np.where(moving, vn, 1.0)[..., None]
    first = np.take_along_axis(axes, np.argmax(moving, axis=-1)[..., None, None], axis=-2)
    sines = _vector_norm(np.stack(_cross(np.moveaxis(first, -1, 0), np.moveaxis(axes, -1, 0)), -1))
    apart = np.any(moving & (sines > axis_tol), axis=-1)
    kind = np.where(apart, StabilizerType.CENTER, StabilizerType.TORUS)
    return np.where(np.any(moving, axis=-1), kind, StabilizerType.FULL)


def stabilizer_type(xs: Iterable[GroupElement], axis_tol: float = EPS_MAT) -> StabilizerType:
    """Common-stabilizer class of a list of single elements.

    FULL when every element is within EPS_CENTER of +-I; TORUS when the
    non-central elements share one axis (pairwise parallel vector parts, sine
    of the angle below axis_tol); CENTER otherwise.  The one-list read of
    _stabilizer_types.
    """
    q = np.array([x.q for x in xs], dtype=np.float64)
    if q.ndim > 2:
        raise ValueError("stabilizer_type expects single elements")
    return _stabilizer_types(q, axis_tol)[()] if q.size else StabilizerType.FULL
