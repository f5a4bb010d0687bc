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
# the arithmetic applies elementwise.  Solvers (find_conjugator,
# stabilizer_type) are single-element only.
#
# Exactness: products where one operand is exactly +-I are computed as exact
# sign flips (no renormalization), and the exponential snaps cos/sin residue
# below SNAP_TOL at multiples of pi/2.  Together these make identities like
# exp(pi * n) = -I and (-I) g (-I) = g hold bitwise, which downstream modules
# assert (torus kernel, interval endpoints).

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


def _all_exact_center(q: np.ndarray) -> bool:
    return bool(np.all(q[..., 1:] == 0.0) and np.all(np.abs(q[..., 0]) == 1.0))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Quaternion product, renormalized.

    Products with an exactly central operand (+-I) are exact sign flips and
    skip renormalization, so central factors never perturb bits.
    """
    qa, qb = a.q, b.q
    if _all_exact_center(qb):
        return GroupElement(qa * qb[..., 0:1])
    if _all_exact_center(qa):
        return GroupElement(qb * qa[..., 0:1])
    aw, av = qa[..., 0], qa[..., 1:]
    bw, bv = qb[..., 0], qb[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1)
    v = aw[..., None] * bv + bw[..., None] * av + np.cross(av, bv)
    q = np.concatenate([w[..., None], v], axis=-1)
    n2 = np.sum(q * q, axis=-1)
    div = np.where(n2 == 1.0, 1.0, np.sqrt(n2))
    return GroupElement(q / div[..., None])


def conjugate(k: GroupElement, g: GroupElement) -> GroupElement:
    """k g k^-1 via the vector-rotation formula.

    Preserves the scalar part w bitwise (conjugation fixes the trace), which
    keeps trace-based coordinates of conjugated elements exactly stable.
    """
    kw, kv = k.q[..., 0], k.q[..., 1:]
    gv = g.q[..., 1:]
    t = 2.0 * np.cross(kv, gv)
    v = gv + kw[..., None] * t + np.cross(kv, t)
    return GroupElement(np.concatenate([g.q[..., 0:1], v], axis=-1))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g h g^-1 h^-1."""
    return mul(mul(g, h), mul(g.inverse(), h.inverse()))


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


def log_grp(g: GroupElement, center_tol: float = EPS_CENTER) -> AlgebraElement:
    """Principal-branch logarithm: the unique v with |v| in [0, pi), exp(v) = g.

    Raises CenterAmbiguity where g is within center_tol of -I (no preferred
    axis); g = +I maps to 0.
    """
    w, vec = g.w, g.vec
    vn = np.linalg.norm(vec, axis=-1)
    if np.any((w < 0.0) & (vn < center_tol)):
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


def _left_mul_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def _right_mul_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


def _conjugation_system(as_: Sequence[GroupElement], bs: Sequence[GroupElement]) -> np.ndarray:
    """The stacked 4n x 4 linear system k a_i - b_i k = 0 in the coordinates of k."""
    if len(as_) != len(bs) or len(as_) == 0:
        raise ValueError("need equally sized, non-empty element lists")
    return np.concatenate(
        [_right_mul_matrix(a.q) - _left_mul_matrix(b.q) for a, b in zip(as_, bs)], axis=0
    )


def conjugator_nullspace(
    as_: Sequence[GroupElement],
    bs: Sequence[GroupElement],
    s_tol: float = 1e-7,
) -> np.ndarray:
    """Orthonormal basis (columns) of {k in R^4 : k a_i = b_i k for all i}.

    The constraints are linear in the quaternion coordinates of k; the basis
    collects the right singular vectors with singular value below s_tol.
    Nonzero quaternions are invertible, so any unit-norm element of an exact
    nullspace is a valid conjugator.
    """
    _, svals, vt = np.linalg.svd(_conjugation_system(as_, bs))
    small = svals < s_tol
    return vt[small].T


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
    _, _, vt = np.linalg.svd(_conjugation_system(as_, bs))
    k = GroupElement.from_quaternion(vt[-1])
    worst = max(float(distance(conjugate(k, a), b)) for a, b in zip(as_, bs))
    if worst < tol:
        return k
    return None


def stabilizer_type(
    xs: Iterable[GroupElement],
    center_tol: float = EPS_CENTER,
    axis_tol: float = EPS_MAT,
) -> StabilizerType:
    """Common-stabilizer class of a list of elements.

    FULL when every element is within center_tol of +-I; TORUS when the
    non-central elements share one axis (pairwise parallel vector parts, sine
    of the angle below axis_tol); CENTER otherwise.
    """
    axes = []
    for x in xs:
        if x.batch_shape:
            raise ValueError("stabilizer_type expects single elements")
        vn = float(np.linalg.norm(x.vec))
        if vn < center_tol:
            continue
        axes.append(x.vec / vn)
    if not axes:
        return StabilizerType.FULL
    for axis in axes[1:]:
        if np.linalg.norm(np.cross(axes[0], axis)) > axis_tol:
            return StabilizerType.CENTER
    return StabilizerType.TORUS
