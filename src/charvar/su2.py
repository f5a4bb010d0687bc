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
# the arithmetic applies elementwise.  The simultaneous-conjugator solve,
# find_conjugator, takes two GroupElements whose last batch axis is the
# element list, (..., n, 4); quadruples reach it as
# GroupElement(repvar.Representation.slots()) (n = 4).  find_conjugator
# decides nothing: it returns each row's candidate k and worst conjugation
# residual, and every caller (the class-equality decision, sigma fixedness,
# the fiber chart) compares that residual with its own tolerance.  The solve
# needs no case split: any nonzero null vector of k a_i = b_i k is a
# conjugator, so lists with a one-, two- or four-dimensional solution space
# (irreducible, abelian or central) are decided alike.  stabilizer_type reads
# the same layout.  Both return the scalar form on a single list.
#
# Exactness: products are exact sign flips per row where one operand is exactly
# +-I (no renormalization, whatever the other rows of a batch hold), and the
# exponential snaps cos/sin residue below SNAP_TOL at multiples of pi/2.
# Together these make identities like exp(pi * n) = -I and (-I) g (-I) = g
# hold bitwise, which downstream modules assert (torus kernel, interval
# endpoints).
#
# The order of operations in the kernels (_qmul, _conjugate, _cross, _exp) is
# part of the exactness contract: every component is computed by the
# expression written there, grouped as written, and fixed-seed outputs are
# reproducible bit for bit only because of it.  Regrouping the arithmetic (a
# "simpler" sum, a fused dot product, a matrix form) changes output bits and
# is a regression; tests/test_su2.py checks the kernels bitwise against the
# vector/cross-product formulation they replaced and exp_alg against its
# np.linalg.norm form.
#
# The batched kernels work on component arrays (_split, _pack) and
# accumulate in place into temporaries they allocated themselves (_sum):
# a += b is a + b bit for bit, so in-place accumulation keeps the grouping
# written, and it never writes to an argument.  Row norms (_row_norm) sum
# the squares in order, ((s0 + s1) + s2) + s3, which is np.linalg.norm over
# axis -1 on every batch shape; np.vecdot sums in another order, and
# _vector_norm keeps its arithmetic only where that is the contract.
#
# Blocked evaluation: a long one-axis batch is evaluated in row blocks of
# _BLOCK = 8,192 rows (_blockwise), by conjugate here and by flows.act,
# repvar.relation_residual and polytope.moment_coordinates.  Their per-block
# kernels call no public function, so a traced run counts one call per
# entry point, not one per block.  Each kernel allocates several dozen
# component temporaries the size of its batch; at 1e5 rows each is 800 KB,
# and the allocator hands that memory back and faults it in again on every
# call.  At 8,192 rows a temporary is 64 KB, stays in a 2 MB L2 cache and is
# reused from the allocator's free lists.  On the ensemble pipeline (1e5
# rows, 2 vCPU) blocks of 4,096 to 16,384 rows ran within noise of each
# other and about 1.5x faster than the whole batch, and 2,048 and 32,768
# were slower (BENCH_blocked_rows.json).  Every kernel's arithmetic is per
# row, so no output bit depends on the block size.  Batches of at most
# _BLOCK rows, and batches with more than one axis, run whole in one call.
# A kernel that refuses a block (flows.act's generator norms) names a row
# of the block; _blockwise then re-runs it on the whole batch, whose
# refusal names the whole batch's earliest bad row, so a caller never
# learns that its batch ran in blocks.
#
# Stacked levels: the products on one level of a product tree do not depend
# on each other -- the two commutators of the surface word (_surface_word,
# behind relation_residual) and then their four products, the two products
# of a commutator (_commutator), and in flows.act the products h2 h1 and
# h1 h2, the four generator norms and the two twists.  On a small batch
# each costs mostly NumPy's per-call dispatch (about 43 dispatches per
# _qmul), so _level runs a level as one call over its operands stacked on a
# new leading axis while calls x rows is at most _STACK_ROWS = _BLOCK // 4
# (single elements stay chained: NumPy scalars cost less than arrays); the
# surface word then makes 3 _qmul calls instead of 7, a commutator 2
# instead of 3, and act 3 instead of 6.  Above that bound the stack copies
# and the larger temporaries cost about as much as the calls they save (on
# 2 vCPU a level of 4 calls on 1,024 rows ran slower stacked than chained),
# and the level runs as chained calls, as every 8,192-row block of a long
# batch does (BENCH_stacked_levels.json).  Stacking changes no row's
# arithmetic, so no output bit depends on the grouping.

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CenterAmbiguity, CharVarError, ZeroVector, _raise_first
from .tolerances import EPS_CENTER, EPS_MAT

__all__ = [
    "GroupElement",
    "AlgebraElement",
    "StabilizerType",
    "mul",
    "conjugate",
    "commutator",
    "distance",
    "is_central",
    "exp_alg",
    "log_grp",
    "trace_angle",
    "haar_sample",
    "conjugator_nullspace",
    "find_conjugator",
    "stabilizer_type",
]

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
        _raise_first((n2 == 0.0, ZeroVector, "cannot normalize a zero quaternion", q))
        return cls(q / np.sqrt(n2)[..., None])  # sqrt(1.0) == 1.0: a unit q is divided by 1

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

    def unit(self) -> "AlgebraElement":
        """The unit-norm element along self; ZeroVector at zero."""
        n = self.norm
        _raise_first((n == 0.0, ZeroVector, "no direction defined for a zero algebra element",
                      self.v))
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
# blocked evaluation
# ---------------------------------------------------------------------------

# Rows per block of a long batch; see the header.
_BLOCK = 8192


def _blockwise(kernel, batches: tuple, *operands):
    """kernel(*operands), in row blocks when the batch is one long axis.

    batches holds the operands' batch shapes.  When they broadcast to one
    axis of n > _BLOCK rows, the kernel runs on each block of _BLOCK rows,
    with the operands whose first axis has length n sliced to the block and
    the others passed whole, and each block's results are written into
    arrays of n rows allocated after the first block.  Otherwise the kernel
    makes its one call.  The kernel returns an array or a tuple of arrays,
    batch axis first, and so does _blockwise.  A refusal (CharVarError) in a
    block names a row of that block, so it re-runs the kernel on the whole
    batch, which refuses at the whole batch's earliest bad row.
    """
    n = 0
    for b in batches:
        if len(b) > 1:
            return kernel(*operands)
        if b and b[0] > n:
            n = b[0]
    if n <= _BLOCK:
        return kernel(*operands)
    sliced = [a.ndim > 0 and a.shape[0] == n for a in operands]
    out = None
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        try:
            parts = kernel(*(a[rows] if s else a for a, s in zip(operands, sliced)))
        except CharVarError:
            return kernel(*operands)
        single = isinstance(parts, np.ndarray)
        if single:
            parts = (parts,)
        if out is None:
            out = [np.empty((n,) + p.shape[1:], p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[rows] = p
        del parts, p  # free this block's results before the next block runs
    return out[0] if single else tuple(out)


# Stacked rows (calls on one level of a product tree times the rows of
# their batch) up to which the level runs as one call; see the header.
_STACK_ROWS = _BLOCK // 4


def _level(kernel, calls: list) -> list:
    """[kernel(*args) for args in calls]: the independent calls on one level
    of a product tree.  Every argument is a tuple of component arrays of one
    shape (an angle array is a tuple of one), the argument at each position
    has one shape over the calls, and kernel returns a tuple of component
    arrays or one array.

    While len(calls) times the rows of the arguments' broadcast batch is at
    most _STACK_ROWS, each argument is stacked over the calls on a new
    leading axis, with its batch axes aligned on the right, and kernel runs
    once; each call's result is its row of the stacked result.  Otherwise,
    and on single elements, whose NumPy scalar arithmetic costs less than
    any array's, kernel runs once per call.  The kernels' arithmetic is per
    row, so both give the same bits.
    """
    shapes = [arg[0].shape for arg in calls[0]]
    shape = shapes[0] if len(set(shapes)) == 1 else np.broadcast_shapes(*shapes)
    if not shape or len(calls) * math.prod(shape) > _STACK_ROWS:
        return [kernel(*args) for args in calls]
    stacks = []
    for j, s in enumerate(shapes):
        # (components, calls) + s, each component one contiguous array
        a = np.ascontiguousarray(np.array([args[j] for args in calls]).swapaxes(0, 1))
        if len(s) < len(shape):
            a = a.reshape(a.shape[:2] + (1,) * (len(shape) - len(s)) + s)
        stacks.append(tuple(a))
    out = kernel(*stacks)
    return list(out) if isinstance(out, np.ndarray) else list(zip(*out))


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

    x has the full batch shape; w may have fewer axes (_conjugate passes g's
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
    c0 = a1 * b2
    c0 -= a2 * b1
    c1 = a2 * b0
    c1 -= a0 * b2
    c2 = a0 * b1
    c2 -= a1 * b0
    return c0, c1, c2


def _perpendicular(n: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each row of n (..., 3): n x e_i, with e_i
    the basis vector along the least-magnitude component of n, normalized."""
    probe = np.eye(3)[np.argmin(np.abs(n), axis=-1)]
    d = np.stack(_cross(np.moveaxis(n, -1, 0), np.moveaxis(probe, -1, 0)), axis=-1)
    return d / np.linalg.norm(d, axis=-1)[..., None]


def _sum(acc, *terms):
    """((acc + terms[0]) + terms[1]) + ..., accumulated into acc.

    acc must be a temporary the caller allocated with the full batch shape
    (a product of both operands' components): arrays are updated in place,
    numpy scalars rebound.  a += b is a + b bit for bit, so the grouping is
    the one written at the call.
    """
    for t in terms:
        acc += t
    return acc


def _row_norm(cs) -> np.ndarray:
    """Euclidean norm of the rows whose components are cs, the squares summed
    in order, ((s0 + s1) + s2) + ...: np.linalg.norm(axis=-1) bit for bit on
    any batch shape, single rows included (np.vecdot sums differently)."""
    c0, *rest = cs
    return np.sqrt(_sum(c0 * c0, *(c * c for c in rest)))


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


def _qvec(aw, ai, aj, ak, bw, bi, bj, bk):
    """Component i of a product's vector part, (aw*bi + bw*ai) + (a x b)_i,
    for the cyclic (i, j, k); (a x b)_i = aj*bk - ak*bj is NumPy's cross
    product arithmetic.  Its temporaries are freed when it returns."""
    c = aj * bk
    c -= ak * bj
    return _sum(aw * bi, bw * ai, c)


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
    # w = aw*bw - (((0.0 + ax*bx) + ay*by) + az*bz): the dot starts from
    # +0.0, as a NumPy sum does, so an all -0.0 dot is +0.0 (p + 0.0 is 0.0 + p)
    w = aw * bw
    w -= _sum(ax * bx, 0.0, ay * by, az * bz)
    x = _qvec(aw, ax, ay, az, bw, bx, by, bz)
    y = _qvec(aw, ay, az, ax, bw, by, bz, bx)
    z = _qvec(aw, az, ax, ay, bw, bz, bx, by)
    # a product with |q|^2 == 1.0 is divided by exactly 1: sqrt(1.0) == 1.0
    n = _row_norm((w, x, y, z))
    w /= n
    x /= n
    y /= n
    z /= n
    q = w, x, y, z
    for center, s, other in ((ca, a[0], b), (cb, b[0], a)):
        if center is not False:
            q = tuple(np.where(center, c * s, r) for c, r in zip(other, q))
    return q


def _commutator(g: tuple, h: tuple) -> tuple:
    """[g, h] = (g h)(g^-1 h^-1) on component quadruples: the products g h
    and g^-1 h^-1 are one level (_level), then their product."""
    gw, gx, gy, gz = g
    hw, hx, hy, hz = h
    return _qmul(*_level(_qmul, [(g, h), ((gw, -gx, -gy, -gz), (hw, -hx, -hy, -hz))]))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Quaternion product, renormalized.

    Products with an exactly central operand (+-I) are exact sign flips and
    skip renormalization, so central factors never perturb bits.
    """
    return GroupElement(_pack(*_qmul(_split(a.q), _split(b.q))))


def _conjugate(k: np.ndarray, g: np.ndarray) -> np.ndarray:
    """conjugate on quaternion arrays k, g of shape (..., 4)."""
    kw, kx, ky, kz = _split(k)
    gw, gx, gy, gz = _split(g)
    tx, ty, tz = _cross((kx, ky, kz), (gx, gy, gz))
    tx *= 2.0
    ty *= 2.0
    tz *= 2.0
    cx, cy, cz = _cross((kx, ky, kz), (tx, ty, tz))
    # each vector component is (g + kw * t) + (k x t), and g + p is p + g
    x, y, z = (_sum(kw * t, gc, c) for t, gc, c in ((tx, gx, cx), (ty, gy, cy), (tz, gz, cz)))
    return _pack(gw, x, y, z)


def conjugate(k: GroupElement, g: GroupElement) -> GroupElement:
    """k g k^-1 via the vector-rotation formula.

    Preserves the scalar part w bitwise (conjugation fixes the trace), which
    keeps trace-based coordinates of conjugated elements exactly stable.
    """
    return GroupElement(_blockwise(_conjugate, (k.batch_shape, g.batch_shape), k.q, g.q))


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """[g, h] = g h g^-1 h^-1."""
    return GroupElement(_pack(*_commutator(_split(g.q), _split(h.q))))


def _surface_word(g1: np.ndarray, h1: np.ndarray, g2: np.ndarray, h2: np.ndarray) -> tuple:
    """The components of the genus-2 surface word [g1, h1][g2, h2] of
    quaternion arrays."""
    a, b, c, d = (_split(x) for x in (g1, h1, g2, h2))
    return _qmul(*_level(_commutator, [(a, b), (c, d)]))


def _distance(d: tuple) -> np.ndarray:
    """Frobenius distance from the quaternion differences d = (dw, dx, dy, dz)."""
    return np.sqrt(2.0) * _row_norm(d)


def distance(a: GroupElement, b: GroupElement) -> np.ndarray:
    """Frobenius norm of the matrix difference (= sqrt(2) * quaternion distance)."""
    return _distance(_split(a.q - b.q))


def is_central(g: GroupElement) -> np.ndarray:
    """True where g is within EPS_CENTER of +-I (vector-part norm below it)."""
    return np.linalg.norm(g.vec, axis=-1) < EPS_CENTER


# ---------------------------------------------------------------------------
# exponential / logarithm / trace angle
# ---------------------------------------------------------------------------


def _snap_trig(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap (cos, sin) pairs to exact values at multiples of pi/2.

    Returns c and s themselves when no pair is in snap range."""
    if not ((np.abs(c) < SNAP_TOL) | (np.abs(s) < SNAP_TOL)).any():
        return c, s
    at_pi = (np.abs(s) < SNAP_TOL) & (np.abs(np.abs(c) - 1.0) < _SNAP_DEV)
    at_half = (np.abs(c) < SNAP_TOL) & (np.abs(np.abs(s) - 1.0) < _SNAP_DEV)
    c = np.where(at_pi, np.copysign(1.0, c), c)
    s = np.where(at_pi, 0.0, s)
    s = np.where(at_half, np.copysign(1.0, s), s)
    c = np.where(at_half, 0.0, c)
    return c, s


def _exp(vx, vy, vz) -> tuple:
    """The components (w, x, y, z) of exp of the algebra element(s) with
    components (vx, vy, vz); see exp_alg."""
    theta = _row_norm((vx, vy, vz))
    c, s = _snap_trig(np.cos(theta), np.sin(theta))
    big = theta > 1e-8
    if big.all():
        coef = s / theta
    else:
        coef = np.where(big, s / np.where(big, theta, 1.0), 1.0 - theta * theta / 6.0)
    return c, vx * coef, vy * coef, vz * coef


def exp_alg(v: AlgebraElement) -> GroupElement:
    """Closed-form exponential su(2) -> SU(2).

    For theta = |v|: result has scalar part cos(theta) and vector part
    sin(theta) * v / theta (series-continued at theta -> 0).
    """
    return GroupElement(_pack(*_exp(*_split(v.v))))


def log_grp(g: GroupElement) -> AlgebraElement:
    """Principal-branch logarithm: the unique v with |v| in [0, pi), exp(v) = g.

    Raises CenterAmbiguity where g is within EPS_CENTER of -I (no preferred
    axis); g = +I maps to 0.
    """
    w, vec = g.w, g.vec
    vn = np.linalg.norm(vec, axis=-1)
    _raise_first(((w < 0.0) & (vn < EPS_CENTER), CenterAmbiguity,
                  "logarithm undefined within tolerance of -I", g.q))
    theta = np.arctan2(vn, w)
    safe = np.where(vn > 0.0, vn, 1.0)
    return AlgebraElement(vec * (theta / safe)[..., None])


def _trace_angle(w, x, y, z) -> np.ndarray:
    """trace_angle from the components (w, x, y, z) of quaternion(s)."""
    return np.arctan2(_row_norm((x, y, z)), w) / np.pi


def trace_angle(g: GroupElement) -> np.ndarray:
    """Modified trace coordinate f(g) = arccos(tr(g)/2) / pi, in [0, 1], read as
    atan2(|vec|, w) / pi: to roundoff on the whole group, where arccos(w)
    reads an angle of 1e-9 as 0."""
    return _trace_angle(*_split(g.q))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def haar_sample(rng: np.random.Generator, shape: tuple[int, ...] = ()) -> GroupElement:
    """Haar-uniform element(s): a normalized 4-dimensional Gaussian."""
    q = rng.normal(size=shape + (4,))
    if not shape:
        # one draw: _row_norm's operations in Python floats, the same IEEE
        # arithmetic without NumPy's per-call cost on a single row
        w, x, y, z = q.tolist()
        return GroupElement(q / math.sqrt(((w * w + x * x) + y * y) + z * z))
    return GroupElement(q / _row_norm(_split(q))[..., None])


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


# Singular values below this bound span conjugator_nullspace's basis.
_NULL_SVAL = 1e-7


def _check_lists(a: GroupElement, b: GroupElement) -> None:
    """ValueError unless a and b hold equally long, non-empty element lists
    on their last batch axis, the layout of find_conjugator."""
    if a.q.ndim < 2 or b.q.ndim < 2 or a.q.shape[-2] != b.q.shape[-2] or a.q.shape[-2] == 0:
        raise ValueError("need equally sized, non-empty element lists")


def conjugator_nullspace(a: GroupElement, b: GroupElement) -> np.ndarray:
    """Orthonormal basis (columns) of {k in R^4 : k a_i = b_i k for all i},
    for one pair of element lists a, b of shape (n, 4).

    The constraints are linear in the quaternion coordinates of k; the basis
    collects the right singular vectors with singular value below
    _NULL_SVAL.  Nonzero quaternions are invertible, so any unit-norm element
    of an exact nullspace is a valid conjugator.  ValueError for batches,
    whose bases would have different sizes, and as in find_conjugator.
    """
    _check_lists(a, b)
    if a.q.ndim != 2 or b.q.ndim != 2:
        raise ValueError("conjugator_nullspace takes one pair of element lists")
    _, svals, vt = np.linalg.svd(_conjugation_system(a.q, b.q))
    return vt[svals < _NULL_SVAL].T


def find_conjugator(a: GroupElement, b: GroupElement) -> tuple[GroupElement, np.ndarray]:
    """The conjugator solve over element lists a, b, each list on the last
    batch axis, (..., n, 4).

    Returns (k, worst) over the common batch shape: k is the unit candidate
    of each system k a_i - b_i k = 0, its smallest right singular vector, and
    worst is the largest Frobenius residual of k a_i k^-1 against b_i.  A
    conjugator exists where worst is below the caller's tolerance; traces are
    conjugation invariants, so mismatched traces give a large worst.  On one
    list k is a single element and worst a float.  One stacked SVD serves the
    whole batch, and every row is bit for bit the solve of that row alone.
    ValueError for lists of unequal length or empty ones.
    """
    _check_lists(a, b)
    vt = np.linalg.svd(_conjugation_system(a.q, b.q), full_matrices=False)[2]
    k = GroupElement.from_quaternion(vt[..., -1, :])
    moved = conjugate(GroupElement(k.q[..., None, :]), a)
    return k, np.max(distance(moved, b), axis=-1)


def stabilizer_type(x: GroupElement, axis_tol: float = EPS_MAT):
    """Common-stabilizer class of each element list on the last batch axis
    of x, (..., n, 4).

    FULL when every element is within EPS_CENTER of +-I (an empty list
    included); TORUS when the non-central elements share one axis (pairwise
    parallel vector parts, sine of the angle below axis_tol); CENTER
    otherwise.  A StabilizerType for one list, an object array of them over
    the batch shape; the norms are _vector_norm and the sines _cross, so
    every row is the read of its list alone.
    """
    if x.q.ndim < 2:
        raise ValueError("stabilizer_type expects element lists, shape (..., n, 4)")
    vec = x.q[..., 1:]
    # [()] takes the element of a 0-d result and leaves an array whole
    if vec.shape[-2] == 0:
        return np.full(vec.shape[:-2], StabilizerType.FULL, dtype=object)[()]
    vn = _vector_norm(vec)
    moving = ~(vn < EPS_CENTER)  # the non-central elements, whose axes must agree
    axes = vec / np.where(moving, vn, 1.0)[..., None]
    first = np.take_along_axis(axes, np.argmax(moving, axis=-1)[..., None, None], axis=-2)
    sines = _vector_norm(np.stack(_cross(np.moveaxis(first, -1, 0), np.moveaxis(axes, -1, 0)), -1))
    apart = np.any(moving & (sines > axis_tol), axis=-1)
    kind = np.where(apart, StabilizerType.CENTER, StabilizerType.TORUS)
    return np.where(np.any(moving, axis=-1), kind, StabilizerType.FULL)[()]
