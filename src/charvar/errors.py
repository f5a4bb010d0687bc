"""Exception types shared across the package.

Every error raised by library code derives from :class:`CharVarError` so that
callers (in particular the CLI) can distinguish domain failures from bugs.
A batched map refuses a batch through :func:`_raise_first`, naming its first bad row.
"""

import numpy as np

__all__ = [
    "CharVarError",
    "CenterAmbiguity",
    "ZeroVector",
    "OutsidePolytope",
    "DegenerateGenerator",
    "SectionSolveFailure",
    "FiberSolveFailure",
    "PreconditionViolated",
    "RelationViolated",
    "ClassificationAmbiguity",
]


class CharVarError(Exception):
    """Base class for all library errors."""


class CenterAmbiguity(CharVarError):
    """Logarithm requested at (or numerically at) -I, where the axis is undefined."""


class ZeroVector(CharVarError):
    """A direction was requested from a (numerically) zero vector."""


class OutsidePolytope(CharVarError):
    """A point that must lie in a polytope failed the membership test."""


class DegenerateGenerator(CharVarError):
    """A flow generator is undefined because a required group element is central."""


class SectionSolveFailure(CharVarError):
    """The closed-form section is not finite at the base point (within about
    1e-160 of the vertex x = 0, where its h2 axis is 0/0)."""


class FiberSolveFailure(CharVarError):
    """Fiber-coordinate recovery did not reach the required residual."""


class PreconditionViolated(CharVarError):
    """An operation was called outside its documented domain."""


class RelationViolated(PreconditionViolated):
    """A tuple required to be a class representative does not solve the surface relation."""


class ClassificationAmbiguity(CharVarError):
    """A fixed-point classification residual falls in the undecidable band."""


def _raise_first(bad, error: type, what: str, rows: np.ndarray) -> None:
    """Raise error if the NumPy bool (array) bad is set anywhere, with what, the value of
    rows (whose leading axes are bad's shape) at the first set index and, on a batch, that
    index, as in "(row (2,))"; the error's row is that index, () on a single input."""
    if bad.any():
        i = tuple(np.argwhere(bad)[0].tolist())
        refusal = error(f"{what}: {rows[i]}" + (f" (row {i})" if i else ""))
        refusal.row = i
        raise refusal


def _relabelled(refusal: CharVarError, label: str) -> CharVarError:
    """A refusal of _raise_first on one chunk of a stream, as the same error type with its
    message led by label (as in "line 5") in place of its chunk-relative "(row (i,))"."""
    return type(refusal)(f"{label}: " + str(refusal).removesuffix(f" (row {refusal.row})"))
