"""Exception types shared across the package.

Every error raised by library code derives from :class:`CharVarError` so that
callers (in particular the CLI) can distinguish domain failures from bugs.
A batched map refuses a batch through :func:`_raise_first`, at its earliest bad row.
Each type below is raised by the package: a public error that no other module
names is one that nothing raises, and tests/test_package.py refuses it.
"""

import numpy as np

__all__ = [
    "CharVarError",
    "CenterAmbiguity",
    "ZeroVector",
    "OutsidePolytope",
    "DegenerateGenerator",
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


class FiberSolveFailure(CharVarError):
    """Fiber-coordinate recovery did not reach the required residual."""


class PreconditionViolated(CharVarError):
    """An operation was called outside its documented domain."""


class RelationViolated(PreconditionViolated):
    """A tuple required to be a class representative does not solve the surface relation."""


class ClassificationAmbiguity(CharVarError):
    """A fixed-point classification residual falls in the undecidable band."""


def _raise_first(*checks) -> None:
    """Refuse a batch as its earliest bad row alone.  checks are a row's (bad, error, what,
    rows) in the order it runs them: bad a NumPy bool (array) of the batch shape, rows led by
    that shape.  At the first index i (row-major) set in any bad, raise the first check's
    error set at i as "{what}: {rows[i]} (row {i})", row = i; a single input's i is ()."""
    if failing := [check for check in checks if check[0].any()]:
        i = min(tuple(np.argwhere(bad)[0].tolist()) for bad, *_ in failing)
        _, error, what, rows = next(check for check in failing if check[0][i])
        refusal = error(f"{what}: {rows[i]}" + (f" (row {i})" if i else ""))
        refusal.row = i
        raise refusal


def _relabelled(refusal: CharVarError, label: str) -> CharVarError:
    """A refusal of _raise_first on one chunk of a stream, as the same error type with its
    message led by label (as in "line 5") in place of its chunk-relative "(row (i,))"."""
    return type(refusal)(f"{label}: " + str(refusal).removesuffix(f" (row {refusal.row})"))
