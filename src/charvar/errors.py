"""Exception types shared across the package.

Every error raised by library code derives from :class:`CharVarError` so that
callers (in particular the CLI) can distinguish domain failures from bugs.
"""


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
    """The section construction did not reach the required residual."""


class FiberSolveFailure(CharVarError):
    """Fiber-coordinate recovery did not reach the required residual."""


class PreconditionViolated(CharVarError):
    """An operation was called outside its documented domain."""


class RelationViolated(PreconditionViolated):
    """A tuple required to be a class representative does not solve the surface relation."""


class ClassificationAmbiguity(CharVarError):
    """A fixed-point classification residual falls in the undecidable band."""
