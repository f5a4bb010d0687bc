"""Numerical tolerances, with uniform rescaling for the CLI's --tol flag.

All closed-form operations on SU(2) stay within a few ulp of exact, so the
defaults leave generous headroom for composed flows while still catching real
violations:

    EPS_MAT     matrix-level residuals (products, conjugation solves)
    EPS_F       trace-angle comparisons
    EPS_CENTER  distance to +-I below which an element counts as central
    EPS_REL     commutator-relation residual accepted on representations
    EPS_POLY    polytope membership / active-constraint detection

EPS_CENTER is a module constant only; the other four are the fields of
`Tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import PreconditionViolated

EPS_MAT = 1e-9
EPS_F = 1e-9
EPS_CENTER = 1e-9
EPS_REL = 1e-8
EPS_POLY = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """A coherent bundle of tolerances; scale all of them with one knob.
    Every field must be positive and finite."""

    mat: float = EPS_MAT
    f: float = EPS_F
    rel: float = EPS_REL
    poly: float = EPS_POLY

    def __post_init__(self):
        # a NaN tolerance passes every "residual >= tol" check
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise PreconditionViolated(
                    f"tol must be a positive finite number, got {field.name}={value!r}"
                )

    @classmethod
    def with_mat(cls, mat: float) -> "Tolerances":
        """Tolerances with EPS_MAT pinned to `mat` and everything else in proportion.

        Each field is mat * (default / EPS_MAT): the ratios are small and
        exact, so a finite `mat` overflows no field short of the float range,
        and one that does is named in the error."""
        values = {f.name: mat * (getattr(cls, f.name) / EPS_MAT) for f in fields(cls)}
        if math.isfinite(mat) and not all(map(math.isfinite, values.values())):
            raise PreconditionViolated(
                f"tol must be a positive finite number, got mat={mat!r}, "
                "which scales another tolerance past the float range"
            )
        return cls(**values)


DEFAULT = Tolerances()
