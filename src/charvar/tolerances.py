"""Numerical tolerances, with uniform rescaling for the CLI's --tol flag.

All closed-form operations on SU(2) stay within a few ulp of exact, so the
defaults leave generous headroom for composed flows while still catching real
violations:

    EPS_MAT     matrix-level residuals (products, conjugation solves)
    EPS_F       trace-angle comparisons
    EPS_CENTER  distance to +-I below which an element counts as central
    EPS_REL     commutator-relation residual accepted on representations
    EPS_POLY    polytope membership / active-constraint detection

EPS_CENTER is a module constant only.  `Tolerances` is set by one knob, mat;
its f, rel and poly follow in proportion to the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import PreconditionViolated

__all__ = ["Tolerances", "DEFAULT"]

EPS_MAT = 1e-9
EPS_F = 1e-9
EPS_CENTER = 1e-9
EPS_REL = 1e-8
EPS_POLY = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """A coherent bundle of tolerances with EPS_MAT pinned to `mat` and
    everything else in proportion; `mat` must be positive and finite.

    Each other field is mat * (default / EPS_MAT): the ratios are small and
    exact, so a finite `mat` overflows no field short of the float range,
    and one that does is named in the error."""

    mat: float = EPS_MAT
    f: float = field(init=False)
    rel: float = field(init=False)
    poly: float = field(init=False)

    def __post_init__(self):
        # a NaN tolerance passes every "residual >= tol" check
        if not (math.isfinite(self.mat) and self.mat > 0.0):
            raise PreconditionViolated(
                f"tol must be a positive finite number, got mat={self.mat!r}"
            )
        for name, default in (("f", EPS_F), ("rel", EPS_REL), ("poly", EPS_POLY)):
            value = self.mat * (default / EPS_MAT)
            if not math.isfinite(value):
                raise PreconditionViolated(
                    f"tol must be a positive finite number, got mat={self.mat!r}, "
                    "which scales another tolerance past the float range"
                )
            object.__setattr__(self, name, value)


DEFAULT = Tolerances()
