"""Numerical laboratory for SU(2) conjugacy classes of commutator-relation
quadruples on a genus-2 surface group.

The package follows the quaternion model throughout: a group element is a
unit quaternion ``(w, x, y, z)``, identified with the special unitary matrix
``[[w + iz, x + iy], [-x + iy, w - iz]]``.  On top of that sit:

- ``su2``: exact-where-possible group arithmetic, Haar sampling, conjugator
  and stabilizer solvers;
- ``repvar``: relation quadruples, conjugacy testing;
- ``polytope``: trace coordinates, the trace tetrahedron, the standard
  simplex, membership, moment maps and the batched boundary/abelian check;
- ``flows``: the three commuting twist circle actions and their kernel;
- ``tau``: an explicit section of the moment fibration in closed form,
  (h1^-1/2, h1, h2^-1/2, h2), fixed by tau; fiber coordinates, the chart
  from a class to (base point, angles); both batched; and the
  anti-symplectic involution (h1 g1, h1^-1, h2 g2, h2^-1);
- ``sigma``: the handle-swap involution, its fixed locus, and the
  stratum/piece classification;
- ``sampler``: targeted random constructions, including density witnesses;
- ``claims``: the paper's claims as seeded verification suites (``run_verify``)
  and the swap fixed-locus certification;
- ``cli``: deterministic command-line drivers.

Each module's ``__all__`` is its public API, and the only list of it:
``import charvar`` re-exports the ``__all__`` of every module above but
``claims`` and ``cli``, which it does not import.
"""

import sys

from .errors import *
from .flows import *
from .polytope import *
from .repvar import *
from .sampler import *
from .sigma import *
from .su2 import *
from .tau import *
from .tolerances import *

# the union of the __all__ of the submodules loaded so far, which are the nine
# star-imported above (claims and cli are not among them); read through
# sys.modules, as the package attributes sigma and tau are the functions
__all__ = [
    name
    for key, module in list(sys.modules.items())
    if key.startswith(f"{__name__}.")
    for name in module.__all__
]
