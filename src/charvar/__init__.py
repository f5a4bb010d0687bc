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
  (h1^-1/2, h1, h2^-1/2, h2), batched over base points and fixed by tau;
  fiber coordinates; and the anti-symplectic involution
  (h1 g1, h1^-1, h2 g2, h2^-1);
- ``sigma``: the handle-swap involution, its fixed locus, and the
  stratum/piece classification;
- ``sampler``: targeted random constructions, including density witnesses;
- ``cli``: deterministic command-line drivers and verification suites.
"""

from .errors import (
    CenterAmbiguity,
    CharVarError,
    ClassificationAmbiguity,
    DegenerateGenerator,
    FiberSolveFailure,
    OutsidePolytope,
    PreconditionViolated,
    RelationViolated,
    SectionSolveFailure,
    ZeroVector,
)
from .flows import (
    FlowGenerators,
    FlowIdentityReport,
    KernelFreenessReport,
    TorusElement,
    act,
    generators,
    kernel_and_freeness_check,
    verify_flow_identities,
)
from .polytope import (
    HALF_STD_DELTA,
    M_P,
    NU_NORMALIZATION_NOTE,
    STD_DELTA,
    TILDE_DELTA,
    Polytope,
    PolytopeTag,
    QuotientMatrix,
    Region,
    RegionKind,
    SimplexPoint,
    boundary_commutation_check,
    moment_coordinates,
    moment_mu,
    mu_lambda,
    mu_lambda_coordinates,
    nu_P3,
    trace_triple,
    write_simplex_csv,
)
from .repvar import (
    Representation,
    class_equal,
    diagonalize_abelian,
    is_abelian,
    new_checked,
    relation_residual,
)
from .sampler import (
    SampleSpec,
    Target,
    density_witness,
    sample,
    strict_inclusion_witness,
)
from .sigma import (
    DIAG_I,
    J,
    InjectivityReport,
    Piece,
    SigmaFixedPoint,
    Stratum,
    blowup_point,
    certify_interval_injectivity,
    classify_fixed_point,
    n2_interval,
    pillow_point,
    rp2_fiber_point,
    sigma,
    sigma_fixed_conjugator,
)
from .su2 import (
    AlgebraElement,
    GroupElement,
    StabilizerType,
    commutator,
    conjugate,
    conjugator_nullspace,
    distance,
    exp_alg,
    find_conjugator,
    haar_sample,
    is_central,
    log_grp,
    mul,
    stabilizer_type,
    trace_angle,
)
from .tau import FiberCoordinates, fiber_coordinates, section, tau
from .tolerances import DEFAULT, Tolerances

__all__ = [
    # errors
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
    # su2
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
    # repvar
    "Representation",
    "relation_residual",
    "new_checked",
    "is_abelian",
    "diagonalize_abelian",
    "class_equal",
    # polytope
    "Polytope",
    "PolytopeTag",
    "Region",
    "RegionKind",
    "SimplexPoint",
    "QuotientMatrix",
    "TILDE_DELTA",
    "STD_DELTA",
    "HALF_STD_DELTA",
    "M_P",
    "NU_NORMALIZATION_NOTE",
    "moment_coordinates",
    "moment_mu",
    "mu_lambda_coordinates",
    "mu_lambda",
    "nu_P3",
    "trace_triple",
    "boundary_commutation_check",
    "write_simplex_csv",
    # flows
    "TorusElement",
    "FlowGenerators",
    "FlowIdentityReport",
    "KernelFreenessReport",
    "generators",
    "act",
    "verify_flow_identities",
    "kernel_and_freeness_check",
    # tau
    "FiberCoordinates",
    "section",
    "fiber_coordinates",
    "tau",
    # sigma
    "Stratum",
    "Piece",
    "SigmaFixedPoint",
    "DIAG_I",
    "InjectivityReport",
    "J",
    "sigma",
    "sigma_fixed_conjugator",
    "classify_fixed_point",
    "pillow_point",
    "blowup_point",
    "rp2_fiber_point",
    "n2_interval",
    "certify_interval_injectivity",
    # sampler
    "Target",
    "SampleSpec",
    "sample",
    "density_witness",
    "strict_inclusion_witness",
    # tolerances
    "Tolerances",
    "DEFAULT",
]
