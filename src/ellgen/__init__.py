"""ellgen: exact q-series engine for twisted elliptic genera.

Truncated rational series in u = q^(1/2), graded cohomology rings
presented by generators and relations, Jacobi theta factors, the four
twisted genera with two independent computation engines, determinant-weight
graded characters, Schur functor identities, a degree-12 cancellation
checker, and numeric modular-transformation verification.
"""

from .qseries import HalfQSeries, eta_like_product
from .cohring import (
    CohElement,
    LinearClass,
    Manifold,
    RingPresentation,
    builtin_manifold,
    exp_nilpotent,
    integrate,
)
from .theta import FactorSeries, ThetaKind, elliptic_factor, theta_numeric, theta_numeric_dv
from .bundleops import (
    GradedKind,
    GradedTable,
    ProjBundle,
    ch,
    det_sqrt_ch,
    gch,
    graded_decompose,
    schur_character,
    tensor_exterior_identity_check,
    witten_bundle_ch,
)
from .genera import (
    GenusKind,
    GenusReport,
    a_hat_integral,
    cancellation12_check,
    classical_recovery_check,
    pell,
    witten_genus,
)
from .modcheck import GroupSpec, SL2Matrix, check_T_exact, check_group, check_numeric

__version__ = "0.1.0"

__all__ = [
    "HalfQSeries",
    "eta_like_product",
    "CohElement",
    "LinearClass",
    "Manifold",
    "RingPresentation",
    "builtin_manifold",
    "exp_nilpotent",
    "integrate",
    "FactorSeries",
    "ThetaKind",
    "elliptic_factor",
    "theta_numeric",
    "theta_numeric_dv",
    "GradedKind",
    "GradedTable",
    "ProjBundle",
    "ch",
    "det_sqrt_ch",
    "gch",
    "graded_decompose",
    "schur_character",
    "tensor_exterior_identity_check",
    "witten_bundle_ch",
    "GenusKind",
    "GenusReport",
    "a_hat_integral",
    "cancellation12_check",
    "classical_recovery_check",
    "pell",
    "witten_genus",
    "GroupSpec",
    "SL2Matrix",
    "check_T_exact",
    "check_group",
    "check_numeric",
    "__version__",
]
