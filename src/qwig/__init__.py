"""Exact computations for the quantum supergroup U_q[gl(m|n)]:
closed-form invariants, squared reduced Wigner coefficients and reduced
matrix elements, validated against a brute-force matrix oracle over the
exact field Q(q^(1/2))."""

from .errors import (
    AdmissibilityError,
    ConsistencyError,
    DegenerateRoots,
    IndexOutOfRange,
    InvalidArgument,
    MultiplicityAmbiguous,
    NonIntegralWeight,
    NotABranching,
    NotRealized,
    NotScalar,
    PoleAtOne,
    QwigError,
    SignatureMismatch,
)
from .exactq import (
    ONE,
    ZERO,
    HalfLaurent,
    QFraction,
    parse_qfraction,
    qnum,
    qpow,
)
from .superweight import (
    Signature,
    Weight,
    char_roots,
    deformed_root,
    is_typical,
    rho,
    subalgebra_roots,
)
from .branching import BranchingData, branch_candidates, index_sets
from .invariants import casimir_exponent, chi_C1, chi_v
from .wigner import (
    MU_SHIFT_DEFAULT,
    coupled_table,
    gamma,
    linear_system_residuals,
    mu,
    omega,
    omega_classical,
    omega_coupled,
    omega_table,
    sum_rule_residual,
)

__version__ = "0.1.0"

__all__ = [
    "QwigError", "PoleAtOne", "SignatureMismatch",
    "IndexOutOfRange", "NonIntegralWeight", "NotABranching",
    "DegenerateRoots", "AdmissibilityError",
    "MultiplicityAmbiguous", "NotRealized", "NotScalar", "InvalidArgument",
    "ConsistencyError",
    "HalfLaurent", "QFraction", "qpow", "qnum",
    "parse_qfraction", "ZERO", "ONE",
    "Signature", "Weight", "rho",
    "char_roots", "subalgebra_roots", "deformed_root",
    "is_typical",
    "BranchingData", "branch_candidates", "index_sets",
    "chi_v", "chi_C1", "casimir_exponent",
    "omega", "omega_classical", "gamma", "mu", "omega_coupled",
    "omega_table", "coupled_table",
    "sum_rule_residual", "linear_system_residuals", "MU_SHIFT_DEFAULT",
    "__version__",
]
