"""Brute-force ground truth: explicit matrix representations, L-operators,
characteristic matrices and projectors over the exact field."""

from .checks import (
    char_identity_check,
    coproduct_check,
    coupled_oracle,
    mu_oracle,
    projector_algebra_check,
    qybe_check,
    supertrace_invariant,
    wigner_oracle,
)
from .loperators import (
    big_entry,
    char_eigenvalues,
    char_matrix,
    eij_matrix,
    etilde_matrix,
    l_operator,
    projector,
    vector_slot_parities,
)
from .modules import (
    RepModule,
    highest_weight_vectors,
    realized_modules,
    subalgebra_components,
    subalgebra_highest_vector,
    submodule,
    tensor_module,
    vector_rep,
)

__all__ = [
    "qybe_check", "coproduct_check",
    "char_identity_check", "projector_algebra_check", "supertrace_invariant",
    "wigner_oracle", "coupled_oracle", "mu_oracle",
    "eij_matrix", "etilde_matrix", "l_operator",
    "char_matrix", "char_eigenvalues", "projector",
    "big_entry", "vector_slot_parities",
    "RepModule", "vector_rep", "tensor_module", "highest_weight_vectors",
    "submodule", "realized_modules", "subalgebra_highest_vector",
    "subalgebra_components",
]
