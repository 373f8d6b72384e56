"""Exact workbench for set-theoretic Yang-Baxter structures.

Finite group tables and skew braces, the sigma/tau maps they induce, the
n^2-dimensional twist algebra with its universal R-matrix, combinatorial
matrix solutions, and RTT identities as pole-cleared polynomial matrices --
everything in exact arithmetic, with every identity decided by coefficient
comparison.
"""

from .algebra import (
    AlgebraContext,
    TensorElement,
    algebra_from_brace,
    antipode,
    coproduct,
    counit,
    is_cocommutative,
    nfold_twist,
    twisted_antipode,
    twisted_coproduct,
    verify_hopf_axioms,
    verify_quasitriangularity,
    verify_twist_conditions,
    verify_universal_ybe,
)
from .braces import (
    SkewBrace,
    YBMap,
    check_braid,
    check_brace_identities,
    dedupe_braces,
    derive_sigma_tau,
    enumerate_braces,
    is_involutive,
    trivial_brace,
    validate_brace,
    ybmap_from_sigma,
)
from .errors import CheckFailed, LimitExceeded, ValidationFailure
from .groups import (
    GroupTable,
    enumerate_group_tables,
    validate_group,
)
from .matrices import (
    ExactMatrix,
    braid_matrix,
    check_combinatorial,
    check_matrix_ybe,
    check_reversibility,
    nfold_twist_matrix,
    rho,
    rho_is_homomorphism,
    solution_matrix,
    twist_matrix,
)
from .rational import BivarPoly
from .reports import CheckResult, PropertyReport
from .yangian import (
    adjudicate_twisted_coproduct,
    antipode_series,
    check_augmented_relations,
    check_defining_relations,
    check_displayed_exchange_relations,
    check_rtt,
    check_twisted_rtt,
    coassociativity_report,
    coproduct_table,
    twisted_l,
    twisted_r_lambda,
    unitarity_report,
    yangian_r,
)

__version__ = "0.1.0"
