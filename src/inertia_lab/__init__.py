"""Entrywise matrix transforms and negative-eigenvalue bookkeeping.

The package tracks what happens to the number of negative eigenvalues of a
symmetric matrix (or a tuple of them) when a function is applied entry by
entry.  It ships the matrix constructions used to pin those counts down, a
classifier for which functions preserve a given negativity budget, a
randomized verification/falsification harness with deterministic reports,
signed Gram factorizations, and forward-difference diagnostics for absolute
monotonicity.
"""

from .absmon import (
    boundary_extrapolation,
    builtin_fn,
    forward_difference_test,
    maclaurin_estimate,
)
from .constructions import (
    block_pair,
    embed_with_negatives,
    equicorrelation,
    inflate,
    lift_finite,
    ones_orthogonal_basis,
    ones_pencil,
    ones_spike,
    pencil_base,
    replicated_block,
    two_by_two_pair,
    vandermonde_psd,
    weight_matrix,
)
from .errors import (
    AsymmetryError,
    ConfigError,
    ConvergenceError,
    DomainViolation,
    InertiaLabError,
    RegimeNotCovered,
    SamplingError,
)
from .functions import (
    AdmissibleK,
    Affine,
    Constant,
    FunctionSpec,
    Homothety,
    PreserverVerdict,
    Series,
    SplitForm,
    apply_entrywise,
    classify,
    fn_from_json_dict,
)
from .harness import (
    CLAIMS,
    TrialConfig,
    VerdictReport,
    Witness,
    falsify,
    lemma_suite,
    sample_with_inertia,
    verify_forward,
)
from .linalg import (
    DomainSpec,
    Inertia,
    SymMatrix,
    direct_sum,
    eig_sym,
    inertia,
    inertia_stack,
    is_member,
    sym,
)
from .pontryagin import (
    gram_of,
    gram_realize,
    leading_negativity_profile,
    stabilization_index,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleK",
    "Affine",
    "AsymmetryError",
    "CLAIMS",
    "ConfigError",
    "Constant",
    "ConvergenceError",
    "DomainSpec",
    "DomainViolation",
    "FunctionSpec",
    "Homothety",
    "Inertia",
    "InertiaLabError",
    "PreserverVerdict",
    "RegimeNotCovered",
    "SamplingError",
    "Series",
    "SplitForm",
    "SymMatrix",
    "TrialConfig",
    "VerdictReport",
    "Witness",
    "apply_entrywise",
    "block_pair",
    "boundary_extrapolation",
    "builtin_fn",
    "classify",
    "direct_sum",
    "eig_sym",
    "embed_with_negatives",
    "equicorrelation",
    "falsify",
    "fn_from_json_dict",
    "forward_difference_test",
    "gram_of",
    "gram_realize",
    "inertia",
    "inertia_stack",
    "inflate",
    "is_member",
    "leading_negativity_profile",
    "lemma_suite",
    "lift_finite",
    "maclaurin_estimate",
    "ones_orthogonal_basis",
    "ones_pencil",
    "ones_spike",
    "pencil_base",
    "replicated_block",
    "sample_with_inertia",
    "stabilization_index",
    "sym",
    "two_by_two_pair",
    "vandermonde_psd",
    "verify_forward",
    "weight_matrix",
    "__version__",
]
