"""Certification of entanglement and one-way EPR steerability for
bipartite (N vs 1)-mode continuous-variable states, working directly on
covariance matrices."""

from .covariance import (
    CovarianceMatrix,
    NotStandardFormError,
    Partition,
    StandardForm,
    TwoModeStandardParams,
    ValidationReport,
    aitken_factorize,
    gaussian_purity,
    partial_transpose_bob,
    partition,
    schur_complement,
    schur_factor,
    StackWitnesses,
    stack_witnesses,
    split_standard,
    standard_form_reduce_two_mode,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_symplectic_pair,
    two_mode_symplectic_pair_pt,
    validate_bona_fide,
    validate_stack,
)
from .criteria import (
    CorrelationVerdict,
    OneWayExampleNotFound,
    StackVerdicts,
    VerdictConsistencyError,
    certify,
    certify_many,
    find_one_way_example,
    sign_rule_holds,
    stack_verdicts,
)
from .observables import (
    EprWeights,
    commutator_bound,
    euler_identity_terms,
    reid_product,
    separability_sum,
    separability_sum_gradient,
    steering_sum_ab,
    steering_sum_ba,
    uncertainty_sum_check,
    variance_p,
    variance_q,
)
from .optimize import (
    GridSpec,
    MinimizationResult,
    UnsteerabilityCheck,
    brute_force_min,
    check_unsteerable_ab,
    check_unsteerable_ba,
    min_separability_sum_numeric,
    min_separability_sum_two_mode,
    min_steering_sum_ab,
    min_steering_sum_ab_numeric,
    min_steering_sum_ba_numeric,
)
from .states import (
    GeneratorSpec,
    noisy_tmsv,
    random_standard,
    random_two_mode_params,
    thermal,
    tmsv,
    vacuum,
)

__version__ = "0.1.0"
