"""Rotational-invariance constraints on local realistic models of
multiqubit spin correlations: noisy-GHZ correlation tensors, the
generalized Bell bound, and the visibility window where two-setting
local models exist but cannot be mutually consistent."""

from .correlation import (
    CorrelationTensor,
    correlation_function,
    correlation_value,
    ghz_planar_tensor,
    rotate_frames,
    tensor_from_state,
)
from .criterion import (
    REGION_LOCAL,
    REGION_NONLOCAL,
    REGION_PARADOX,
    CriterionReport,
    GhzThresholds,
    ScanPoint,
    classify,
    ghz_scan,
    ghz_thresholds,
    ri_criterion,
)
from .errors import BudgetError, DomainError, InvalidSizeError, RotbellError, ShapeError
from .functional_space import (
    PROJECTION_NORM_BOUND,
    ResponseFunction,
    project,
    quadrature_inner_product,
    saturating_response,
)
from .lhv import (
    BOUND_TOLERANCE,
    BoundVerification,
    DeterministicStrategy,
    LhvEnsemble,
    ensemble_inner_product,
    lr_inner_product,
    optimal_strategy,
    random_ensemble,
    random_response,
    random_strategy,
    two_setting_model_exists,
    verify_bound,
)
from .states import (
    DensityMatrix,
    NoisyPureState,
    StateVector,
    build_ghz,
    mix_with_white_noise,
    pauli_expectation,
)
from .tensor_analysis import (
    OptimizerConfig,
    TMaxResult,
    analytic_inner_product,
    sum_of_squares,
    t_max,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_TOLERANCE",
    "BoundVerification",
    "BudgetError",
    "CorrelationTensor",
    "CriterionReport",
    "DensityMatrix",
    "DeterministicStrategy",
    "DomainError",
    "GhzThresholds",
    "InvalidSizeError",
    "LhvEnsemble",
    "NoisyPureState",
    "OptimizerConfig",
    "PROJECTION_NORM_BOUND",
    "REGION_LOCAL",
    "REGION_NONLOCAL",
    "REGION_PARADOX",
    "ResponseFunction",
    "RotbellError",
    "ScanPoint",
    "ShapeError",
    "StateVector",
    "TMaxResult",
    "analytic_inner_product",
    "build_ghz",
    "classify",
    "correlation_function",
    "correlation_value",
    "ensemble_inner_product",
    "ghz_planar_tensor",
    "ghz_scan",
    "ghz_thresholds",
    "lr_inner_product",
    "mix_with_white_noise",
    "optimal_strategy",
    "pauli_expectation",
    "project",
    "quadrature_inner_product",
    "random_ensemble",
    "random_response",
    "random_strategy",
    "ri_criterion",
    "rotate_frames",
    "saturating_response",
    "sum_of_squares",
    "t_max",
    "tensor_from_state",
    "two_setting_model_exists",
    "verify_bound",
]
