"""Rotational-invariance constraints on local realistic models of
multiqubit spin correlations: noisy-GHZ correlation tensors, the
generalized Bell bound, and the visibility window where two-setting
local models exist but cannot be mutually consistent."""

import types

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
from .errors import DomainError, InvalidSizeError, RotbellError, ShapeError
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
    ensemble_inner_product,
    lr_inner_product,
    optimal_strategy,
    random_ensemble,
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

# the imports above are the one list of public names, less the submodules they bind
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
