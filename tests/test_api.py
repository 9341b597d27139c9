"""The public API: ``rotbell.__all__`` is pinned, and every function the
benchmark's span tracer wraps (``LAYERS`` in bench/spans.py) still exists.

A change to ``__all__`` fails here until this list changes with it; a
traced function that is deleted or turned into a class fails here, as it
would fail the benchmark self-test's ``trace.absent_functions == 0`` gate.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rotbell

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

PUBLIC = [
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
    "ri_criterion",
    "rotate_frames",
    "saturating_response",
    "sum_of_squares",
    "t_max",
    "tensor_from_state",
    "two_setting_model_exists",
    "verify_bound",
]


def traced_layers():
    """``LAYERS`` read from bench/spans.py, loaded by path and not installed."""
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TRACED = [(mod, fn) for mod, fns in traced_layers().items() for fn in fns]


class TestAll:
    def test_matches_pinned_list(self):
        assert rotbell.__all__ == PUBLIC

    def test_no_duplicates(self):
        assert len(set(rotbell.__all__)) == len(rotbell.__all__)

    def test_every_name_resolves(self):
        missing = [name for name in rotbell.__all__ if not hasattr(rotbell, name)]
        assert missing == []

    @pytest.mark.parametrize(
        "name",
        [
            "AngleSettings",
            "FourierProjection",
            "LhvEnsemble",
            "PauliAxis",
            "random_response",
            "random_strategy",
        ],
    )
    def test_removed_names_absent(self, name):
        assert name not in rotbell.__all__
        assert not hasattr(rotbell, name)


class TestTracedNames:
    def test_layers_are_read(self):
        # an empty list would leave the guard below with nothing to check
        assert TRACED

    @pytest.mark.parametrize("mod, fn", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
    def test_is_a_function(self, mod, fn):
        # the tracer's own test: a callable attribute that is not a class
        value = getattr(importlib.import_module(f"rotbell.{mod}"), fn, None)
        assert callable(value) and not isinstance(value, type)
