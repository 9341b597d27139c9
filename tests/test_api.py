"""The public API: ``rotbell.__all__`` is pinned, every count argument is
checked the same way, and every function the benchmark's span tracer wraps
(``LAYERS`` in bench/spans.py) still exists.

A change to ``__all__`` fails here until this list changes with it; a
traced function that is deleted or turned into a class fails here, as it
would fail the benchmark self-test's ``trace.absent_functions == 0`` gate.
"""

import dataclasses
import importlib
import importlib.util
import math
import types
from pathlib import Path

import numpy as np
import pytest

import rotbell
from rotbell import (
    CorrelationTensor,
    DensityMatrix,
    DomainError,
    InvalidSizeError,
    OptimizerConfig,
    StateVector,
    build_ghz,
    ghz_planar_tensor,
    ghz_scan,
    ghz_thresholds,
    quadrature_inner_product,
    random_ensemble,
    t_max,
    verify_bound,
)

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

    def test_star_import_binds_public_names_only(self):
        namespace = {}
        exec("from rotbell import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC
        assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def _cos_sum(*angles):
    return np.cos(sum(angles))


def _plain(result):
    """A result as nested lists, for ``==``: dataclass fields in order, arrays as lists."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, field.name) for field in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return [_plain(item) for item in result]
    return np.asarray(result).tolist()


#: A tensor whose ascent draws random starts (the corner does not meet the bound).
GENERIC = CorrelationTensor(3, np.random.default_rng(5).uniform(-1, 1, (2, 2, 2)))

#: (id, call taking the count, error for a bad count, a valid count)
COUNT_ARGUMENTS = [
    ("build_ghz", build_ghz, InvalidSizeError, 3),
    ("ghz_planar_tensor", lambda n: ghz_planar_tensor(n, 0.5), InvalidSizeError, 3),
    ("ghz_thresholds", ghz_thresholds, InvalidSizeError, 3),
    ("ghz_scan.n_parties", lambda n: ghz_scan(n, 0.3, 0.4, 3), InvalidSizeError, 3),
    ("ghz_scan.steps", lambda k: ghz_scan(4, 0.3, 0.4, k), DomainError, 3),
    ("StateVector", lambda n: StateVector(n, np.full(8, 8**-0.5)), InvalidSizeError, 3),
    ("DensityMatrix", lambda n: DensityMatrix(n, np.eye(8) / 8), InvalidSizeError, 3),
    ("CorrelationTensor", lambda n: CorrelationTensor(n, np.zeros((2,) * 3)), InvalidSizeError, 3),
    (
        "CorrelationTensor.from_json_dict",
        lambda n: CorrelationTensor.from_json_dict({"n": n, "entries": {"111": 0.5}}),
        InvalidSizeError,
        3,
    ),
    (
        "random_ensemble.n_parties",
        lambda n: random_ensemble(np.random.default_rng(0), n),
        InvalidSizeError,
        3,
    ),
    ("verify_bound.trial_count", lambda k: verify_bound(GENERIC, k), DomainError, 3),
    ("verify_bound.seed", lambda k: verify_bound(GENERIC, 5, seed=k), DomainError, 3),
    (
        "quadrature_inner_product.n_parties",
        lambda n: quadrature_inner_product(_cos_sum, _cos_sum, n, 8),
        InvalidSizeError,
        3,
    ),
    (
        "quadrature_inner_product.nodes_per_axis",
        lambda k: quadrature_inner_product(np.cos, np.cos, 1, k),
        DomainError,
        8,
    ),
] + [
    (
        f"OptimizerConfig.{field}",
        lambda k, field=field: t_max(GENERIC, OptimizerConfig(**{field: k})),
        DomainError,
        3,
    )
    for field in ("random_starts", "seed", "max_sweeps")
]
EACH_COUNT = pytest.mark.parametrize(
    "call, error, valid", [row[1:] for row in COUNT_ARGUMENTS], ids=[row[0] for row in COUNT_ARGUMENTS]
)


class TestCountArguments:
    """Every count is an int or a numpy integer: a float, a bool or a string
    raises the error the count's kind calls for (InvalidSizeError for a party
    count, DomainError for any other), never a bare TypeError or a result."""

    @pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
    @EACH_COUNT
    def test_rejects_non_integers(self, call, error, valid, bad):
        with pytest.raises(error, match="must be an integer") as excinfo:
            call(bad)
        assert excinfo.type is error

    @EACH_COUNT
    def test_accepts_numpy_integers(self, call, error, valid):
        assert _plain(call(np.int64(valid))) == _plain(call(valid))

    def test_quadrature_with_integer_nodes_is_pi(self):
        # cos * cos integrates to pi over one period; 8.5 nodes used to give 3.5112
        for nodes in (8, np.int64(8), np.int32(8)):
            assert quadrature_inner_product(np.cos, np.cos, 1, nodes) == pytest.approx(math.pi, rel=1e-14)
        with pytest.raises(DomainError, match="nodes_per_axis must be an integer, got 8.5"):
            quadrature_inner_product(np.cos, np.cos, 1, 8.5)


class TestTracedNames:
    def test_layers_are_read(self):
        # an empty list would leave the guard below with nothing to check
        assert TRACED

    @pytest.mark.parametrize("mod, fn", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
    def test_is_a_function(self, mod, fn):
        # the tracer's own test: a callable attribute that is not a class
        value = getattr(importlib.import_module(f"rotbell.{mod}"), fn, None)
        assert callable(value) and not isinstance(value, type)
