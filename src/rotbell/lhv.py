"""Local realistic models as ensembles of deterministic strategies.

A deterministic strategy assigns each party a response function; a model
is a probability-weighted mixture of such strategies.  The functional
inner product of any model's correlation function with a tensor-form one
collapses, party by party, to the tensor contracted with the per-party
cos/sin overlaps, which caps it at 4^N times the maximal tensor
component.  The constructions here evaluate that inner product in closed
form, build the strategy that attains the cap, and stress-test the bound
with random ensembles.  Ensembles are arrays (one row per strategy, an
owner index per row): the stress test scores a block of them with one
overlap kernel and one contraction, and ``random_ensemble`` and
``ensemble_inner_product`` draw and score a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import CorrelationTensor, product_contraction
from .errors import DomainError, ShapeError
from .functional_space import (
    _TWO_PI,
    ResponseFunction,
    project,
    saturating_response,
    sign_overlaps,
)
from .states import _TOL
from .tensor_analysis import OptimizerConfig, sum_of_squares, t_max

_MAX_FLIPS = 8
_MAX_STRATEGIES = 4

#: Floats one block of ``verify_bound`` trials may hold.  A trial has up
#: to _MAX_STRATEGIES strategy rows; a row holds about 2^N contraction
#: entries and eight sampling temporaries of _MAX_FLIPS breakpoints per
#: party.  The trials per block follow from 2^N, so memory does not grow
#: with the trial count.
_BLOCK_FLOATS = 2**21

#: Slack added to the bound when counting violations (optimizer accuracy).
BOUND_TOLERANCE = 1e-8


@dataclass(frozen=True)
class DeterministicStrategy:
    """One response function per party: a single hidden-variable value."""

    responses: tuple[ResponseFunction, ...]

    def __init__(self, responses):
        resp = tuple(responses)
        if not all(isinstance(r, ResponseFunction) for r in resp):
            raise DomainError("responses must be ResponseFunction instances")
        object.__setattr__(self, "responses", resp)

    @property
    def n_parties(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class BoundVerification:
    """Result of stress-testing the generalized Bell bound."""

    n_parties: int
    trials: int
    bound: float
    max_found: float
    ratio_to_bound: float
    violations: int
    includes_optimal: bool
    certified: bool
    seed: int


def lr_inner_product(strategy: DeterministicStrategy, tensor: CorrelationTensor) -> float:
    """Inner product of a deterministic model's correlation function with E_T.

    Integrating party by party replaces each index-1/index-2 factor with
    the response's cos/sin overlap, so the N-fold integral is just the
    tensor contracted with the per-party overlap vectors (a_j, b_j).
    """
    if strategy.n_parties != tensor.n_parties:
        raise ShapeError(
            f"{strategy.n_parties}-party strategy against {tensor.n_parties}-party tensor"
        )
    overlaps = np.array([project(r) for r in strategy.responses])
    return float(product_contraction(tensor.values, overlaps))


def _saturating_strategy(maximizer: np.ndarray) -> DeterministicStrategy:
    return DeterministicStrategy(
        saturating_response(math.atan2(dy, dx) % _TWO_PI) for dx, dy in maximizer
    )


def optimal_strategy(
    tensor: CorrelationTensor, config: OptimizerConfig | None = None
) -> tuple[DeterministicStrategy, float]:
    """The deterministic strategy attaining the generalized Bell bound.

    Aligning each party's saturating response with the maximizing
    direction gives overlap vectors 4*(cos psi_j, sin psi_j), so the
    inner product is exactly 4^N times the maximal tensor component.
    """
    result = t_max(tensor, config)
    strategy = _saturating_strategy(result.maximizer)
    return strategy, lr_inner_product(strategy, tensor)


def _two_setting_holds(sum_sq: float) -> bool:
    return sum_sq <= 1.0 + _TOL  # roundoff guard: the boundary classifies non-strictly


def two_setting_model_exists(tensor: CorrelationTensor) -> bool:
    """Sufficient condition for a local model of the 2^N measured values:
    the squared entries sum to at most 1."""
    return _two_setting_holds(sum_of_squares(tensor))


class _TrialDraw(NamedTuple):
    """Random ensembles as arrays: strategy row s belongs to trial owner[s].

    Row s, party j is the response with leading sign signs[s, j] and
    breakpoints points[s, j, :flips[s, j]].
    """

    owner: np.ndarray  # (S,)
    points: np.ndarray  # (S, N, _MAX_FLIPS) sorted breakpoints, padded
    flips: np.ndarray  # (S, N)
    signs: np.ndarray  # (S, N)
    weights: np.ndarray  # (S,), summing to 1 over each trial's rows


def _draw_responses(rng: np.random.Generator, shape: tuple, max_flips: int = _MAX_FLIPS):
    """Padded breakpoint rows, flip counts and leading signs of random responses.

    Flip counts are uniform over {0, 2, ..., max_flips}, flip positions
    uniform on [0, 2*pi), leading signs uniform.  A row with a repeated
    breakpoint is drawn again.
    """
    flips = 2 * rng.integers(0, max_flips // 2 + 1, size=shape)
    k = np.arange(2 * (max_flips // 2))

    def sorted_rows(count: np.ndarray) -> np.ndarray:
        fresh = rng.uniform(0.0, _TWO_PI, count.shape + k.shape)
        return np.sort(np.where(k < count[..., None], fresh, _TWO_PI + k), axis=-1)

    points = sorted_rows(flips)
    # padding is 2*pi + k, above every breakpoint and increasing, so any
    # non-increasing step is a repeated breakpoint
    redraw = np.any(np.diff(points, axis=-1) <= 0.0, axis=-1)
    while redraw.any():
        points[redraw] = sorted_rows(flips[redraw])
        redraw = np.any(np.diff(points, axis=-1) <= 0.0, axis=-1)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=shape)
    return points, flips, signs


def _draw_trials(
    rng: np.random.Generator, trials: int, n_parties: int, max_strategies: int = _MAX_STRATEGIES
) -> _TrialDraw:
    """Sample ensembles: strategy count uniform in 1..max_strategies,
    weights Dirichlet(1), i.e. exponentials normalised per trial."""
    owner = np.repeat(np.arange(trials), rng.integers(1, max_strategies + 1, size=trials))
    points, flips, signs = _draw_responses(rng, (owner.size, n_parties))
    mass = rng.standard_exponential(owner.size)
    return _TrialDraw(owner, points, flips, signs, mass / np.bincount(owner, mass)[owner])


def _trial_values(draw: _TrialDraw, values: np.ndarray) -> np.ndarray:
    """Each trial's weighted inner product with the tensor ``values``."""
    overlaps = sign_overlaps(draw.points, draw.flips, draw.signs)
    rows = draw.weights * product_contraction(values, overlaps)
    return np.bincount(draw.owner, rows)


def random_ensemble(
    rng: np.random.Generator, n_parties: int, max_strategies: int = _MAX_STRATEGIES
) -> _TrialDraw:
    """Sample one ensemble as a one-trial draw of ``verify_bound``'s sampler."""
    return _draw_trials(rng, 1, n_parties, max_strategies)


def ensemble_inner_product(ensemble: _TrialDraw, tensor: CorrelationTensor) -> float:
    """Weighted inner product with E_T of the ensemble that trial 0 of a draw holds."""
    n = ensemble.points.shape[1]
    if n != tensor.n_parties:
        raise ShapeError(f"{n}-party ensemble against {tensor.n_parties}-party tensor")
    return float(_trial_values(ensemble, tensor.values)[0])


def verify_bound(
    tensor: CorrelationTensor,
    trial_count: int,
    seed: int = 0,
    include_optimal: bool = True,
    config: OptimizerConfig | None = None,
) -> BoundVerification:
    """Check random ensembles against the generalized Bell bound.

    A trial exceeding 4^N * t_max by more than ``BOUND_TOLERANCE`` counts
    as a violation (reported, not raised).  With ``include_optimal`` the
    saturating strategy joins the comparison so ``max_found`` approaches
    the bound.  The T_max certificate is carried through.

    Trials are drawn as arrays (strategy counts, flip counts, padded
    sorted breakpoints, leading signs, Dirichlet weights) and scored by
    one overlap kernel and one contraction, in blocks of a fixed number
    of trials set by 2^N (see ``_BLOCK_FLOATS``), so memory does not
    grow with ``trial_count``.
    """
    if trial_count < 1:
        raise DomainError(f"trial_count must be >= 1, got {trial_count}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    n = tensor.n_parties
    top = t_max(tensor, config)
    bound = 4.0**n * top.value

    values = np.asarray(tensor.values)
    block = max(1, _BLOCK_FLOATS // (_MAX_STRATEGIES * (2**n + 8 * _MAX_FLIPS * n)))
    rng = np.random.default_rng(seed)
    max_found = -math.inf
    violations = 0
    for start in range(0, trial_count, block):
        found = _trial_values(_draw_trials(rng, min(block, trial_count - start), n), values)
        max_found = max(max_found, float(found.max()))
        violations += int(np.count_nonzero(found > bound + BOUND_TOLERANCE))
    if include_optimal:
        value = lr_inner_product(_saturating_strategy(top.maximizer), tensor)
        max_found = max(max_found, value)
        violations += int(value > bound + BOUND_TOLERANCE)

    ratio = max_found / bound if bound != 0.0 else 0.0
    return BoundVerification(
        n_parties=tensor.n_parties,
        trials=trial_count,
        bound=bound,
        max_found=max_found,
        ratio_to_bound=ratio,
        violations=violations,
        includes_optimal=include_optimal,
        certified=top.certified,
        seed=seed,
    )
