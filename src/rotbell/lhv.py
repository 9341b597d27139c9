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
``ensemble_inner_product`` draw and score a block of one.  A row with a
constant party scores an exact zero, so only the live rows, whose every
party flips, have their breakpoints drawn and scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlation import CorrelationTensor, product_contraction
from .errors import DomainError, ShapeError, _check_count, _check_party_count
from .functional_space import (
    _TWO_PI,
    ResponseFunction,
    saturating_response,
    sign_overlaps,
)
from .states import _TOL
from .tensor_analysis import OptimizerConfig, sum_of_squares, t_max

_MAX_FLIPS = 8
_MAX_STRATEGIES = 4

#: Floats one block of ``verify_bound`` trials holds on average.  A trial
#: has (1 + _MAX_STRATEGIES) / 2 strategy rows on average; every row holds
#: its owner, weight and N flip counts, and a live row (every party flips,
#: probability (4/5)^N) also holds about 2^N contraction entries and, per
#: party, _MAX_FLIPS padded breakpoints and the temporaries of the draw and
#: of the pair kernel: about 19 floats while drawing (the padding table's
#: rows among them) and at most 26 while scoring (tracemalloc, N = 4 and 8),
#: fewer than the 8 * _MAX_FLIPS per party that the formula counts.  The
#: trials per block follow from N alone, so a block's memory has the same
#: law whatever the trial count; it is near its mean while a block holds
#: many live rows, but for large N a block holds a few, and their count,
#: thus its memory, can reach several times the mean.  Each block draws its
#: own arrays, so the block size is part of the seeded stream: changing it,
#: or the formula, changes every seeded result.
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
    responses = strategy.responses
    flips = [len(r.breakpoints) for r in responses]
    points = np.zeros((len(flips), max(flips)))  # rows padded to the widest
    for row, r in zip(points, responses):
        row[: len(r.breakpoints)] = r.breakpoints
    overlaps = sign_overlaps(points, flips, [r.leading_sign for r in responses])
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

    Row s gives party j flips[s, j] flips and has weight weights[s].  Only
    the live rows, whose every party flips, hold responses: live row i is
    row live[i], and its party j has leading sign signs[i, j] and
    breakpoints points[i, j, :flips[live[i], j]].  A dead row scores zero
    whatever its responses are, so they are never drawn.
    """

    owner: np.ndarray  # (S,)
    flips: np.ndarray  # (S, N)
    weights: np.ndarray  # (S,), summing to 1 over each trial's rows
    live: np.ndarray  # (L,) indices of the live rows
    points: np.ndarray  # (L, N, _MAX_FLIPS) sorted breakpoints, padded
    signs: np.ndarray  # (L, N)


def _draw_breakpoints(rng: np.random.Generator, flips: np.ndarray, width: int) -> np.ndarray:
    """Sorted breakpoint rows padded to ``width``, ``flips`` of them per row.

    Flip positions are uniform on [0, 2*pi).  A row with a repeated
    breakpoint is drawn again.
    """
    # row c of pad: -inf on the c drawn slots, then 2*pi + k, above every breakpoint and increasing
    pad = np.where(np.tri(width + 1, width, -1, dtype=bool), -np.inf, _TWO_PI + np.arange(width))

    def sorted_rows(count: np.ndarray) -> np.ndarray:
        rows = rng.uniform(0.0, _TWO_PI, (count.size, width))
        np.maximum(rows, pad.take(count, axis=0), out=rows)
        rows.sort(axis=-1)
        return rows

    counts = flips.reshape(-1)
    points = sorted_rows(counts)  # (flips.size, width): -1 would not size an empty row
    # a non-increasing step is a repeated breakpoint; slot by slot is 2x row by row
    repeats = np.less_equal(points.T[1:], points.T[:-1], order="C")
    while repeats.any():
        redraw = repeats.any(axis=0)
        points[redraw] = sorted_rows(counts[redraw])
        repeats = np.less_equal(points.T[1:], points.T[:-1], order="C")
    return points.reshape(flips.shape + (width,))


def _draw_trials(
    rng: np.random.Generator,
    trials: int,
    n_parties: int,
    max_strategies: int = _MAX_STRATEGIES,
    max_flips: int = _MAX_FLIPS,
) -> _TrialDraw:
    """Sample ensembles: strategy count uniform in 1..max_strategies,
    weights Dirichlet(1), i.e. exponentials normalised per trial, flip
    counts uniform over {0, 2, ..., max_flips}, breakpoints uniform and
    leading signs uniform.  Breakpoints and signs are drawn for the live
    rows alone."""
    owner = np.repeat(np.arange(trials), rng.integers(1, max_strategies + 1, size=trials))
    flips = 2 * rng.integers(0, max_flips // 2 + 1, size=(owner.size, n_parties), dtype=np.int8)
    mass = rng.standard_exponential(owner.size)
    live = np.flatnonzero(np.logical_and.reduce(flips.T.copy()))  # all(axis=1) is 6-10x slower
    points = _draw_breakpoints(rng, flips[live], 2 * (max_flips // 2))
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(live.size, n_parties))
    return _TrialDraw(owner, flips, mass / np.bincount(owner, mass)[owner], live, points, signs)


def _trial_values(draw: _TrialDraw, values: np.ndarray) -> np.ndarray:
    """Each trial's weighted inner product with the tensor ``values``.

    A row with a constant party (no flips) has that party's overlaps
    exactly zero, so it scores zero: only the live rows get the overlap
    kernel and the contraction, and a trial with none scores 0.0.
    """
    live = draw.live
    overlaps = sign_overlaps(draw.points, draw.flips[live], draw.signs)
    rows = draw.weights[live] * product_contraction(values, overlaps)
    return np.bincount(draw.owner[live], rows, minlength=draw.owner[-1] + 1)


def random_ensemble(
    rng: np.random.Generator, n_parties: int, max_strategies: int = _MAX_STRATEGIES
) -> _TrialDraw:
    """Sample one ensemble as a one-trial draw of ``verify_bound``'s sampler."""
    _check_party_count(n_parties)
    _check_count("max_strategies", max_strategies)
    return _draw_trials(rng, 1, n_parties, max_strategies)


def ensemble_inner_product(ensemble: _TrialDraw, tensor: CorrelationTensor) -> float:
    """Weighted inner product with E_T of the ensemble that trial 0 of a draw holds."""
    n = ensemble.flips.shape[1]
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

    Trials are drawn as arrays (strategy counts, flip counts, Dirichlet
    weights, then padded sorted breakpoints and leading signs for the live
    rows alone) and scored by one overlap kernel and one contraction over
    the live rows, in blocks of a fixed number of trials set by N (see
    ``_BLOCK_FLOATS``), so memory per block does not grow with
    ``trial_count``.  A
    strategy with a constant party scores an exact zero, so its
    breakpoints are never drawn.  The saturating strategy is scored by the
    same kernel, its N responses stacked as rows by ``lr_inner_product``.
    """
    _check_count("trial_count", trial_count)
    _check_count("seed", seed, 0)
    n = tensor.n_parties
    top = t_max(tensor, config)
    bound = 4.0**n * top.value

    values = np.asarray(tensor.values)
    live = (1.0 - 1.0 / (_MAX_FLIPS // 2 + 1)) ** n
    row = n + 4 + live * (2**n + 8 * _MAX_FLIPS * n)
    block = max(1, int(_BLOCK_FLOATS / ((_MAX_STRATEGIES + 1) / 2 * row)))
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
