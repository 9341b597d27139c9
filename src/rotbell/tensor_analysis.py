"""Maximal correlation over planar settings and tensor inner products.

The maximum of the correlation function over all product settings is the
largest contraction of the tensor with per-party unit 2-vectors.  It is
found by alternating maximization over blocks of parties: with the others
fixed, one party's contraction is a 2-vector whose normalization is its
exact optimum, and two parties' is a 2x2 matrix whose top singular pair,
in closed form, is theirs.  So each step is exact for its block and the
objective never decreases; a pair also moves along the ridges
a_j + a_k = const of GHZ-like tensors, where one party at a time crawls.
Deterministic multistart (seeded random starts plus axis-aligned ones)
guards against local maxima.  A closed-form Fourier bound caps the maximum
from above; where it meets the value found, the value is proven maximal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTensor, product_contraction
from .errors import DomainError, ShapeError, _check_count
from .states import contract

#: ``certified`` holds when the Fourier bound exceeds the value by at most this fraction of it.
CERTIFY_RTOL = 1e-12

#: A start converges once a sweep raises its value by less than this.
_IMPROVEMENT_TOL = 1e-13

#: Rows u+ = (1, -i)/2 and u- = (1, i)/2: (cos a, sin a) = e^{ia} u+ + e^{-ia} u-.
_FOURIER_ROWS = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / 2

#: Q's entries (q00, q01, q10, q11) -> (Re z1, Im z1, Re z2, Im z2), where
#: 2 z1 = q00 + q11 + i(q10 - q01) and 2 z2 = q00 - q11 + i(q10 + q01):
#: u(a).Q.u(b) = |z1| cos(a - b - arg z1) + |z2| cos(a + b - arg z2).
_PAIR_ROWS = np.array([[1, 0, 1, 0], [0, -1, 0, 1], [0, 1, 0, 1], [1, 0, -1, 0]]) / 2

#: (arg z1, arg z2) -> the angles (a, b) at which both cosines are 1: Q's top singular pair.
_PAIR_TURNS = np.array([[0.5, -0.5], [0.5, 0.5]])


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating maximizer, all nonnegative integers.

    ``random_starts`` random starts from one generator seeded with ``seed``
    join 2N axis-aligned starts and one at the largest-magnitude basis entry
    (so the result is at least that entry).  Each runs at most ``max_sweeps``
    sweeps, a sweep stepping every party once, two at a time (``_ascend``),
    and converges once a sweep gains less than ``_IMPROVEMENT_TOL``.
    """

    random_starts: int = 64
    seed: int = 0
    max_sweeps: int = 1000

    def __post_init__(self):
        for name in ("random_starts", "seed", "max_sweeps"):
            _check_count(name, getattr(self, name), 0)


@dataclass(frozen=True, eq=False)
class TMaxResult:
    """Outcome of the planar-settings maximization.

    ``maximizer`` holds one unit 2-vector per party; ``value`` equals the
    contraction of the tensor with their product, a lower bound on T_max,
    and ``upper`` an upper bound.  ``certified`` holds when ``upper - value
    <= CERTIFY_RTOL * upper``: then ``value`` is proven to be T_max and
    ``converged`` holds, else that flag means the winning start converged.
    ``iterations`` sums the sweeps run over all starts, each sweep one step
    for every party (``_ascend``): none if a start met the bound at once.
    Ties go to the first start.  When the corner start meets the bound, it
    wins and no other start is drawn, which differs from the whole batch only
    where another start begins within CERTIFY_RTOL / 2 above it.
    """

    value: float
    upper: float
    maximizer: np.ndarray
    iterations: int
    starts_used: int
    converged: bool
    certified: bool

    def __post_init__(self):
        arr = np.array(self.maximizer, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "maximizer", arr)


def _ascend(values: np.ndarray, starts: np.ndarray, max_sweeps: int, target: float):
    """Alternating maximization by exact block steps from every start at once.

    ``starts`` is an (S, N, 2) array of directions.  A sweep steps the
    blocks (0, 1), (2, 3), ... on even sweeps and (0), (1, 2), (3, 4), ...
    on odd ones, an unpaired last party alone.  A block's gradient is the
    running contraction P_j (P_0 = T, P_{j+1} = d_j . P_j over its first
    axis) times the Kronecker row of the old directions of the parties after
    it: for one party a 2-vector, whose angle it turns to; for a pair a 2x2
    matrix Q, whose top singular pair and value |z1| + |z2| come from ``_PAIR_ROWS``.
    A row leaves the batch at its own convergence, as a lone ascent would; the
    batch stops, checked before every sweep, once a value reaches ``target``.
    Active rows stay compact across sweeps, written back only as some leave.
    Returns the directions, values, sweeps run and convergence flags.
    """
    n = values.ndim
    ds = starts.copy()
    count = len(ds)
    whole = np.broadcast_to(values.reshape(-1), (count, values.size))
    value = product_contraction(values, ds)
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active, sub, now = np.arange(count), ds.copy(), value.copy()
    left_max = -math.inf  # the best value among rows that left
    sweep = 0
    while sweep < max_sweeps and active.size and max(left_max, now.max()) < target:
        rows = len(sub)
        # tails[j]: the Kronecker row of parties j..n-1, for each block end j < n;
        # tails[n - 1] is a view of sub, read before party n - 1 steps
        tails = {n - 1: sub[:, n - 1]}
        for j in range(n - 2, 1 - sweep % 2, -1):
            tails[j] = (sub[:, j, :, None] * tails[j + 1][:, None, :]).reshape(rows, -1)
        partial = whole[:rows]
        edges = sorted({0, *range(sweep % 2, n, 2), n})
        for j, end in zip(edges, edges[1:]):
            block = partial.reshape(rows, 2 ** (end - j), -1)
            # + 0.0 turns -0.0 to 0.0, as einsum's sum from zero does
            grad = block[:, :, 0] + 0.0 if end == n else np.einsum("skr,sr->sk", block, tails[end])
            if end == j + 1:
                z = grad.view(complex)
                norm = np.abs(z[:, 0])
                turn = np.arctan2(z.imag, z.real)  # 0 at a zero gradient: any direction is optimal
            else:
                z = (grad @ _PAIR_ROWS).view(complex)
                size = np.abs(z)
                norm = size[:, 0] + size[:, 1]
                turn = np.arctan2(z.imag, z.real) @ _PAIR_TURNS
            sub[:, j:end, 0], sub[:, j:end, 1] = np.cos(turn), np.sin(turn)
            if end < n:
                step = sub[:, j]
                if end > j + 1:
                    step = (step[:, :, None] * sub[:, j + 1, None, :]).reshape(rows, 4)
                partial = np.einsum("sk,skr->sr", step, block)
        sweep += 1
        done = norm - now < _IMPROVEMENT_TOL
        now = norm
        if done.any():
            gone = active[done]
            ds[gone], value[gone], sweeps[gone], converged[gone] = sub[done], now[done], sweep, True
            left_max = max(left_max, now[done].max())
            active, sub, now = active[~done], sub[~done], now[~done]
    ds[active], value[active], sweeps[active] = sub, now, sweep
    return ds, value, sweeps, converged


def _corner(values: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Directions at the largest of ``magnitudes`` = |values|, sign-corrected to contract to it."""
    index = np.unravel_index(np.argmax(magnitudes.ravel(order="F")), values.shape, order="F")
    corner = np.eye(2)[np.array(index)]  # party j's row: x for index 0, y for index 1
    if values[index] < 0.0:
        corner[0] = -corner[0]
    return corner


def _start_points(values: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """All starting directions as one (S, N, 2) array, in tie-break order."""
    n = values.ndim
    # 2N axis-aligned starts: all-x with party j on y, all-y with party j on x.
    on_j = np.eye(n, dtype=int)
    axis = np.eye(2)[np.stack([on_j, 1 - on_j], axis=1)]  # index 0 -> x, 1 -> y, as in _corner

    angles = np.random.default_rng(config.seed).uniform(0, math.tau, (config.random_starts, n))
    seeded = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    corner = _corner(values, np.abs(values))
    return np.concatenate([corner[None], axis.reshape(2 * n, n, 2), seeded])


def _fourier_bound(values: np.ndarray) -> float:
    """Sum of |c_s| >= T_max, where contracting the tensor with u_{s_j} for each
    party j gives the coefficients of E(a) = sum_s c_s e^{i sum_j s_j a_j}
    over sign vectors s.  Exact for noisy GHZ (two terms of V/2) and for N <= 2.
    """
    return float(np.abs(contract(values, [_FOURIER_ROWS] * values.ndim)).sum())


def t_max(tensor: CorrelationTensor, config: OptimizerConfig | None = None) -> TMaxResult:
    """Largest correlation-function value over all planar product settings.

    The Fourier bound ``upper`` (raised to ``value`` where rounding puts it
    below) comes first.  Where the largest-magnitude entry is within
    CERTIFY_RTOL / 2 of it, that corner is the result: no other start is drawn,
    no batch runs, and memory is O(2^N).  Otherwise all S starts ascend as one
    (S, N, 2) batch in O(S * 2^N) memory and O(2^N) per start per sweep: each
    stops at its own convergence, all once one meets the bound.
    ``starts_used`` counts the starts, drawn or not; deterministically, a tie
    goes to the first (corner, axis-aligned, random).
    """
    cfg = config or OptimizerConfig()
    values = np.asarray(tensor.values)
    n = values.ndim
    bound = _fourier_bound(values)
    target = bound * (1 - CERTIFY_RTOL / 2)
    # even on the corner path, raise where the (random_starts, n) float64 start-angle draw
    # cannot be allocated: DomainError past intp.max bytes (numpy's ValueError), else MemoryError
    if cfg.random_starts > np.iinfo(np.intp).max // (8 * n):
        raise DomainError(f"random_starts={cfg.random_starts} is more than numpy can address")
    np.empty((cfg.random_starts, n))
    magnitudes = np.abs(values)
    value = float(magnitudes.max())  # the corner's value |T_i*|
    if value >= target:
        maximizer, iterations, converged = _corner(values, magnitudes), 0, False
    else:
        ds, vals, sweeps, conv = _ascend(values, _start_points(values, cfg), cfg.max_sweeps, target)
        best = int(np.argmax(vals))
        maximizer = ds[best] / np.linalg.norm(ds[best], axis=1)[:, None]
        iterations, converged = int(sweeps.sum()), bool(conv[best])
        value = float(product_contraction(values, maximizer))
    upper = max(bound, value)
    certified = upper - value <= CERTIFY_RTOL * upper
    return TMaxResult(
        value=value,
        upper=upper,
        maximizer=maximizer,
        iterations=iterations,
        starts_used=1 + 2 * n + cfg.random_starts,
        converged=converged or certified,
        certified=certified,
    )


def sum_of_squares(tensor: CorrelationTensor) -> float:
    """Sum of the squares of all 2^N planar entries (exactly rounded)."""
    return math.fsum(np.square(tensor.values).ravel().tolist())


def analytic_inner_product(tensor_a: CorrelationTensor, tensor_b: CorrelationTensor) -> float:
    """Exact functional inner product of two tensor-form correlation functions.

    Over the full settings cube the cos/sin factors are orthogonal with
    squared norm pi per axis, so the integral of E_a * E_b collapses to
    pi^N times the entrywise dot product of the tensors.
    """
    if tensor_a.n_parties != tensor_b.n_parties:
        raise ShapeError(f"party counts differ: {tensor_a.n_parties} vs {tensor_b.n_parties}")
    dot = math.fsum((tensor_a.values * tensor_b.values).ravel().tolist())
    return math.pi**tensor_a.n_parties * dot
