"""Maximal correlation over planar settings and tensor inner products.

The maximum of the correlation function over all product settings is the
largest contraction of the tensor with per-party unit 2-vectors.  It is
found by alternating maximization (the higher-order power method): with
all parties but one fixed, the partial contraction is a 2-vector whose
normalization is the exact per-party optimum, so each step is
closed-form and the objective never decreases.  Deterministic
multistart (seeded random starts plus axis-aligned ones) guards against
local maxima.  A closed-form Fourier bound caps the maximum from above;
where it meets the value found, the value is proven to be the maximum.

All S starts ascend together as one (S, N, 2) batch, contracting party by
party in O(2^N) per start per sweep.  Each stops at its own convergence, all
stop once one meets the Fourier bound, and among equal values the first wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTensor, product_contraction
from .errors import DomainError, ShapeError
from .functional_space import _TWO_PI
from .states import contract

#: ``certified`` holds when the Fourier bound exceeds the value by at most this fraction of it.
CERTIFY_RTOL = 1e-12

#: A start converges once a sweep raises its value by less than this.
_IMPROVEMENT_TOL = 1e-13

#: Rows u+ = (1, -i)/2 and u- = (1, i)/2: (cos a, sin a) = e^{ia} u+ + e^{-ia} u-.
_FOURIER_ROWS = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / 2


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating maximizer, all nonnegative.

    ``random_starts`` random starts from one generator seeded with ``seed``
    join 2N axis-aligned starts and one at the largest-magnitude basis entry
    (so the result is at least that entry).  Each runs at most ``max_sweeps``
    sweeps and converges once a sweep gains less than ``_IMPROVEMENT_TOL``.
    """

    random_starts: int = 64
    seed: int = 0
    max_sweeps: int = 1000

    def __post_init__(self):
        if min(self.random_starts, self.seed, self.max_sweeps) < 0:
            raise DomainError(f"settings must be >= 0: {self}")


@dataclass(frozen=True, eq=False)
class TMaxResult:
    """Outcome of the planar-settings maximization.

    ``maximizer`` holds one unit 2-vector per party; ``value`` equals the
    contraction of the tensor with their product, a lower bound on T_max,
    and ``upper`` an upper bound.  ``certified`` holds when ``upper - value
    <= CERTIFY_RTOL * upper``: then ``value`` is proven to be T_max and
    ``converged`` holds, else that flag means the winning start converged.
    ``iterations`` sums the sweeps run: none if a start met the bound at once.
    Ties go to the first start; when the corner start meets the bound, it
    wins before the others are evaluated, which differs only where another
    start begins within CERTIFY_RTOL / 2 above it.
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
    """Alternating per-party maximization from every start at once.

    ``starts`` is an (S, N, 2) array of directions.  Party j's gradient is
    the running contraction P_j (P_0 = T, P_{j+1} = d_j . P_j over its first
    axis) times the Kronecker row of the old directions of parties > j.  A
    row leaves the batch at its own convergence, as a lone ascent would; the
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
        suffixes = [np.ones((rows, 1))]
        for j in range(n - 1, 0, -1):
            suffixes.append((sub[:, j, :, None] * suffixes[-1][:, None, :]).reshape(rows, -1))
        partial = whole[:rows]
        for j in range(n):
            half = partial.reshape(rows, 2, -1)
            grad = np.einsum("sar,sr->sa", half, suffixes[n - 1 - j])
            norm = np.hypot(grad[:, 0], grad[:, 1])
            # zero gradient: any direction is optimal, keep the previous one
            np.divide(grad, norm[:, None], out=sub[:, j], where=norm[:, None] > 0.0)
            if j < n - 1:
                partial = np.einsum("sa,sar->sr", sub[:, j], half)
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


def _start_points(values: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """All starting directions as one (S, N, 2) array, in tie-break order."""
    n = values.ndim
    e1, e2 = np.eye(2)

    # Corner of the largest-magnitude entry, sign-corrected so its initial
    # objective is |T_i*|; monotone ascent then keeps value >= max |T_i|.
    flat = values.reshape(-1, order="F")
    flat_key = int(np.argmax(np.abs(flat)))
    bits = (flat_key >> np.arange(n)) & 1
    corner = np.where(bits[:, None] == 1, e2, e1)
    if flat[flat_key] < 0.0:
        corner[0] = -corner[0]

    # 2N axis-aligned starts: all-x with party j on y, all-y with party j on x.
    on_j = np.eye(n, dtype=bool)[:, :, None]
    axis = np.stack([np.where(on_j, e2, e1), np.where(on_j, e1, e2)], axis=1)

    # an (S, N) float64 array over intp.max bytes raises ValueError, not MemoryError
    if config.random_starts > np.iinfo(np.intp).max // (8 * n):
        raise DomainError(f"random_starts={config.random_starts} is more than numpy can address")
    angles = np.random.default_rng(config.seed).uniform(0, _TWO_PI, (config.random_starts, n))
    seeded = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return np.concatenate([corner[None], axis.reshape(2 * n, n, 2), seeded])


def _fourier_bound(values: np.ndarray) -> float:
    """Sum of |c_s| >= T_max, where contracting the tensor with u_{s_j} for each
    party j gives the coefficients of E(a) = sum_s c_s e^{i sum_j s_j a_j}
    over sign vectors s.  Exact for noisy GHZ (two terms of V/2) and for N <= 2.
    """
    return float(np.abs(contract(values, [_FOURIER_ROWS] * values.ndim)).sum())


def t_max(tensor: CorrelationTensor, config: OptimizerConfig | None = None) -> TMaxResult:
    """Largest correlation-function value over all planar product settings.

    All starts ascend together as one batch, each stopping at its own
    convergence and all once one is within CERTIFY_RTOL / 2 of the Fourier
    bound ``upper`` (raised to ``value`` where rounding puts it below);
    ``iterations`` sums the sweeps run and ``starts_used`` counts the starts.
    Deterministic for a fixed config: a tie goes to the first start in
    order (corner, axis-aligned, random).  Memory is O(S * 2^N) for S starts.
    """
    cfg = config or OptimizerConfig()
    values = np.asarray(tensor.values)
    bound = _fourier_bound(values)
    starts = _start_points(values, cfg)
    target = bound * (1 - CERTIFY_RTOL / 2)
    # the corner start's value is |T_i*|: where that meets the bound, it alone ascends
    batch = starts[:1] if np.abs(values).max() >= target else starts
    ds, found, sweeps, converged = _ascend(values, batch, cfg.max_sweeps, target)
    best = int(np.argmax(found))
    maximizer = ds[best] / np.linalg.norm(ds[best], axis=1)[:, None]
    value = float(product_contraction(values, maximizer))
    upper = max(bound, value)
    certified = upper - value <= CERTIFY_RTOL * upper
    return TMaxResult(
        value=value,
        upper=upper,
        maximizer=maximizer,
        iterations=int(sweeps.sum()),
        starts_used=len(starts),
        converged=bool(converged[best]) or certified,
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
