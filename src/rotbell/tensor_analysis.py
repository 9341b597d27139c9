"""Maximal correlation over planar settings and tensor inner products.

The maximum of the correlation function over all product settings is the
largest contraction of the tensor with per-party unit 2-vectors.  It is
found by alternating maximization (the higher-order power method): with
all parties but one fixed, the partial contraction is a 2-vector whose
normalization is the exact per-party optimum, so each step is
closed-form and the objective never decreases.  Deterministic
multistart (seeded random starts plus axis-aligned ones) guards against
local maxima; for small party counts an exhaustive angle grid with local
refinement certifies the result.

All S starts ascend together as one (S, N, 2) batch, which costs
O(N * 2^N) per start per sweep and O(S * 2^N) memory.  Each start stops
at its own convergence, and among equal values the first start wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTensor, product_contraction
from .errors import ShapeError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the alternating maximizer.

    ``random_starts`` seeded random starting points are used on top of
    2N axis-aligned starts and one start at the largest-magnitude basis
    entry (which guarantees the result is at least that entry).  Grids
    of ``grid_points`` angles per axis certify results for up to
    ``certify_max_parties`` parties.
    """

    random_starts: int = 64
    seed: int = 0
    max_sweeps: int = 1000
    improvement_tol: float = 1e-13
    certify_max_parties: int = 4
    grid_points: int = 48


@dataclass(frozen=True, eq=False)
class TMaxResult:
    """Outcome of the planar-settings maximization.

    ``maximizer`` holds one unit 2-vector per party; ``value`` equals the
    contraction of the tensor with their product.  ``certified`` is set
    only when the exhaustive-grid check ran (small party counts) and the
    chosen branch converged; otherwise the value is best-found.
    """

    value: float
    maximizer: np.ndarray
    iterations: int
    starts_used: int
    converged: bool
    certified: bool

    def __post_init__(self):
        arr = np.asarray(self.maximizer, dtype=float)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "maximizer", arr)


def _kron_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two (S, a) and (S, b) arrays."""
    return (left[:, :, None] * right[:, None, :]).reshape(len(left), -1)


def _ascend(values: np.ndarray, starts: np.ndarray, max_sweeps: int, tol: float):
    """Alternating per-party maximization from every start at once.

    ``starts`` is an (S, N, 2) array of directions.  Party j's gradient is
    the Kronecker row of the updated directions of parties < j, times the
    tensor reshaped (2^j, 2 * 2^(N-1-j)), contracted with the Kronecker row
    of the old directions of parties > j.  A row leaves the batch at its
    own convergence, so its sweep count is what a lone ascent would take.
    Returns the directions, values, sweep counts and convergence flags.
    """
    n = values.ndim
    ds = starts.copy()
    count = len(ds)
    full = np.ones((count, 1))
    for j in range(n):
        full = _kron_rows(full, ds[:, j])
    value = full @ values.reshape(-1)
    sweeps = np.full(count, max_sweeps)
    converged = np.zeros(count, dtype=bool)
    blocks = [values.reshape(2**j, -1) for j in range(n)]
    active = np.arange(count)
    for sweep in range(1, max_sweeps + 1):
        if active.size == 0:
            break
        sub = ds[active]
        rows = len(sub)
        suffixes = [np.ones((rows, 1))]
        for j in range(n - 1, 0, -1):
            suffixes.append(_kron_rows(sub[:, j], suffixes[-1]))
        prefix = np.ones((rows, 1))
        for j in range(n):
            half = (prefix @ blocks[j]).reshape(rows, 2, -1)
            grad = np.einsum("sar,sr->sa", half, suffixes[n - 1 - j])
            norm = np.hypot(grad[:, 0], grad[:, 1])
            # zero gradient: any direction is optimal, keep the previous one
            moved = norm > 0.0
            sub[moved, j] = grad[moved] / norm[moved, None]
            if j < n - 1:
                prefix = _kron_rows(prefix, sub[:, j])
        ds[active] = sub
        done = norm - value[active] < tol
        value[active] = norm
        sweeps[active[done]] = sweep
        converged[active[done]] = True
        active = active[~done]
    return ds, value, sweeps, converged


def _start_points(values: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """All starting directions as one (S, N, 2) array, in tie-break order."""
    n = values.ndim
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])

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

    angles = np.array(
        [
            np.random.default_rng([config.seed, i]).uniform(0.0, _TWO_PI, n)
            for i in range(config.random_starts)
        ]
    ).reshape(-1, n)
    seeded = np.stack([np.cos(angles), np.sin(angles)], axis=-1)

    starts = [corner[None], axis.reshape(2 * n, n, 2), seeded]
    if n <= config.certify_max_parties:
        starts.append(_grid_argmax(values, config.grid_points)[None])
    return np.concatenate(starts)


def _grid_argmax(values: np.ndarray, grid_points: int) -> np.ndarray:
    """Directions of the best point on the per-axis uniform angle grid."""
    n = values.ndim
    nodes = _TWO_PI * np.arange(grid_points) / grid_points
    basis = np.stack([np.cos(nodes), np.sin(nodes)])  # (2, grid_points)
    out = values
    for _ in range(n):
        out = np.tensordot(out, basis, axes=([0], [0]))
    best = np.unravel_index(int(np.argmax(out)), out.shape)
    angles = nodes[list(best)]
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def t_max(tensor: CorrelationTensor, config: OptimizerConfig | None = None) -> TMaxResult:
    """Largest correlation-function value over all planar product settings.

    All starts ascend together as one batch, each stopping at its own
    convergence; ``iterations`` sums their sweeps and ``starts_used``
    counts them.  Deterministic for a fixed config: per-start seeds
    derive from the master seed and a tie goes to the first start in
    order (corner, axis-aligned, random, grid), so the result does not
    depend on evaluation order.  Memory is O(S * 2^N) for S starts.
    """
    cfg = config or OptimizerConfig()
    values = np.asarray(tensor.values)
    starts = _start_points(values, cfg)
    ds, found, sweeps, converged = _ascend(
        values, starts, cfg.max_sweeps, cfg.improvement_tol
    )
    best = int(np.argmax(found))
    maximizer = ds[best] / np.linalg.norm(ds[best], axis=1)[:, None]
    best_converged = bool(converged[best])
    return TMaxResult(
        value=product_contraction(values, maximizer),
        maximizer=maximizer,
        iterations=int(sweeps.sum()),
        starts_used=len(starts),
        converged=best_converged,
        certified=best_converged and tensor.n_parties <= cfg.certify_max_parties,
    )


def sum_of_squares(tensor: CorrelationTensor) -> float:
    """Sum of the squares of all 2^N planar entries (exactly rounded)."""
    return math.fsum(float(v) * float(v) for v in tensor.flat)


def analytic_inner_product(tensor_a: CorrelationTensor, tensor_b: CorrelationTensor) -> float:
    """Exact functional inner product of two tensor-form correlation functions.

    Over the full settings cube the cos/sin factors are orthogonal with
    squared norm pi per axis, so the integral of E_a * E_b collapses to
    pi^N times the entrywise dot product of the tensors.
    """
    if tensor_a.n_parties != tensor_b.n_parties:
        raise ShapeError(
            f"party counts differ: {tensor_a.n_parties} vs {tensor_b.n_parties}"
        )
    dot = math.fsum(float(x) * float(y) for x, y in zip(tensor_a.flat, tensor_b.flat))
    return math.pi**tensor_a.n_parties * dot
