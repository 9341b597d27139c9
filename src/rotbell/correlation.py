"""Planar correlation tensors and the rotationally invariant correlation function.

A planar tensor holds the 2^N full-correlation values measured along the
local x (index 1) and y (index 2) axes.  Contracting it with per-party
unit vectors (cos a_j, sin a_j) evaluates the correlation function for
arbitrary settings in the x-y planes, which is exactly the content of
rotational invariance: the value depends only on the directions, not on
the frames used to express them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .states import (
    MAX_STATE_PARTIES,
    MixedState,
    _check_party_count,
    contract,
    planar_expectations,
)

_ENTRY_BOUND = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Real tensor with one binary index per party (1 <-> x, 2 <-> y).

    ``values`` has shape (2,)*N with axis j-1 belonging to party j and
    position 0/1 standing for planar index 1/2.
    """

    n_parties: int
    values: np.ndarray

    def __post_init__(self):
        _check_party_count(self.n_parties)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2,) * self.n_parties:
            raise ShapeError(f"expected shape {(2,) * self.n_parties}, got {vals.shape}")
        peak = float(np.max(np.abs(vals))) if vals.size else 0.0
        if not peak <= _ENTRY_BOUND:  # NaN fails too
            raise DomainError(f"tensor entry magnitude {peak} exceeds 1 or is not finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def entry(self, multi_index: Sequence[int]) -> float:
        """Entry for a multi-index of planar indices, each 1 or 2."""
        if len(multi_index) != self.n_parties:
            raise ShapeError(
                f"multi-index length {len(multi_index)} != n_parties {self.n_parties}"
            )
        if any(i not in (1, 2) for i in multi_index):
            raise DomainError(f"planar indices must be 1 or 2, got {tuple(multi_index)}")
        return float(self.values[tuple(i - 1 for i in multi_index)])

    def to_json_dict(self) -> dict:
        """JSON form: {"n": N, "entries": {"1122": value, ...}}, zeros omitted."""
        entries = {}
        for idx in np.ndindex(*self.values.shape):
            v = float(self.values[idx])
            if v != 0.0:
                entries["".join(str(i + 1) for i in idx)] = v
        return {"n": self.n_parties, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationTensor":
        try:
            n = data["n"]
            entries = data.get("entries", {})
            if any(isinstance(value, (str, bool)) for value in entries.values()):
                raise TypeError("entry values must be JSON numbers")  # float() parses "0.5", true
            entries = {key: float(value) for key, value in entries.items()}
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed tensor document: {exc}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise DomainError(f"malformed tensor document: n must be an integer, got {n!r}")
        _check_party_count(n, MAX_STATE_PARTIES)
        vals = np.zeros((2,) * n)
        for key, value in entries.items():
            if len(key) != n or any(c not in "12" for c in key):
                raise DomainError(
                    f"entry key {key!r} is not a length-{n} string over digits 1 and 2"
                )
            vals[tuple(int(c) - 1 for c in key)] = value
        return cls(n, vals)


def product_contraction(values: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """A (2,)*N tensor at a batch of direction sets: (..., N, 2) -> (...).

    Each set holds one 2-vector per party.  Party 1 is contracted first, by
    one matrix product over the whole batch; each later party halves the
    (S, 2^(N-j)) partial contraction, so S sets cost O(S 2^N).
    """
    batch = np.shape(directions)[:-2]
    n = values.ndim
    rows = math.prod(batch)
    ds = np.reshape(directions, (rows, n, 2))
    out = ds[:, 0] @ values.reshape(2, -1)
    for j in range(1, n):
        out = np.einsum("sar,sa->sr", out.reshape(rows, 2, 2 ** (n - 1 - j)), ds[:, j])
    return out[:, 0].reshape(batch)


def tensor_from_state(rho: MixedState) -> CorrelationTensor:
    """Measure all 2^N planar full-correlation values of a state.

    A pure state, or a white-noise mixture kept as (psi, V), is gathered from
    its 2^N amplitudes, without a dense matrix.
    """
    return CorrelationTensor(rho.n_parties, planar_expectations(rho))


def ghz_planar_tensor(n_parties: int, visibility: float) -> CorrelationTensor:
    """Closed-form planar tensor of the noisy GHZ state.

    Entries with an even count k of index-2 positions equal
    V * (-1)^(k/2); entries with odd k vanish.  Exactly 2^(N-1) entries
    are nonzero, all of magnitude V.
    """
    _check_party_count(n_parties, MAX_STATE_PARTIES)
    if not 0.0 <= visibility <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {visibility}")
    k = ((np.arange(2**n_parties)[:, None] >> np.arange(n_parties)) & 1).sum(axis=1)
    flat = visibility * np.array([1.0, 0.0, -1.0, 0.0])[k % 4]  # bit j-1: party j
    return CorrelationTensor(n_parties, flat.reshape((2,) * n_parties, order="F"))


def correlation_value(tensor: CorrelationTensor, angles: Sequence[float]) -> float:
    """Correlation function at one planar angle per party, in radians.

    Multilinear in the per-party direction vectors (cos a_j, sin a_j): the
    sum over all multi-indices of the tensor entry times the product of
    cos/sin factors chosen by the index.
    """
    arr = np.asarray(angles, dtype=float)
    if arr.shape != (tensor.n_parties,):
        raise ShapeError(f"angles of shape {arr.shape} for a {tensor.n_parties}-party tensor")
    return float(product_contraction(tensor.values, np.stack([np.cos(arr), np.sin(arr)], axis=1)))


def correlation_function(tensor: CorrelationTensor) -> Callable[..., np.ndarray]:
    """Callable E(a_1, ..., a_N) that broadcasts over numpy angle arrays.

    Useful for evaluating the correlation function on quadrature grids;
    scalar angles give a 0-d array.  Parties are contracted last first,
    with the angle axes leading and the tensor axes left to contract trailing.
    """
    n = tensor.n_parties

    def evaluate(*angles):
        if len(angles) != n:
            raise ShapeError(f"expected {n} angle arguments, got {len(angles)}")
        out = tensor.values
        for j in range(n - 1, -1, -1):
            a = np.reshape(angles[j], np.shape(angles[j]) + (1,) * j)
            out = out[..., 0] * np.cos(a) + out[..., 1] * np.sin(a)
        return out

    return evaluate


def rotate_frames(tensor: CorrelationTensor, deltas: Sequence[float]) -> CorrelationTensor:
    """Re-express the tensor in per-party frames rotated by the given angles.

    Contracting the result with directions at angles (a_j - d_j)
    reproduces the original correlation values at angles a_j.
    """
    if len(deltas) != tensor.n_parties:
        raise ShapeError(f"{len(deltas)} rotation angles for a {tensor.n_parties}-party tensor")
    rows = [[[math.cos(d), math.sin(d)], [-math.sin(d), math.cos(d)]] for d in deltas]
    return CorrelationTensor(tensor.n_parties, contract(tensor.values, rows))
