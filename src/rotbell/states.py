"""N-qubit states, white-noise mixtures, and Pauli expectation values.

All types are immutable after construction and all operations are pure,
so they are safe to evaluate concurrently without coordination.  Local
measurement frames are identified with the global Pauli x, y, z axes for
every party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InvalidSizeError, ShapeError

# Memory caps: a state vector, and a white-noise mixture kept as one, has
# 2^N amplitudes; a dense density matrix 4^N entries.
MAX_STATE_PARTIES = 14
MAX_DENSE_PARTIES = 10

_TOL = 1e-12  # roundoff on the norm, Hermiticity, trace and unit sums
_EIGENVALUE_FLOOR = -1e-10


#: Per Pauli axis: flip f and phase row r, sigma[b xor f, b] = r[b] for b = 0, 1.
_AXES = {
    "x": (1, np.array([1, 1], dtype=complex)),
    "y": (1, np.array([1j, -1j], dtype=complex)),
    "z": (0, np.array([1, -1], dtype=complex)),
}


def _check_party_count(n_parties: int, cap: float = math.inf) -> None:
    if n_parties < 1:
        raise InvalidSizeError(f"n_parties must be >= 1, got {n_parties}")
    if n_parties > cap:
        raise InvalidSizeError(
            f"n_parties={n_parties} exceeds the configured cap of {cap}"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure N-qubit state: 2^N complex amplitudes, unit norm.

    The basis is the z-eigenbasis with party 1 as the most significant
    qubit; index 0 is the all-|+> state, index 2^N - 1 the all-|->.
    """

    n_parties: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_party_count(self.n_parties)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n_parties,):
            raise ShapeError(
                f"expected {2**self.n_parties} amplitudes for {self.n_parties} parties, "
                f"got shape {amp.shape}"
            )
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= _TOL:  # NaN fails too
            raise DomainError(f"squared-amplitude sum {norm_sq} differs from 1")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed N-qubit state as a dense 2^N x 2^N matrix.

    Rows and columns use the :class:`StateVector` basis order.  Full
    Pauli-product expectations read only the 2^N entries rho[b, b xor f]
    selected by the product's flip mask f (see :meth:`gather`).  White-noise
    mixtures of pure states need no dense matrix: :func:`mix_with_white_noise`
    keeps them as (psi, V) in a :class:`NoisyPureState`.
    """

    n_parties: int
    entries: np.ndarray

    def __post_init__(self):
        _check_party_count(self.n_parties)
        dim = 2**self.n_parties
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise ShapeError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DomainError("density matrix entries must be finite")
        skew = np.conjugate(mat.T, order="C")  # rho^dagger - rho in one temporary
        skew -= mat
        if np.abs(skew).max() > _TOL:
            raise DomainError("density matrix is not Hermitian")
        del skew  # not held through the factorization below
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TOL:
            raise DomainError(f"trace {tr} differs from 1")
        # Cholesky of rho + s*1, s = -floor/2, succeeds only if every eigenvalue
        # exceeds -s less its backward error (~2^N u tr rho), so above the
        # floor; eigvalsh decides the rest.  The shift goes on the kept copy.
        kept = mat.copy()
        np.fill_diagonal(kept, mat.diagonal() - _EIGENVALUE_FLOOR / 2)
        try:
            np.linalg.cholesky(kept)
        except np.linalg.LinAlgError:
            lowest = float(np.linalg.eigvalsh(mat)[0])
            if lowest < _EIGENVALUE_FLOOR:
                raise DomainError(f"negative eigenvalue {lowest}") from None
        np.fill_diagonal(kept, mat.diagonal())
        kept.setflags(write=False)
        object.__setattr__(self, "entries", kept)

    def gather(self, mask: int) -> np.ndarray:
        """The 2^N entries rho[b, b xor mask], b = 0 .. 2^N - 1."""
        ket = np.arange(2**self.n_parties)
        return self.entries[ket, ket ^ mask]


@dataclass(frozen=True, eq=False)
class NoisyPureState:
    """White-noise mixture V|psi><psi| + (1-V) 1/2^N, kept as (psi, V).

    A convex mix of a validated pure state with 1/2^N is positive
    semidefinite, so no eigenvalue check is needed.  :meth:`gather` needs
    no dense matrix; ``entries`` is built on first read, up to
    MAX_DENSE_PARTIES parties.
    """

    state: StateVector
    visibility: float

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise DomainError(f"visibility must lie in [0, 1], got {self.visibility}")

    @property
    def n_parties(self) -> int:
        return self.state.n_parties

    def gather(self, mask: int) -> np.ndarray:
        """rho[b, b xor mask] for every b: the dense matrix's arithmetic, without the matrix."""
        amp, v = self.state.amplitudes, self.visibility
        out = v * (amp * amp[np.arange(amp.size) ^ mask].conj())
        if mask == 0:
            out += (1.0 - v) / amp.size
        return out

    @cached_property
    def entries(self) -> np.ndarray:
        """Dense read-only matrix; InvalidSizeError above MAX_DENSE_PARTIES parties."""
        _check_party_count(self.n_parties, MAX_DENSE_PARTIES)
        amp, v = self.state.amplitudes, self.visibility
        mat = v * np.outer(amp, amp.conj())
        mat += (1.0 - v) / amp.size * np.eye(amp.size)
        mat.setflags(write=False)
        return mat


#: Any state whose Pauli expectations are gathered and contracted.
MixedState = Union[DensityMatrix, NoisyPureState]


def build_ghz(n_parties: int) -> StateVector:
    """Equal superposition of the all-|+> and all-|-> z-basis states."""
    _check_party_count(n_parties, MAX_STATE_PARTIES)
    amp = np.zeros(2**n_parties, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n_parties, amp)


def mix_with_white_noise(state: StateVector, visibility: float) -> NoisyPureState:
    """Mixture V|psi><psi| + (1-V) 1/2^N of a pure state with white noise, kept as (psi, V)."""
    _check_party_count(state.n_parties, MAX_STATE_PARTIES)
    return NoisyPureState(state, visibility)


def contract(values: np.ndarray, rows: Sequence) -> np.ndarray:
    """Contract party j's axis of a (2,)*N array with ``rows[j]``, in O(N 2^N).

    Row j is a (2,) row or a (k, 2) stack of rows.  Each party is one matmul,
    bit-identical to np.tensordot's: it consumes the leading (party j) axis
    and appends the stack axis, if any, at the end, so stacks leave their
    axes in party order.
    """
    out, stack = values, ()
    for row in map(np.asarray, rows):
        out = out.reshape(2, -1).T @ row.T
        stack += row.shape[:-1]
    return out.reshape(stack)


def pauli_expectation(rho: MixedState, axes: Sequence[str]) -> float:
    """Expectation of the N-fold Pauli product sigma_a1 x ... x sigma_aN.

    Each axis is "x", "y" or "z" in either case.  Tr(rho P) =
    sum_b rho[b, b xor f] prod_j <b_j xor f_j|sigma_aj|b_j>, where the flip
    mask f has a bit set for every x or y factor, so only 2^N entries of
    rho contribute.
    """
    resolved = [_AXES.get(str(a).lower()) for a in axes]
    if None in resolved:
        unknown = axes[resolved.index(None)]
        raise DomainError(f"unknown Pauli axis {unknown!r}; expected one of x, y, z")
    if len(resolved) != rho.n_parties:
        raise ShapeError(
            f"got {len(resolved)} axes for a {rho.n_parties}-party state"
        )
    flips, rows = zip(*resolved)
    mask = int("".join(map(str, flips)), 2)
    return float(contract(rho.gather(mask).reshape((2,) * rho.n_parties), rows).real)


def planar_expectations(rho: MixedState) -> np.ndarray:
    """All 2^N expectations of x/y Pauli products, shape (2,)*N.

    Axis j-1 is party j, with 0 for x and 1 for y.  Every such product flips
    all qubits, so this is the anti-diagonal rho[b, ~b] phased per party.
    """
    rows = np.stack([_AXES["x"][1], _AXES["y"][1]])
    n = rho.n_parties
    return contract(rho.gather(2**n - 1).reshape((2,) * n), [rows] * n).real
