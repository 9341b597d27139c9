"""N-qubit states, white-noise mixtures, and Pauli expectation values.

All types are immutable after construction and all operations are pure,
so they are safe to evaluate concurrently without coordination.  Local
measurement frames are identified with the global Pauli x, y, z axes for
every party.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InvalidSizeError, ShapeError

# Memory caps (overridable per call): a state vector has 2^N amplitudes,
# a dense density matrix 4^N entries.
MAX_STATE_PARTIES = 14
MAX_DENSE_PARTIES = 10

_NORM_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


class PauliAxis(Enum):
    """One of the three local measurement axes."""

    X = "x"
    Y = "y"
    Z = "z"

    @property
    def index(self) -> int:
        """Conventional 1-based axis index (x=1, y=2, z=3)."""
        return {"x": 1, "y": 2, "z": 3}[self.value]

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 Pauli matrix for this axis (fresh copy)."""
        return _PAULI[self].copy()


_PAULI = {
    PauliAxis.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliAxis.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    PauliAxis.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
#: Flip f per axis: the nonzero entries of each Pauli are sigma[b xor f, b], b = 0, 1.
_FLIPS = {PauliAxis.X: 1, PauliAxis.Y: 1, PauliAxis.Z: 0}

AxisLike = Union[PauliAxis, str]


def _as_axis(axis: AxisLike) -> PauliAxis:
    if isinstance(axis, PauliAxis):
        return axis
    try:
        return PauliAxis(str(axis).lower())
    except ValueError:
        raise DomainError(f"unknown Pauli axis {axis!r}; expected one of x, y, z") from None


def _check_party_count(n_parties: int, cap: int) -> None:
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
        if self.n_parties < 1:
            raise InvalidSizeError(f"n_parties must be >= 1, got {self.n_parties}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n_parties,):
            raise ShapeError(
                f"expected {2**self.n_parties} amplitudes for {self.n_parties} parties, "
                f"got shape {amp.shape}"
            )
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise DomainError(f"squared-amplitude sum {norm_sq} differs from 1")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed N-qubit state as a dense 2^N x 2^N matrix.

    Rows and columns use the :class:`StateVector` basis order.  Full
    Pauli-product expectations read only the 2^N entries rho[b, b xor f]
    selected by the product's flip mask f (see :func:`pauli_expectation`).
    """

    n_parties: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n_parties < 1:
            raise InvalidSizeError(f"n_parties must be >= 1, got {self.n_parties}")
        dim = 2**self.n_parties
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise ShapeError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise DomainError("density matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
            raise DomainError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise DomainError(f"trace {tr} differs from 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < _EIGENVALUE_FLOOR:
            raise DomainError(f"negative eigenvalue {lowest}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


def build_ghz(n_parties: int, max_parties: int = MAX_STATE_PARTIES) -> StateVector:
    """Equal superposition of the all-|+> and all-|-> z-basis states."""
    _check_party_count(n_parties, max_parties)
    amp = np.zeros(2**n_parties, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n_parties, amp)


def mix_with_white_noise(
    state: StateVector,
    visibility: float,
    max_parties: int = MAX_DENSE_PARTIES,
) -> DensityMatrix:
    """Mixture V|psi><psi| + (1-V) 1/2^N of a pure state with white noise."""
    if not 0.0 <= visibility <= 1.0:
        raise DomainError(f"visibility must lie in [0, 1], got {visibility}")
    _check_party_count(state.n_parties, max_parties)
    dim = 2**state.n_parties
    mat = visibility * np.outer(state.amplitudes, state.amplitudes.conj())
    mat += (1.0 - visibility) / dim * np.eye(dim)
    return DensityMatrix(state.n_parties, mat)


def _gather_and_phase(rho: DensityMatrix, mask: int, tables: Sequence) -> np.ndarray:
    """Real part of sum_b rho[b, b xor mask] prod_j tables[j][..., b_j], in O(N 2^N).

    Table j is a phase row (2,) or a stack of rows (k, 2); each contraction
    consumes party j's axis and appends the stack axis, if any, at the end.
    """
    ket = np.arange(2**rho.n_parties)
    out = rho.entries[ket, ket ^ mask].reshape((2,) * rho.n_parties)
    for table in tables:
        out = np.tensordot(out, table, axes=([0], [-1]))
    return out.real


def pauli_expectation(rho: DensityMatrix, axes: Sequence[AxisLike]) -> float:
    """Expectation of the N-fold Pauli product sigma_a1 x ... x sigma_aN.

    Tr(rho P) = sum_b rho[b, b xor f] prod_j <b_j xor f_j|sigma_aj|b_j>,
    where the flip mask f has a bit set for every x or y factor, so only
    2^N entries of rho contribute.
    """
    resolved = [_as_axis(a) for a in axes]
    if len(resolved) != rho.n_parties:
        raise ShapeError(
            f"got {len(resolved)} axes for a {rho.n_parties}-party state"
        )
    flips = [_FLIPS[a] for a in resolved]
    rows = [_PAULI[a][[f, 1 - f], [0, 1]] for a, f in zip(resolved, flips)]
    mask = int("".join(map(str, flips)), 2)
    return float(_gather_and_phase(rho, mask, rows))


def planar_expectations(rho: DensityMatrix) -> np.ndarray:
    """All 2^N expectations of x/y Pauli products, shape (2,)*N.

    Axis j-1 is party j, with 0 for x and 1 for y.  Every such product flips
    all qubits, so this is the anti-diagonal rho[b, ~b] phased per party.
    """
    rows = np.stack([_PAULI[a][[1, 0], [0, 1]] for a in (PauliAxis.X, PauliAxis.Y)])
    return _gather_and_phase(rho, 2**rho.n_parties - 1, [rows] * rho.n_parties)
