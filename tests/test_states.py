"""Tests for state construction, noise mixing, and Pauli expectations."""

import itertools
import tracemalloc

import numpy as np
import pytest
from functools import reduce

from rotbell import (
    DensityMatrix,
    DomainError,
    InvalidSizeError,
    NoisyPureState,
    ShapeError,
    StateVector,
    build_ghz,
    ghz_planar_tensor,
    mix_with_white_noise,
    pauli_expectation,
    tensor_from_state,
)
from rotbell.states import contract, planar_expectations

from conftest import dense

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ORACLE_PAULI = {"x": SX, "y": SY, "z": SZ}


def trace_oracle(rho_entries, axis_names):
    """Independent expectation: explicit kron product and matrix trace."""
    product = reduce(np.kron, [ORACLE_PAULI[a] for a in axis_names])
    return float(np.trace(rho_entries @ product).real)


#: Flip bit per axis: the nonzero entries of sigma_a are sigma_a[b xor f, b].
ORACLE_FLIPS = {"x": 1, "y": 1, "z": 0}


def row_extraction_expectation(rho, axes):
    """``pauli_expectation`` as the dense-matrix row extraction it replaced."""
    keys = [str(a).lower() for a in axes]
    flips = [ORACLE_FLIPS[k] for k in keys]
    rows = [ORACLE_PAULI[k][[f, 1 - f], [0, 1]] for k, f in zip(keys, flips)]
    mask = int("".join(map(str, flips)), 2)
    return float(contract(rho.gather(mask).reshape((2,) * rho.n_parties), rows).real)


def row_extraction_planar(rho):
    """``planar_expectations`` as the dense-matrix row extraction it replaced."""
    rows = np.stack([ORACLE_PAULI[a][[1, 0], [0, 1]] for a in "xy"])
    n = rho.n_parties
    return contract(rho.gather(2**n - 1).reshape((2,) * n), [rows] * n).real


def einsum_contract(values, rows):
    """``contract`` as one np.einsum call: a (k, 2) stack's axis follows the
    surviving stack axes in party order; a (2,) row leaves none."""
    n = values.ndim
    operands, output = [values, list(range(n))], []
    for j, row in enumerate(rows):
        if np.ndim(row) == 1:
            operands += [row, [j]]
        else:
            operands += [row, [n + j, j]]
            output.append(n + j)
    return np.einsum(*operands, output)


def tensordot_contract(values, rows):
    """``contract`` as one np.tensordot per party, the loop it replaced."""
    out = values
    for row in rows:
        out = np.tensordot(out, row, axes=([0], [-1]))
    return out


#: Random contraction rows by form: a (2,) row, a real or complex (2, 2) stack,
#: or a (3, 2) stack, whose axis cannot be confused with a party axis.
ROW_FORMS = {
    "rows": lambda rng: rng.normal(size=2),
    "real stacks": lambda rng: rng.normal(size=(2, 2)),
    "complex stacks": lambda rng: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
    "wide stacks": lambda rng: rng.normal(size=(3, 2)),
}


class TestContract:
    @pytest.mark.parametrize("kind", [*ROW_FORMS, "mixed"])
    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_tensordot_loop(self, n, complex_values, kind):
        # the same products summed in the same order: equal bit for bit
        rng = np.random.default_rng([89, n])
        values = rng.normal(size=(2,) * n)
        if complex_values:
            values = values + 1j * rng.normal(size=(2,) * n)
        forms = rng.choice(list(ROW_FORMS), size=n) if kind == "mixed" else [kind] * n
        rows = [ROW_FORMS[form](rng) for form in forms]
        got = contract(values, rows)
        expected = tensordot_contract(values, rows)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("kind", [*ROW_FORMS, "mixed"])
    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_one_einsum(self, n, complex_values, kind):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(2,) * n)
        if complex_values:
            values = values + 1j * rng.normal(size=(2,) * n)
        forms = rng.choice(list(ROW_FORMS), size=n) if kind == "mixed" else [kind] * n
        rows = [ROW_FORMS[form](rng) for form in forms]
        got = contract(values, rows)
        expected = einsum_contract(values, rows)
        assert got.shape == expected.shape
        # both sum the same 2^n products in different orders: bound the
        # rounding by 2^n ulps of the absolute sum of the terms (4 per
        # complex product)
        scale = einsum_contract(np.abs(values), [np.abs(r) for r in rows])
        assert np.all(np.abs(got - expected) <= 4 * 2**n * np.finfo(float).eps * scale)


class TestBuildGhz:
    def test_single_party(self):
        state = build_ghz(1)
        np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2)] * 2)

    def test_two_parties(self):
        state = build_ghz(2)
        np.testing.assert_allclose(
            state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)]
        )

    def test_three_parties_norm_and_support(self):
        state = build_ghz(3)
        assert np.isclose(np.sum(np.abs(state.amplitudes) ** 2), 1.0, atol=1e-12)
        assert np.count_nonzero(state.amplitudes) == 2

    def test_rejects_zero_parties(self):
        with pytest.raises(InvalidSizeError):
            build_ghz(0)

    def test_rejects_over_cap(self):
        with pytest.raises(InvalidSizeError):
            build_ghz(15)

    def test_amplitudes_read_only(self):
        state = build_ghz(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            StateVector(1, np.array([1.0, bad]))


class TestMixWithWhiteNoise:
    def test_full_visibility_is_projector(self):
        state = build_ghz(2)
        rho = mix_with_white_noise(state, 1.0)
        expected = np.outer(state.amplitudes, state.amplitudes.conj())
        np.testing.assert_allclose(dense(rho), expected, atol=1e-15)

    def test_zero_visibility_is_maximally_mixed(self):
        rho = mix_with_white_noise(build_ghz(3), 0.0)
        np.testing.assert_allclose(dense(rho), np.eye(8) / 8, atol=1e-15)

    def test_half_visibility_diagonal(self):
        # direct matrix arithmetic: 0.5*(1/2,0,0,1/2) + 0.5*(1/4)*ones
        rho = mix_with_white_noise(build_ghz(2), 0.5)
        np.testing.assert_allclose(
            np.real(np.diag(dense(rho))), [0.375, 0.125, 0.125, 0.375], atol=1e-15
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, float("nan")])
    def test_rejects_visibility_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            mix_with_white_noise(build_ghz(2), bad)
        with pytest.raises(DomainError):
            NoisyPureState(build_ghz(2), bad)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(False), "0.3", None])
    def test_rejects_non_numeric_visibility(self, bad):
        # a bool is no number, and "0.3" raised a bare TypeError
        message = rf"^visibility must lie in \[0, 1\], got {bad}$"
        with pytest.raises(DomainError, match=message):
            mix_with_white_noise(build_ghz(3), bad)
        with pytest.raises(DomainError, match=message):
            NoisyPureState(build_ghz(3), bad)

    @pytest.mark.parametrize("v", [np.float64(0.3), np.float32(0.5), 1, np.int64(0)])
    def test_accepts_numpy_and_integer_visibility(self, v):
        assert mix_with_white_noise(build_ghz(2), v).visibility == v

    def test_dense_matrix_cap(self):
        # mixtures are kept as (psi, V) up to 14 parties
        amp = np.zeros(2**15)
        amp[0] = 1.0
        big = StateVector(15, amp)
        with pytest.raises(InvalidSizeError):
            mix_with_white_noise(big, 0.5)

    def test_invariants_for_random_visibility(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            state = build_ghz(n)
            for v in rng.uniform(0, 1, 5):
                rho = mix_with_white_noise(state, float(v))
                mat = dense(rho)
                assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
                assert abs(np.trace(mat) - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(mat)[0] >= -1e-10


#: DensityMatrix accepts a state whose lowest eigenvalue is at least this.
EIGENVALUE_FLOOR = -1e-10


def planted_state(rng, n, lowest):
    """Density-like matrix with eigenvalue ``lowest`` and the rest positive,
    summing to 1, in a Haar-random unitary frame."""
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    eigenvalues = np.concatenate([[lowest], (1.0 - lowest) * rng.dirichlet(np.ones(dim - 1))])
    mat = (q * eigenvalues) @ q.conj().T
    return (mat + mat.conj().T) / 2


def rank_deficient_states(n):
    """Dephased GHZ, the GHZ projector and a random pure-state projector."""
    ghz = build_ghz(n).amplitudes
    amp = np.array([1.0, 1.0j]) @ np.random.default_rng([71, n]).normal(size=(2, 2**n))
    amp /= np.linalg.norm(amp)
    return [np.diag(np.abs(ghz) ** 2), np.outer(ghz, ghz.conj()), np.outer(amp, amp.conj())]


#: One entry of an N=3 state moved on one side only: (where, offset, accepted).
SKEW_CASES = [((0, 5), 2e-12, False), ((6, 1), 2e-12j, False), ((2, 2), 2e-12j, False),
              ((2, 2), 1e-12j, False), ((0, 5), 5e-13, True), ((6, 1), 5e-13j, True)]


class TestDensityMatrixValidation:
    """Positivity is proven by the Gershgorin bound where it reaches -1e-10,
    else by Cholesky of rho + 5e-11 * 1, with eigvalsh deciding whatever
    that factorization rejects (see TestGershgorinCertificate)."""

    @pytest.mark.parametrize("lowest", [-1e-9, -2e-10, -1.01e-10])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rejects_planted_eigenvalue_below_floor(self, n, lowest):
        mat = planted_state(np.random.default_rng([73, n]), n, lowest)
        assert np.linalg.eigvalsh(mat)[0] < EIGENVALUE_FLOOR
        with pytest.raises(DomainError, match="negative eigenvalue"):
            DensityMatrix(n, mat)

    @pytest.mark.parametrize("lowest", [-0.99e-10, -5e-11, -1e-11, 0.0, 1e-12])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_accepts_planted_eigenvalue_at_or_above_floor(self, n, lowest):
        mat = planted_state(np.random.default_rng([79, n]), n, lowest)
        assert np.linalg.eigvalsh(mat)[0] >= EIGENVALUE_FLOOR
        np.testing.assert_array_equal(DensityMatrix(n, mat).entries, mat)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_accepts_rank_deficient_states(self, n):
        for mat in rank_deficient_states(n):
            rho = DensityMatrix(n, mat)
            # the diagonal shift is undone bit for bit, on a copy
            np.testing.assert_array_equal(rho.entries, mat)
            assert not np.shares_memory(rho.entries, mat)
            assert not rho.entries.flags.writeable

    @pytest.mark.parametrize("n", range(1, 9))
    def test_positive_states_need_no_eigvalsh(self, n, monkeypatch):
        # the Cholesky certificate alone accepts eigenvalues down to -1e-11
        states = rank_deficient_states(n)
        if n <= 6:
            rng = np.random.default_rng([83, n])
            states += [planted_state(rng, n, lowest) for lowest in (-1e-11, 0.0, 1e-12)]

        def fail(_):
            raise AssertionError("eigvalsh ran on a state the certificate accepts")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        for mat in states:
            DensityMatrix(n, mat)

    def test_real_input_is_kept_as_complex_copy(self):
        mat = np.diag([0.25, 0.75])
        rho = DensityMatrix(1, mat)
        assert rho.entries.dtype == complex
        np.testing.assert_array_equal(rho.entries, mat)
        np.testing.assert_array_equal(mat, np.diag([0.25, 0.75]))

    def test_rejects_non_hermitian(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(DomainError):
            DensityMatrix(1, mat)

    @pytest.mark.parametrize("where, offset, accepted", SKEW_CASES)
    def test_hermiticity_tolerance(self, where, offset, accepted):
        # one entry moved on one side only: |rho - rho^dagger| there is |offset|,
        # or twice its imaginary part on the diagonal, against the 1e-12 tolerance
        mat = planted_state(np.random.default_rng(97), 3, 0.01)
        mat[where] += offset
        if accepted:
            assert DensityMatrix(3, mat).entries[where] == mat[where]
        else:
            with pytest.raises(DomainError, match="not Hermitian"):
                DensityMatrix(3, mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 0.0)])
    @pytest.mark.parametrize("where", [(0, 3), (1, 1)])
    def test_rejects_non_finite(self, bad, where):
        mat = np.eye(4, dtype=complex) / 4
        mat[where] = mat[where[::-1]] = bad
        with pytest.raises(DomainError):
            DensityMatrix(2, mat)


def gershgorin_bound(mat):
    """Gershgorin's lower bound on the eigenvalues of the Hermitian part."""
    h = (mat + mat.conj().T) / 2
    return float(np.min(h.diagonal().real - (np.abs(h).sum(axis=1) - np.abs(h.diagonal()))))


def dephased_ghz(n, v, phase=0.0):
    """GHZ with its coherence scaled by v and turned by a phase: an X-state."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = mat[-1, -1] = 0.5
    mat[0, -1] = 0.5 * v * np.exp(1j * phase)
    mat[-1, 0] = np.conj(mat[0, -1])
    return mat


def corner_block(n, lowest):
    """[[1/2, c], [c, 1/2]] at the GHZ corners, c = 1/2 - lowest: its lowest
    eigenvalue and its Gershgorin bound are both ``lowest``."""
    mat = dephased_ghz(n, 0.0)
    mat[0, -1] = mat[-1, 0] = 0.5 - lowest
    return mat


def diagonal_states(n):
    rng = np.random.default_rng([89, n])
    probabilities = [rng.dirichlet(np.ones(2**n)), np.eye(2**n)[-1]]
    return [np.diag(p).astype(complex) for p in probabilities]


def identity_heavy_mixture(wishart, n):
    """0.1 of a normalized complex Wishart state, 0.9 of 1/2^N."""
    return 0.1 * wishart(np.random.default_rng([101, n]), n) + 0.9 * np.eye(2**n) / 2**n


def certified_states(n, wishart):
    states = [dephased_ghz(n, v, phase) for v in (0.0, 0.05, 0.37, 1.0) for phase in (0.0, 2.0)]
    states += diagonal_states(n)
    if n in (3, 6):
        states.append(identity_heavy_mixture(wishart, n))
    return states


def reference_verdict(n, mat):
    """DensityMatrix's checks as they were before the Gershgorin bound, with
    positivity decided by Cholesky of rho + 5e-11 * 1 and eigvalsh alone:
    None where the state is accepted, else the DomainError text."""
    mat = np.asarray(mat, dtype=complex)
    if np.abs(mat.conj().T - mat).max() > 1e-12:
        return "density matrix is not Hermitian"
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-12:
        return f"trace {tr} differs from 1"
    try:
        np.linalg.cholesky(mat + 5e-11 * np.eye(2**n))
    except np.linalg.LinAlgError:
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < EIGENVALUE_FLOOR:
            return f"negative eigenvalue {lowest}"
    return None


def verdict(n, mat):
    try:
        DensityMatrix(n, mat)
    except DomainError as exc:
        return str(exc)
    return None


def forbid_factorization(monkeypatch):
    def factorized(*args, **kwargs):
        raise AssertionError("a factorization ran on a state the bound proves positive")

    monkeypatch.setattr(np.linalg, "cholesky", factorized)
    monkeypatch.setattr(np.linalg, "eigvalsh", factorized)


class TestGershgorinCertificate:
    """The O(4^N) bound min_i Re rho_ii - r_i, with r_i the off-diagonal sums
    of |rho| over row i and column i averaged, accepts diagonally dominant
    states with no factorization and leaves the verdicts as they were."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_accepts_diagonally_dominant_states_unfactorized(self, n, wishart, monkeypatch):
        states = certified_states(n, wishart)
        for mat in states:
            assert gershgorin_bound(mat) >= EIGENVALUE_FLOOR
        forbid_factorization(monkeypatch)
        for mat in states:
            rho = DensityMatrix(n, mat)
            np.testing.assert_array_equal(rho.entries, mat)
            assert not rho.entries.flags.writeable

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_bound_is_sharp_at_the_floor(self, n, monkeypatch):
        accepted, rejected = corner_block(n, -0.99e-10), corner_block(n, -1.01e-10)
        for mat, lowest in ((accepted, -0.99e-10), (rejected, -1.01e-10)):
            assert gershgorin_bound(mat) == pytest.approx(lowest, abs=1e-15)
            assert np.linalg.eigvalsh(mat)[0] == pytest.approx(lowest, abs=1e-15)
        factorizations = []
        cholesky = np.linalg.cholesky

        def counted(a):
            factorizations.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        with pytest.raises(DomainError, match="negative eigenvalue"):
            DensityMatrix(n, rejected)
        assert factorizations == [(2**n, 2**n)]
        forbid_factorization(monkeypatch)
        np.testing.assert_array_equal(DensityMatrix(n, accepted).entries, accepted)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_same_verdicts_as_factorization_alone(self, n, wishart):
        rng = np.random.default_rng([103, n])
        lowest = [-1e-9, -2e-10, -1.01e-10, -0.99e-10, -5e-11, -1e-11, 0.0, 1e-12]
        states = certified_states(n, wishart) + [corner_block(n, x) for x in lowest]
        states += [planted_state(rng, n, x) for x in lowest]
        states += [wishart(rng, n) for _ in range(3)] + rank_deficient_states(n)
        negative = np.diag(np.append(-0.5, np.full(2**n - 1, 1.5 / (2**n - 1)))).astype(complex)
        states.append(negative)
        if n == 3:
            for where, offset, _ in SKEW_CASES:
                mat = planted_state(np.random.default_rng(97), 3, 0.01)
                mat[where] += offset
                states.append(mat)
        verdicts = [verdict(n, mat) for mat in states]
        assert verdicts == [reference_verdict(n, mat) for mat in states]
        assert None in verdicts and any("negative eigenvalue" in str(v) for v in verdicts)


class TestPauliExpectation:
    def test_ghz2_xx_and_yy(self):
        rho = mix_with_white_noise(build_ghz(2), 1.0)
        assert pauli_expectation(rho, "xx") == pytest.approx(
            trace_oracle(dense(rho), "xx"), abs=1e-12
        )
        assert pauli_expectation(rho, "xx") == pytest.approx(1.0, abs=1e-10)
        assert pauli_expectation(rho, "yy") == pytest.approx(-1.0, abs=1e-10)

    def test_white_noise_has_no_correlations(self):
        rho = mix_with_white_noise(build_ghz(3), 0.0)
        for axes in ("xyz", "zzz", "xxy"):
            assert pauli_expectation(rho, axes) == pytest.approx(0.0, abs=1e-12)

    def test_linearity_in_visibility(self):
        rng = np.random.default_rng(5)
        state = build_ghz(3)
        pure = mix_with_white_noise(state, 1.0)
        for _ in range(10):
            v = float(rng.uniform(0, 1))
            axes = rng.choice(list("xyz"), size=3)
            mixed = mix_with_white_noise(state, v)
            assert pauli_expectation(mixed, axes) == pytest.approx(
                v * pauli_expectation(pure, axes), abs=1e-12
            )

    def test_dense_and_pure_paths_agree(self):
        # same matrix with and without the decomposition recorded
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            mixed = mix_with_white_noise(build_ghz(n), 0.8)
            rho = DensityMatrix(n, dense(mixed))
            for _ in range(5):
                axes = rng.choice(list("xyz"), size=n)
                assert pauli_expectation(mixed, axes) == pytest.approx(
                    pauli_expectation(rho, axes), abs=1e-12
                )

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = float(rng.uniform(0, 1))
            axes = rng.choice(list("xyz"), size=2)
            rho = mix_with_white_noise(build_ghz(2), v)
            assert abs(pauli_expectation(rho, axes)) <= 1.0 + 1e-10

    def test_axis_count_mismatch(self):
        rho = mix_with_white_noise(build_ghz(2), 0.5)
        with pytest.raises(ShapeError):
            pauli_expectation(rho, "xxx")

    def test_unknown_axis(self):
        rho = mix_with_white_noise(build_ghz(2), 0.5)
        with pytest.raises(DomainError, match="unknown Pauli axis 'q'"):
            pauli_expectation(rho, ["x", "q"])
        with pytest.raises(DomainError, match="unknown Pauli axis 'W'; expected one of x, y, z"):
            pauli_expectation(rho, ["W"])  # named as given, before the count is checked
        with pytest.raises(DomainError, match="unknown Pauli axis 1"):
            pauli_expectation(rho, ["x", 1])

    def test_dense_path_against_trace_oracle(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            rho = DensityMatrix(n, dense(mix_with_white_noise(build_ghz(n), 0.6)))
            for _ in range(8):
                axes = "".join(rng.choice(list("xyz"), size=n))
                assert pauli_expectation(rho, axes) == pytest.approx(
                    trace_oracle(rho.entries, axes), abs=1e-12
                )

    def test_random_dense_states_against_trace_oracle(self, wishart):
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            rho = DensityMatrix(n, wishart(rng, n))
            strings = ["z" * n, "x" * n, "y" * n]
            strings += ["".join(rng.choice(list("xyz"), size=n)) for _ in range(6)]
            for axes in strings:
                assert pauli_expectation(rho, axes) == pytest.approx(
                    trace_oracle(rho.entries, axes), abs=1e-12
                )


def haar_state(rng, n):
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


class TestAxisTable:
    """The axis table against the dense-matrix rows it replaced, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_same_bits_as_row_extraction(self, n, wishart):
        rng = np.random.default_rng([53, n])
        states = [
            DensityMatrix(n, wishart(rng, n)),
            NoisyPureState(haar_state(rng, n), float(rng.uniform())),
        ]
        strings = ["".join(p) for p in itertools.product("xyz", repeat=n)]
        mixed = ["".join(rng.choice([c, c.upper()]) for c in s) for s in strings]
        for rho in states:
            assert planar_expectations(rho).tobytes() == row_extraction_planar(rho).tobytes()
            for axes in strings + [s.upper() for s in strings] + mixed:
                got = pauli_expectation(rho, axes)
                assert got.hex() == row_extraction_expectation(rho, axes).hex(), axes


class TestNoisyPureState:
    """The (psi, V) gather against the dense matrix it stands for."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_to_dense_path(self, n):
        rng = np.random.default_rng(100 + n)
        for state in (build_ghz(n), haar_state(rng, n)):
            noisy = mix_with_white_noise(state, float(rng.uniform(0.05, 0.95)))
            rho = DensityMatrix(n, dense(noisy))
            assert np.array_equal(tensor_from_state(noisy).values, tensor_from_state(rho).values)
            strings = ["z" * n, "x" * n, "y" * n]
            strings += ["".join(rng.choice(list("xyz"), size=n)) for _ in range(4)]
            for axes in strings:
                assert pauli_expectation(noisy, axes) == pauli_expectation(rho, axes), axes

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pure_state_equals_full_visibility(self, n):
        # a StateVector is measured as the V = 1 mixture of itself, bit for bit
        state = haar_state(np.random.default_rng(200 + n), n)
        noisy = mix_with_white_noise(state, 1.0)
        assert np.array_equal(tensor_from_state(state).values, tensor_from_state(noisy).values)
        for axes in itertools.product("xyz", repeat=n):
            assert pauli_expectation(state, axes) == pauli_expectation(noisy, axes), axes

    @pytest.mark.parametrize("v", [0.0, 0.3, 1.0])
    def test_ghz14_tensor_matches_closed_form(self, v):
        measured = tensor_from_state(mix_with_white_noise(build_ghz(14), v))
        np.testing.assert_allclose(
            measured.values, ghz_planar_tensor(14, v).values, rtol=0, atol=1e-12
        )

    def test_all_z_on_ghz(self):
        # +1 on |0...0>, (-1)^N on |1...1>; the white-noise part has zero trace
        for n in range(1, 15):
            rho = mix_with_white_noise(build_ghz(n), 0.6)
            expected = 0.6 if n % 2 == 0 else 0.0
            assert pauli_expectation(rho, "z" * n) == pytest.approx(expected, abs=1e-12), n

    def test_gather_equals_entries_for_every_mask(self):
        # the only test that sees a dropped identity term: no Pauli product can
        rho = mix_with_white_noise(build_ghz(3), 0.25)
        ket = np.arange(8)
        for mask in range(8):
            assert np.array_equal(rho.gather(mask), dense(rho)[ket, ket ^ mask]), mask

    def test_memory_is_linear_in_amplitudes(self):
        # a dense 14-party matrix would be 4 GiB; 2^14 complex amplitudes are 256 KiB
        tracemalloc.start()
        try:
            tensor_from_state(mix_with_white_noise(build_ghz(14), 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
