"""Tests for state construction, noise mixing, and Pauli expectations."""

import numpy as np
import pytest
from functools import reduce

from rotbell import (
    DensityMatrix,
    DomainError,
    InvalidSizeError,
    PauliAxis,
    ShapeError,
    StateVector,
    build_ghz,
    mix_with_white_noise,
    pauli_expectation,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ORACLE_PAULI = {"x": SX, "y": SY, "z": SZ}


def trace_oracle(rho_entries, axis_names):
    """Independent expectation: explicit kron product and matrix trace."""
    product = reduce(np.kron, [ORACLE_PAULI[a] for a in axis_names])
    return float(np.trace(rho_entries @ product).real)


class TestPauliAxis:
    def test_exactly_three_axes(self):
        assert len(PauliAxis) == 3

    def test_index_mapping(self):
        assert [PauliAxis.X.index, PauliAxis.Y.index, PauliAxis.Z.index] == [1, 2, 3]

    @pytest.mark.parametrize("axis", list(PauliAxis))
    def test_squares_to_identity(self, axis):
        np.testing.assert_allclose(axis.matrix @ axis.matrix, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("axis", list(PauliAxis))
    def test_matrix_matches_standard_form(self, axis):
        np.testing.assert_array_equal(axis.matrix, ORACLE_PAULI[axis.value])


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
        # cap is configurable
        assert build_ghz(15, max_parties=15).n_parties == 15

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
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)

    def test_zero_visibility_is_maximally_mixed(self):
        rho = mix_with_white_noise(build_ghz(3), 0.0)
        np.testing.assert_allclose(rho.entries, np.eye(8) / 8, atol=1e-15)

    def test_half_visibility_diagonal(self):
        # direct matrix arithmetic: 0.5*(1/2,0,0,1/2) + 0.5*(1/4)*ones
        rho = mix_with_white_noise(build_ghz(2), 0.5)
        np.testing.assert_allclose(
            np.real(np.diag(rho.entries)), [0.375, 0.125, 0.125, 0.375], atol=1e-15
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_visibility_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            mix_with_white_noise(build_ghz(2), bad)

    def test_dense_matrix_cap(self):
        # state vectors go to 14 parties, dense matrices only to 10
        state = build_ghz(11)
        with pytest.raises(InvalidSizeError):
            mix_with_white_noise(state, 0.5)

    def test_invariants_for_random_visibility(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            state = build_ghz(n)
            for v in rng.uniform(0, 1, 5):
                rho = mix_with_white_noise(state, float(v))
                mat = rho.entries
                assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
                assert abs(np.trace(mat) - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(mat)[0] >= -1e-10


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 0.5
        with pytest.raises(DomainError):
            DensityMatrix(1, mat)

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


class TestPauliExpectation:
    def test_ghz2_xx_and_yy(self):
        rho = mix_with_white_noise(build_ghz(2), 1.0)
        assert pauli_expectation(rho, "xx") == pytest.approx(
            trace_oracle(rho.entries, "xx"), abs=1e-12
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
            dense = DensityMatrix(n, mixed.entries)
            for _ in range(5):
                axes = rng.choice(list("xyz"), size=n)
                assert pauli_expectation(mixed, axes) == pytest.approx(
                    pauli_expectation(dense, axes), abs=1e-12
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
        with pytest.raises(DomainError):
            pauli_expectation(rho, ["x", "q"])

    def test_dense_path_against_trace_oracle(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            rho = DensityMatrix(n, mix_with_white_noise(build_ghz(n), 0.6).entries)
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
