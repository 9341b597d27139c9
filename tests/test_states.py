"""Tests for state construction, noise mixing, and Pauli expectations."""

import tracemalloc

import numpy as np
import pytest
from functools import reduce

from rotbell import (
    DensityMatrix,
    DomainError,
    InvalidSizeError,
    NoisyPureState,
    PauliAxis,
    ShapeError,
    StateVector,
    build_ghz,
    ghz_planar_tensor,
    mix_with_white_noise,
    pauli_expectation,
    tensor_from_state,
)
from rotbell.states import contract

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ORACLE_PAULI = {"x": SX, "y": SY, "z": SZ}


def trace_oracle(rho_entries, axis_names):
    """Independent expectation: explicit kron product and matrix trace."""
    product = reduce(np.kron, [ORACLE_PAULI[a] for a in axis_names])
    return float(np.trace(rho_entries @ product).real)


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


#: Random contraction rows by form: a (2,) row, or a real or complex (2, 2) stack.
ROW_FORMS = {
    "rows": lambda rng: rng.normal(size=2),
    "real stacks": lambda rng: rng.normal(size=(2, 2)),
    "complex stacks": lambda rng: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
}


class TestContract:
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

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, float("nan")])
    def test_rejects_visibility_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            mix_with_white_noise(build_ghz(2), bad)
        with pytest.raises(DomainError):
            NoisyPureState(build_ghz(2), bad)

    def test_dense_matrix_cap(self):
        # mixtures are kept as (psi, V) up to 14 parties; dense entries only to 10
        rho = mix_with_white_noise(build_ghz(11), 0.5)
        assert rho.n_parties == 11
        with pytest.raises(InvalidSizeError):
            rho.entries
        amp = np.zeros(2**15)
        amp[0] = 1.0
        big = StateVector(15, amp)
        with pytest.raises(InvalidSizeError):
            mix_with_white_noise(big, 0.5)

    def test_entries_built_once_and_read_only(self):
        rho = mix_with_white_noise(build_ghz(3), 0.5)
        assert rho.entries is rho.entries
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.0

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


def haar_state(rng, n):
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amp / np.linalg.norm(amp))


class TestNoisyPureState:
    """The (psi, V) gather against the dense matrix it stands for."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equal_to_dense_path(self, n):
        rng = np.random.default_rng(100 + n)
        for state in (build_ghz(n), haar_state(rng, n)):
            noisy = mix_with_white_noise(state, float(rng.uniform(0.05, 0.95)))
            dense = DensityMatrix(n, noisy.entries)
            assert np.array_equal(tensor_from_state(noisy).values, tensor_from_state(dense).values)
            strings = ["z" * n, "x" * n, "y" * n]
            strings += ["".join(rng.choice(list("xyz"), size=n)) for _ in range(4)]
            for axes in strings:
                assert pauli_expectation(noisy, axes) == pauli_expectation(dense, axes), axes

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
            assert np.array_equal(rho.gather(mask), rho.entries[ket, ket ^ mask]), mask

    def test_memory_is_linear_in_amplitudes(self):
        # a dense 14-party matrix would be 4 GiB; 2^14 complex amplitudes are 256 KiB
        tracemalloc.start()
        try:
            tensor_from_state(mix_with_white_noise(build_ghz(14), 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
