"""Tests for planar correlation tensors and the correlation function."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from rotbell import (
    CorrelationTensor,
    DensityMatrix,
    DomainError,
    InvalidSizeError,
    ShapeError,
    build_ghz,
    correlation_function,
    correlation_value,
    ghz_planar_tensor,
    mix_with_white_noise,
    rotate_frames,
    tensor_from_state,
)
from rotbell.correlation import product_contraction

from conftest import dense

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PLANAR_ORACLE = {1: SX, 2: SY}


def oracle_tensor(rho_entries, n):
    """Independent planar tensor: explicit kron products and traces."""
    vals = {}
    for idx in itertools.product((1, 2), repeat=n):
        product = reduce(np.kron, [PLANAR_ORACLE[i] for i in idx])
        vals[idx] = float(np.trace(rho_entries @ product).real)
    return vals


def brute_force_value(tensor, angles):
    """Independent correlation value: explicit sum over all multi-indices."""
    total = 0.0
    for idx in itertools.product((1, 2), repeat=tensor.n_parties):
        factor = 1.0
        for j, i in enumerate(idx):
            factor *= math.cos(angles[j]) if i == 1 else math.sin(angles[j])
        total += tensor.entry(idx) * factor
    return total


def random_tensor(rng, n):
    return CorrelationTensor(n, rng.uniform(-1, 1, size=(2,) * n))


class TestTensorFromState:
    def test_ghz2_pure(self):
        rho = mix_with_white_noise(build_ghz(2), 1.0)
        tensor = tensor_from_state(rho)
        expected = oracle_tensor(dense(rho), 2)
        for idx, value in expected.items():
            assert tensor.entry(idx) == pytest.approx(value, abs=1e-12)
        assert tensor.entry((1, 1)) == pytest.approx(1.0, abs=1e-10)
        assert tensor.entry((2, 2)) == pytest.approx(-1.0, abs=1e-10)
        assert tensor.entry((1, 2)) == pytest.approx(0.0, abs=1e-12)
        assert tensor.entry((2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_gives_zero_tensor(self):
        for n in (1, 2, 3):
            rho = DensityMatrix(n, np.eye(2**n, dtype=complex) / 2**n)
            tensor = tensor_from_state(rho)
            np.testing.assert_allclose(tensor.values, 0.0, atol=1e-12)

    def test_ghz3_pure_against_trace_oracle(self):
        rho = mix_with_white_noise(build_ghz(3), 1.0)
        tensor = tensor_from_state(rho)
        expected = oracle_tensor(dense(rho), 3)
        for idx, value in expected.items():
            assert tensor.entry(idx) == pytest.approx(value, abs=1e-12)
        assert tensor.entry((1, 1, 1)) == pytest.approx(1.0, abs=1e-10)
        for idx in ((1, 2, 2), (2, 1, 2), (2, 2, 1)):
            assert tensor.entry(idx) == pytest.approx(-1.0, abs=1e-10)
        for idx in ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)):
            assert tensor.entry(idx) == pytest.approx(0.0, abs=1e-12)

    def test_random_dense_states_against_trace_oracle(self, wishart):
        rng = np.random.default_rng(41)
        for n in range(1, 7):
            rho = DensityMatrix(n, wishart(rng, n))
            tensor = tensor_from_state(rho)
            for idx, value in oracle_tensor(rho.entries, n).items():
                assert tensor.entry(idx) == pytest.approx(value, abs=1e-12)

    def test_ghz10_matches_closed_form(self):
        measured = tensor_from_state(mix_with_white_noise(build_ghz(10), 0.7))
        closed = ghz_planar_tensor(10, 0.7)
        np.testing.assert_allclose(measured.values, closed.values, rtol=0, atol=1e-12)


class TestGhzPlanarTensor:
    def test_n4_sign_rule(self):
        tensor = ghz_planar_tensor(4, 0.8)
        assert tensor.entry((1, 1, 1, 1)) == pytest.approx(0.8)
        assert tensor.entry((1, 1, 2, 2)) == pytest.approx(-0.8)
        assert tensor.entry((2, 2, 2, 2)) == pytest.approx(0.8)
        assert tensor.entry((1, 2, 2, 2)) == 0.0

    def test_n4_against_measured_tensor(self):
        closed = ghz_planar_tensor(4, 0.8)
        measured = tensor_from_state(mix_with_white_noise(build_ghz(4), 0.8))
        np.testing.assert_allclose(closed.values, measured.values, atol=1e-10)

    def test_zero_visibility(self):
        np.testing.assert_array_equal(ghz_planar_tensor(3, 0.0).values, 0.0)

    def test_nonzero_count_is_half(self):
        tensor = ghz_planar_tensor(5, 0.7)
        assert np.count_nonzero(tensor.values) == 16  # 2^(N-1)
        assert np.all(np.abs(tensor.values[tensor.values != 0]) == 0.7)

    @pytest.mark.parametrize("v", [0.0, 0.34, 1.0])
    def test_matches_loop_reference(self, v):
        # the per-key loop this closed form replaced, down to the sign of zero
        for n in range(1, 15):
            flat = np.zeros(2**n)
            for key in range(2**n):
                k = bin(key).count("1")
                if k % 2 == 0:
                    flat[key] = v * (-1.0) ** (k // 2)
            values = ghz_planar_tensor(n, v).values
            assert values.reshape(-1, order="F").tobytes() == flat.tobytes(), n

    def test_domain_errors(self):
        with pytest.raises(InvalidSizeError):
            ghz_planar_tensor(0, 0.5)
        with pytest.raises(DomainError):
            ghz_planar_tensor(3, 1.5)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.3", None])
    def test_rejects_non_numeric_visibility(self, bad):
        # a bool is no number, so True is no V = 1; "0.3" raised a bare TypeError
        with pytest.raises(DomainError, match=rf"^visibility must lie in \[0, 1\], got {bad}$"):
            ghz_planar_tensor(4, bad)

    @pytest.mark.parametrize("v", [np.float64(0.3), np.float32(0.5), 1, np.int64(0)])
    def test_accepts_numpy_and_integer_visibility(self, v):
        want = ghz_planar_tensor(3, float(v)).values
        np.testing.assert_array_equal(ghz_planar_tensor(3, v).values, want)


class TestCorrelationValue:
    def test_ghz_closed_form_and_brute_force(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            tensor = ghz_planar_tensor(n, 0.6)
            for _ in range(5):
                angles = rng.uniform(0, 2 * np.pi, n)
                value = correlation_value(tensor, angles)
                assert value == pytest.approx(0.6 * math.cos(angles.sum()), abs=1e-12)
                assert value == pytest.approx(brute_force_value(tensor, angles), abs=1e-12)

    def test_zero_angles_pick_first_entry(self):
        rng = np.random.default_rng(4)
        tensor = random_tensor(rng, 3)
        value = correlation_value(tensor, [0.0, 0.0, 0.0])
        assert value == pytest.approx(tensor.entry((1, 1, 1)), abs=1e-12)

    def test_zero_tensor(self):
        tensor = CorrelationTensor(2, np.zeros((2, 2)))
        assert correlation_value(tensor, [0.3, 1.2]) == 0.0

    def test_length_mismatch(self):
        for angles in ([0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1):
            with pytest.raises(ShapeError, match="for a 2-party tensor"):
                correlation_value(ghz_planar_tensor(2, 1.0), angles)

    def test_multilinear_per_party(self):
        # for fixed other angles the value is A cos(a_j) + B sin(a_j)
        rng = np.random.default_rng(6)
        tensor = random_tensor(rng, 3)
        base = rng.uniform(0, 2 * np.pi, 3)
        for j in range(3):
            def at(angle):
                angles = base.copy()
                angles[j] = angle
                return correlation_value(tensor, angles)

            coef_cos, coef_sin = at(0.0), at(np.pi / 2)
            for a in rng.uniform(0, 2 * np.pi, 4):
                assert at(a) == pytest.approx(
                    coef_cos * math.cos(a) + coef_sin * math.sin(a), abs=1e-12
                )

    def test_rotational_invariance(self):
        # counter-rotated tensor at shifted angles reproduces the value;
        # entries scaled by 2^(-N/2) so every rotated entry stays in [-1, 1]
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            tensor = CorrelationTensor(
                n, rng.uniform(-1, 1, size=(2,) * n) * 2.0 ** (-n / 2)
            )
            for _ in range(5):
                angles = rng.uniform(0, 2 * np.pi, n)
                deltas = rng.uniform(0, 2 * np.pi, n)
                original = correlation_value(tensor, angles)
                counter = correlation_value(
                    rotate_frames(tensor, -deltas), angles + deltas
                )
                assert counter == pytest.approx(original, abs=1e-10)


def chain_contraction(values, vectors):
    """One direction set, contracted last party first by matrix-vector
    products: the oracle for the batched kernel."""
    out = values
    for vec in reversed(list(vectors)):
        out = out @ np.asarray(vec, dtype=float)
    return float(out)


class TestProductContraction:
    @pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5), (0,), (0, 3)])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_against_chain(self, n, batch):
        rng = np.random.default_rng(n)
        values = rng.uniform(-1, 1, size=(2,) * n)
        angles = rng.uniform(0, 2 * np.pi, size=batch + (n,))
        directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        got = product_contraction(values, directions)
        assert got.shape == batch
        expected = [chain_contraction(values, d) for d in directions.reshape(-1, n, 2)]
        # |entries| <= 1 and |cos| + |sin| <= sqrt 2 bound the absolute sum
        # of the terms by 2^(n/2); either order rounds twice in each of n stages
        atol = 4 * n * 2 ** (n / 2) * np.finfo(float).eps
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=0, atol=atol)

    @pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5)])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_zero_tensor(self, n, batch):
        values = np.zeros((2,) * n)
        directions = np.ones(batch + (n, 2))
        got = product_contraction(values, directions)
        assert got.shape == batch
        assert np.all(got == 0.0)
        assert chain_contraction(values, directions.reshape(-1, n, 2)[0]) == 0.0


class TestCorrelationFunctionCallable:
    def test_matches_pointwise_values(self):
        rng = np.random.default_rng(8)
        tensor = random_tensor(rng, 3)
        fn = correlation_function(tensor)
        angles = rng.uniform(0, 2 * np.pi, 3)
        assert float(fn(*angles)) == pytest.approx(
            correlation_value(tensor, angles), abs=1e-12
        )

    def test_broadcasts_over_grids(self):
        tensor = ghz_planar_tensor(2, 0.5)
        fn = correlation_function(tensor)
        a1 = np.linspace(0, 2 * np.pi, 7)[:, None]
        a2 = np.linspace(0, 2 * np.pi, 5)[None, :]
        out = fn(a1, a2)
        assert out.shape == (7, 5)
        np.testing.assert_allclose(out, 0.5 * np.cos(a1 + a2), atol=1e-12)


    def test_broadcasts_mixed_shapes_against_pointwise_values(self):
        rng = np.random.default_rng(10)
        tensor = random_tensor(rng, 4)
        angles = [rng.uniform(0, 2 * np.pi, shape) for shape in [(3, 1, 1), (4, 1), (), (5,)]]
        out = correlation_function(tensor)(*angles)
        assert out.shape == (3, 4, 5)
        for i, j, k in np.ndindex(out.shape):
            point = [angles[0][i, 0, 0], angles[1][j, 0], angles[2], angles[3][k]]
            assert out[i, j, k] == pytest.approx(
                correlation_value(tensor, point), abs=1e-12
            )

    def test_scalar_angles_give_0d_and_wrong_count_raises(self):
        fn = correlation_function(ghz_planar_tensor(3, 0.5))
        assert np.shape(fn(0.1, 0.2, 0.3)) == ()
        assert float(fn(0.1, 0.2, 0.3)) == pytest.approx(0.5 * math.cos(0.6), abs=1e-15)
        with pytest.raises(ShapeError):
            fn(0.1, 0.2)


class TestTensorLayoutAndJson:
    def test_json_round_trip(self):
        rng = np.random.default_rng(9)
        tensor = random_tensor(rng, 3)
        restored = CorrelationTensor.from_json_dict(tensor.to_json_dict())
        np.testing.assert_allclose(restored.values, tensor.values, atol=0)

    def test_json_omits_zeros(self):
        doc = ghz_planar_tensor(3, 0.5).to_json_dict()
        assert doc["n"] == 3
        assert len(doc["entries"]) == 4  # 2^(N-1)
        assert set(doc["entries"]) == {"111", "122", "212", "221"}

    def test_json_missing_keys_mean_zero(self):
        tensor = CorrelationTensor.from_json_dict({"n": 2, "entries": {"11": 1.0}})
        assert tensor.entry((1, 1)) == 1.0
        assert tensor.entry((2, 2)) == 0.0

    @pytest.mark.parametrize("n", [1.9, 2.0, "2", True, None, [2]])
    def test_json_rejects_non_integer_n(self, n):
        with pytest.raises(DomainError):
            CorrelationTensor.from_json_dict({"n": n, "entries": {}})

    def test_party_count_capped_before_allocation(self):
        with pytest.raises(InvalidSizeError):
            CorrelationTensor.from_json_dict({"n": 100, "entries": {}})
        with pytest.raises(InvalidSizeError):
            ghz_planar_tensor(100, 0.5)

    @pytest.mark.parametrize("key", [11, 1.5, None, ("1", "1")])
    def test_json_rejects_non_string_keys(self, key):
        # JSON keys are strings; a dict built in Python may hold others
        with pytest.raises(DomainError, match="is not a length-2 string over digits 1 and 2"):
            CorrelationTensor.from_json_dict({"n": 2, "entries": {key: 0.5}})

    def test_json_rejects_bad_keys(self):
        with pytest.raises(DomainError):
            CorrelationTensor.from_json_dict({"n": 2, "entries": {"13": 1.0}})
        with pytest.raises(DomainError):
            CorrelationTensor.from_json_dict({"n": 2, "entries": {"111": 1.0}})

    def test_entry_validation(self):
        tensor = ghz_planar_tensor(2, 1.0)
        with pytest.raises(DomainError):
            tensor.entry((0, 1))
        with pytest.raises(ShapeError):
            tensor.entry((1, 1, 1))
        # integers only: 1.0 and True compare equal to 1 but are no planar index
        for index in ((1.0, 2), (2, 2.0), (True, 1), (1, False), (np.float64(1), 1), ("1", 1)):
            with pytest.raises(DomainError, match="planar indices must be 1 or 2"):
                tensor.entry(index)
        assert tensor.entry((np.int64(2), np.int64(2))) == tensor.entry((2, 2))

    def test_json_rejects_non_numeric_entries(self):
        for entries in ({"11": "abc"}, {"11": None}, {"11": [1.0]}, [1], "11",
                        {"11": "0.5"}, {"11": True}, {"11": " 1e-1 "}, {"11": False}):
            with pytest.raises(DomainError):
                CorrelationTensor.from_json_dict({"n": 2, "entries": entries})
        # JSON integers are numbers
        assert CorrelationTensor.from_json_dict({"n": 2, "entries": {"11": 1}}).entry((1, 1)) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError):
            CorrelationTensor(1, np.array([bad, 0.0]))
        with pytest.raises(DomainError):
            CorrelationTensor.from_json_dict({"n": 2, "entries": {"11": bad}})

    @pytest.mark.parametrize(
        "values", [[0.5 + 0.5j, 0.2], [0.5 + 0j, 0.2], np.array([0.5, 0.2], dtype=np.complex64)]
    )
    def test_rejects_complex_entries(self, values):
        # a float cast would keep [0.5, 0.2] and only warn
        with pytest.raises(DomainError, match="^tensor entries must be real$"):
            CorrelationTensor(1, values)

    def test_tensor_bounds_validation(self):
        with pytest.raises(DomainError):
            CorrelationTensor(1, np.array([1.5, 0.0]))
        with pytest.raises(ShapeError):
            CorrelationTensor(2, np.zeros((2, 3)))
        with pytest.raises(InvalidSizeError):
            CorrelationTensor(0, np.zeros(()))

    def test_values_read_only(self):
        tensor = ghz_planar_tensor(2, 1.0)
        with pytest.raises(ValueError):
            tensor.values[0, 0] = 0.0
