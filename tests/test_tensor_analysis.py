"""Tests for the planar maximizer and tensor inner products."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from rotbell import (
    CorrelationTensor,
    DensityMatrix,
    DomainError,
    OptimizerConfig,
    ShapeError,
    TMaxResult,
    analytic_inner_product,
    correlation_function,
    ghz_planar_tensor,
    quadrature_inner_product,
    rotate_frames,
    sum_of_squares,
    t_max,
    tensor_from_state,
)
from rotbell import tensor_analysis
from rotbell.correlation import product_contraction
from rotbell.tensor_analysis import (
    _IMPROVEMENT_TOL,
    CERTIFY_RTOL,
    _ascend,
    _corner,
    _fourier_bound,
    _start_points,
)


def diagonal_n2_tensor():
    return CorrelationTensor(2, np.array([[1.0, 0.0], [0.0, -1.0]]))


def random_tensor(rng, n, scale=1.0):
    return CorrelationTensor(n, scale * rng.uniform(-1, 1, size=(2,) * n))


def haar_tensor(rng, n):
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amp /= np.linalg.norm(amp)
    return tensor_from_state(DensityMatrix(n, np.outer(amp, amp.conj())))


def single_entry_tensor(rng, n):
    values = np.zeros((2,) * n)
    values[tuple(rng.integers(0, 2, n))] = -0.6
    return CorrelationTensor(n, values)


def fft_fourier_bound(values):
    """Sum of |c_s| read off an FFT of E on a 4^N angle grid: the oracle for
    the closed-form bound (E has per-axis frequencies -1 and +1 only)."""
    n = values.ndim
    nodes = 2 * math.pi * np.arange(4) / 4
    fn = correlation_function(CorrelationTensor(n, values))
    grid = fn(*np.meshgrid(*([nodes] * n), indexing="ij"))
    coeffs = np.fft.fftn(grid) / 4**n
    return float(np.abs(coeffs[np.ix_(*([[1, 3]] * n))]).sum())


def reference_ascent(values, start, max_sweeps, tol):
    """One-start alternating maximization, party by party with tensordot:
    the ascent before pair steps, kept as a value oracle."""
    n = values.ndim
    ds = start.copy()
    value = float(product_contraction(values, ds))
    for sweep in range(1, max_sweeps + 1):
        previous = value
        for j in range(n):
            grad = values
            for k in range(n - 1, -1, -1):
                if k != j:
                    grad = np.tensordot(grad, ds[k], axes=([k], [0]))
            norm = float(np.hypot(grad[0], grad[1]))
            if norm > 0.0:
                ds[j] = grad / norm
            value = norm if norm > 0.0 else float(grad @ ds[j])
        if value - previous < tol:
            return ds, value, sweep, True
    return ds, value, max_sweeps, False


def reference_batched_ascent(values, starts, max_sweeps, tol, target):
    """The per-party ascent batched as the kernel ran it before pair steps,
    gathering and scattering the active rows every sweep: the value oracle
    where ``reference_ascent`` is too slow (near-GHZ, 1,000 sweeps)."""
    n = values.ndim
    ds = starts.copy()
    count = len(ds)
    whole = np.broadcast_to(values.reshape(-1), (count, values.size))
    value = product_contraction(values, ds)
    sweeps = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for _ in range(max_sweeps):
        if active.size == 0 or value.max() >= target:
            break
        sub = ds[active]
        rows = len(sub)
        suffixes = [np.ones((rows, 1))]
        for j in range(n - 1, 0, -1):
            left, right = sub[:, j], suffixes[-1]
            suffixes.append((left[:, :, None] * right[:, None, :]).reshape(rows, -1))
        partial = whole[:rows]
        for j in range(n):
            half = partial.reshape(rows, 2, -1)
            grad = np.einsum("sar,sr->sa", half, suffixes[n - 1 - j])
            norm = np.hypot(grad[:, 0], grad[:, 1])
            moved = norm > 0.0
            sub[moved, j] = grad[moved] / norm[moved, None]
            if j < n - 1:
                partial = np.einsum("sa,sar->sr", sub[:, j], half)
        ds[active] = sub
        sweeps[active] += 1
        done = norm - value[active] < tol
        value[active] = norm
        converged[active[done]] = True
        active = active[~done]
    return ds, value, sweeps, converged


def pair_reference(values, start, max_sweeps, tol):
    """One-start ascent by exact blocks, unbatched: the oracle for the kernel.

    Sweep k visits the pairs (0, 1), (2, 3), ... for even k and (0), (1, 2),
    (3, 4), ... for odd k, an unpaired last party alone.  A pair takes the top
    singular pair of its 2x2 gradient from np.linalg.svd, not from the
    kernel's closed form; a lone party turns to its gradient's angle
    atan2(g1, g0), as the kernel's np.arctan2 does.  Returns the (directions,
    value) before the first sweep and after each one, and whether the last
    sweep gained under tol.
    """
    n = values.ndim
    ds = start.copy()
    value = float(product_contraction(values, ds))
    history = [(ds.copy(), value)]
    for sweep in range(max_sweeps):
        previous = value
        edges = sorted({0, *range(sweep % 2, n, 2), n})
        for lo, hi in zip(edges, edges[1:]):
            grad = values
            for k in range(n - 1, -1, -1):
                if not lo <= k < hi:
                    grad = np.tensordot(grad, ds[k], axes=([k], [0]))
            if hi - lo == 2:
                u, sigma, vt = np.linalg.svd(grad)
                ds[lo], ds[lo + 1], value = u[:, 0], vt[0], float(sigma[0])
            else:
                turn = math.atan2(grad[1], grad[0])  # 0 on a zero gradient, pi on (-0.0, 0.0)
                ds[lo] = math.cos(turn), math.sin(turn)
                value = float(np.hypot(grad[0], grad[1]))
        history.append((ds.copy(), value))
        if value - previous < tol:
            return history, True
    return history, False


FAMILIES = {f.__name__: f for f in (random_tensor, haar_tensor, single_entry_tensor)}


@functools.lru_cache(maxsize=None)
def pair_case(family, n, random_starts):
    """A seeded tensor, its starts and every start's unstopped pair_reference run."""
    rng = np.random.default_rng([n, random_starts, len(family), 89])
    values = FAMILIES[family](rng, n).values
    starts = _start_points(values, OptimizerConfig(random_starts=random_starts, seed=n))
    return values, starts, [pair_reference(values, s, 1000, _IMPROVEMENT_TOL) for s in starts]


def stopped_runs(runs, max_sweeps, target):
    """What a batch of these lone runs returns under the kernel's stop: before
    sweep k it stops once a row, counted at min(k, its last sweep), reaches
    ``target``.  Returns each row's directions, value, sweeps and convergence."""
    ends = np.array([len(history) - 1 for history, _ in runs])
    reach = np.array([[v for _, v in h] + [h[-1][1]] * (ends.max() - e) for (h, _), e in zip(runs, ends)])
    over = np.flatnonzero(reach.max(axis=0)[:max_sweeps] >= target)
    stop = int(over[0]) if over.size else max_sweeps
    sweeps = np.minimum(ends, stop)
    ds = np.array([h[k][0] for (h, _), k in zip(runs, sweeps)])
    converged = np.array([c and e <= stop for (_, c), e in zip(runs, ends)])
    return ds, reach[np.arange(len(runs)), sweeps], sweeps, converged


def kron_all(directions):
    return functools.reduce(np.kron, directions)


def assert_rows_match(got, want):
    """Row by row to 1e-12.  Where a sweep's gain falls within rounding of
    _IMPROVEMENT_TOL, a row may stop one sweep apart from the oracle (6 of
    2,016 rows across the oracle cases); its value still agrees to 1e-12, and
    every other row also in its directions, compared as their product tensor
    since a pair's two directions are fixed only up to a common sign."""
    (ds, values, sweeps, converged), (want_ds, want_values, want_sweeps, want_converged) = got, want
    np.testing.assert_allclose(values, want_values, rtol=0, atol=1e-12)
    same = sweeps == want_sweeps
    assert np.all(np.abs(sweeps - want_sweeps) <= 1) and same.mean() >= 0.9
    np.testing.assert_array_equal(converged[same], want_converged[same])
    for got_row, want_row in zip(ds[same], want_ds[same]):
        np.testing.assert_allclose(kron_all(got_row), kron_all(want_row), rtol=0, atol=1e-12)


class TestTMax:
    def test_zero_tensor(self):
        result = t_max(CorrelationTensor(3, np.zeros((2, 2, 2))))
        assert result.value == 0.0
        assert result.certified

    def test_n2_diagonal_against_dense_grid_oracle(self):
        # independent oracle: evaluate E on a 3600^2 angle grid
        tensor = diagonal_n2_tensor()
        angles = 2 * np.pi * np.arange(3600) / 3600
        grid = np.cos(angles)[:, None] * np.cos(angles)[None, :] - np.sin(angles)[
            :, None
        ] * np.sin(angles)[None, :]
        oracle = float(np.max(grid))
        result = t_max(tensor)
        assert result.value == pytest.approx(oracle, abs=1e-6)
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_ghz_value_is_visibility(self):
        result = t_max(ghz_planar_tensor(4, 0.5))
        assert result.value == pytest.approx(0.5, abs=1e-9)
        assert result.certified

    def test_maximizer_invariants(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 4):
            tensor = random_tensor(rng, n)
            result = t_max(tensor)
            norms = np.linalg.norm(result.maximizer, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            contraction = tensor.values
            for d in result.maximizer[::-1]:
                contraction = contraction @ d
            assert result.value == pytest.approx(float(contraction), abs=1e-10)
            # basis vectors are feasible points
            assert result.value >= float(np.max(np.abs(tensor.values))) - 1e-10
            # triangle bound
            assert result.value <= float(np.sum(np.abs(tensor.values))) + 1e-9

    def test_invariant_under_frame_rotations(self):
        rng = np.random.default_rng(19)
        for n in (2, 3):
            tensor = random_tensor(rng, n, scale=2.0 ** (-n / 2))
            rotated = rotate_frames(tensor, rng.uniform(0, 2 * np.pi, n))
            assert t_max(rotated).value == pytest.approx(
                t_max(tensor).value, abs=1e-9
            )

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(29)
        tensor = random_tensor(rng, 3, scale=0.4)
        base = t_max(tensor).value
        for c in (0.5, -0.5, 2.0, -1.0):
            scaled = CorrelationTensor(3, c * np.asarray(tensor.values))
            assert t_max(scaled).value == pytest.approx(abs(c) * base, abs=1e-9)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(37)
        tensor = random_tensor(rng, 3)
        first = t_max(tensor, OptimizerConfig(seed=5))
        second = t_max(tensor, OptimizerConfig(seed=5))
        assert first.value == second.value
        np.testing.assert_array_equal(first.maximizer, second.maximizer)

    def test_certification_flag_scope(self):
        # the Fourier bound is exact for noisy GHZ at every N
        for n in range(1, 15):
            for v in (0.0, 0.34, 1.0):
                result = t_max(ghz_planar_tensor(n, v))
                assert result.certified
                assert abs(result.upper - v) <= 1e-12

    def test_sweep_cap_exhaustion_drops_certification(self):
        # a rotated GHZ3: no corner or axis start is already optimal
        tensor = rotate_frames(ghz_planar_tensor(3, 0.8), (0.3, 0.5, 0.7))
        capped = t_max(tensor, OptimizerConfig(max_sweeps=0))
        assert capped.value == pytest.approx(0.79992, abs=1e-5)
        assert not capped.converged
        assert not capped.certified
        result = t_max(tensor)
        assert result.converged and result.certified

    def test_open_gap_is_not_certified(self):
        # E = cos(a1) cos(a2) cos(a3) / 2 + sin(a1) sin(a2) sin(a3) / 2 peaks
        # at 1/2, while sum |c_s| = 1/sqrt(2)
        values = np.zeros((2, 2, 2))
        values[0, 0, 0] = values[1, 1, 1] = 0.5
        result = t_max(CorrelationTensor(3, values))
        assert result.value == pytest.approx(0.5, abs=1e-12)
        assert result.upper == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert result.converged and not result.certified

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"random_starts": -5},
            {"seed": -3, "random_starts": -1},
            {"max_sweeps": -5},
        ],
    )
    def test_config_rejects_negative_seed_and_starts(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerConfig(**kwargs)


class TestBatchedAscent:
    @pytest.mark.parametrize("random_starts", [0, 64])
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_best_reference_start(self, family, n, random_starts):
        values, starts, runs = pair_case(family, n, random_starts)
        cfg = OptimizerConfig(random_starts=random_starts, seed=n)
        # each row stops at its own convergence, as a lone ascent would
        got = _ascend(values, starts, cfg.max_sweeps, math.inf)
        assert_rows_match(got, stopped_runs(runs, cfg.max_sweeps, math.inf))
        # the best start, the earliest one on a tie
        best = max(range(len(runs)), key=lambda i: (runs[i][0][-1][1], -i))
        result = t_max(CorrelationTensor(n, values), cfg)
        assert result.value == pytest.approx(runs[best][0][-1][1], abs=1e-12)
        assert result.starts_used == len(runs)
        assert result.converged == (runs[best][1] or result.certified)
        assert result.upper == max(_fourier_bound(values), result.value)
        assert result.certified == (result.upper - result.value <= CERTIFY_RTOL * result.upper)

    @pytest.mark.parametrize("random_starts", [0, 64])
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_never_below_per_party_ascent(self, family, n, random_starts):
        values, starts, _ = pair_case(family, n, random_starts)
        result = t_max(CorrelationTensor(n, values), OptimizerConfig(random_starts=random_starts, seed=n))
        per_party = max(reference_ascent(values, s, 1000, _IMPROVEMENT_TOL)[1] for s in starts)
        assert result.value >= per_party - 1e-12 * result.upper

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_tensor_keeps_first_start(self, n):
        # every start ties at 0, so the first one (the all-x corner) wins
        result = t_max(CorrelationTensor(n, np.zeros((2,) * n)))
        np.testing.assert_array_equal(result.maximizer, np.tile([1.0, 0.0], (n, 1)))
        # 0 = 0 is certified before any sweep
        assert result.iterations == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_negative_zero_tensor_turns_every_block_to_x(self, n):
        # every gradient is a signed zero; the block that ends at party N reads
        # its gradient straight from the tensor, where atan2(-0.0, -0.0) = -pi
        # would turn it to (-1, 0), so it must make -0.0 into 0.0 as a sum does
        values = np.full((2,) * n, -0.0)
        starts = _start_points(values, OptimizerConfig(random_starts=0))[1:]  # the 2N axis starts
        ds, _, sweeps, _ = _ascend(values, starts, 1, math.inf)
        np.testing.assert_array_equal(sweeps, 1)
        np.testing.assert_array_equal(ds, np.broadcast_to([1.0, 0.0], ds.shape))
        assert not np.signbit(ds).any()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_lone_gradient_turns_to_x_and_lowers_no_value(self, n):
        # an odd party count's last party steps alone on sweep 0; from N=3 on,
        # some axis starts give it a zero gradient there, and it turns to (1, 0)
        turned = 0
        for index in itertools.product((0, 1), repeat=n):
            values = np.zeros((2,) * n)
            values[index] = -0.6
            starts = _start_points(values, OptimizerConfig(random_starts=0))
            for ds in _ascend(values, starts, 1, math.inf)[0]:
                if n % 2 and not last_party_gradient(values, ds).any():
                    np.testing.assert_array_equal(ds[-1], [1.0, 0.0])
                    turned += 1
            found = np.array([_ascend(values, starts, k, math.inf)[1] for k in range(6)])
            assert np.all(np.diff(found, axis=0) >= 0.0)
        assert (turned > 0) == (n in (3, 5))


def last_party_gradient(values, ds):
    """The last party's gradient with every other party at its direction in ``ds``."""
    grad = values
    for k in range(values.ndim - 1):
        grad = np.tensordot(ds[k], grad, axes=([0], [0]))
    return grad


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


PAIR_MATRICES = {
    "zero": np.zeros((2, 2)),
    "rotation": rotation(0.7),
    "reflection": rotation(0.7) @ np.diag([1.0, -1.0]),
    "scaled rotation": -0.3 * rotation(2.5),
    "rank 1": np.outer([0.6, -0.8], [0.28, 0.96]),
    "rank 1 on an axis": np.array([[0.0, 0.0], [0.0, -0.4]]),
    "diagonal": np.diag([0.2, -0.9]),
}


class TestPairStep:
    """At N = 2 one sweep is one pair step: the top singular pair of T."""

    @staticmethod
    def assert_top_singular_pair(q):
        start = np.array([[[0.6, 0.8], [-1.0, 0.0]]])
        ds, value, sweeps, converged = _ascend(q, start, 1, math.inf)
        sigma = np.linalg.svd(q, compute_uv=False)[0]
        assert sweeps[0] == 1
        assert value[0] == pytest.approx(sigma, abs=4e-15)
        np.testing.assert_allclose(np.linalg.norm(ds[0], axis=1), 1.0, rtol=0, atol=1e-15)
        # the directions attain it, whatever the singular vectors' signs
        assert ds[0, 0] @ q @ ds[0, 1] == pytest.approx(sigma, abs=4e-15)

    @pytest.mark.parametrize("name", PAIR_MATRICES)
    def test_special_matrices(self, name):
        self.assert_top_singular_pair(PAIR_MATRICES[name])

    def test_random_matrices(self):
        rng = np.random.default_rng(97)
        for q in rng.normal(size=(500, 2, 2)):
            self.assert_top_singular_pair(q)


class TestAscentOracle:
    @pytest.mark.parametrize("max_sweeps", [0, 1, 1000])
    @pytest.mark.parametrize("target", ["inf", "fourier", "first to leave"])
    @pytest.mark.parametrize("random_starts", [0, 64])
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_pair_reference(self, family, n, random_starts, target, max_sweeps):
        values, starts, runs = pair_case(family, n, random_starts)

        def first_to_leave():
            # the first row to converge in an unstopped ascent reaches this on
            # the sweep it leaves; the lesser of the two runs' values, so both reach it
            _, found, sweeps, converged = _ascend(values, starts, 1000, math.inf)
            row = int(np.argmin(np.where(converged, sweeps, 1001)))
            return min(found[row], runs[row][0][-1][1])

        target = {
            "inf": lambda: math.inf,
            "fourier": lambda: _fourier_bound(values) * (1 - CERTIFY_RTOL / 2),
            "first to leave": first_to_leave,
        }[target]()
        got = _ascend(values, starts, max_sweeps, target)
        assert_rows_match(got, stopped_runs(runs, max_sweeps, target))


def full_ascent(tensor, cfg):
    """The best start of the ascent run with no certificate stop, as t_max
    picks and reports it: (value, maximizer, total sweeps)."""
    starts = _start_points(tensor.values, cfg)
    ds, values, sweeps, _ = _ascend(tensor.values, starts, cfg.max_sweeps, math.inf)
    best = int(np.argmax(values))
    maximizer = ds[best] / np.linalg.norm(ds[best], axis=1)[:, None]
    return float(product_contraction(tensor.values, maximizer)), maximizer, int(sweeps.sum())


class TestCertificateStop:
    @pytest.mark.parametrize("v", [0.34, 1.0])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_ghz_corner_stops_before_any_sweep(self, n, v):
        result = t_max(ghz_planar_tensor(n, v))
        assert result.iterations == 0
        assert result.value == v
        np.testing.assert_array_equal(result.maximizer, np.tile([1.0, 0.0], (n, 1)))
        assert result.certified and result.converged

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_entry_corner_stops_before_any_sweep(self, n):
        index = np.arange(n) % 2
        values = np.zeros((2,) * n)
        values[tuple(index)] = -0.6
        corner = np.where(index[:, None] == 1, [0.0, 1.0], [1.0, 0.0])
        corner[0] = -corner[0]
        result = t_max(CorrelationTensor(n, values))
        assert result.iterations == 0
        assert result.value == 0.6
        np.testing.assert_array_equal(result.maximizer, corner)
        assert result.certified and result.converged

    @pytest.mark.parametrize("n", range(1, 15))
    def test_corner_alone_equals_whole_batch(self, n):
        # where the corner certifies, t_max evaluates no other start, and
        # reports what the whole batch under the same stop would give
        rng = np.random.default_rng([61, n])
        tensors = [ghz_planar_tensor(n, 0.34), ghz_planar_tensor(n, 1.0)]
        tensors += [single_entry_tensor(rng, n)] if n <= 8 else []
        cfg = OptimizerConfig()
        for tensor in tensors:
            starts = _start_points(tensor.values, cfg)
            target = _fourier_bound(tensor.values) * (1 - CERTIFY_RTOL / 2)
            ds, values, sweeps, _ = _ascend(tensor.values, starts, cfg.max_sweeps, target)
            result = t_max(tensor, cfg)
            assert int(np.argmax(values)) == 0 and result.value == values[0]
            np.testing.assert_array_equal(result.maximizer, ds[0])
            assert result.iterations == sweeps.sum() == 0
            assert result.starts_used == len(starts) == 1 + 2 * n + cfg.random_starts

    def test_corner_stop_still_checks_start_count(self):
        too_many = OptimizerConfig(random_starts=np.iinfo(np.intp).max // 8)
        with pytest.raises(DomainError, match="more than numpy can address"):
            t_max(ghz_planar_tensor(4, 0.5), too_many)

    @pytest.mark.parametrize("n", [1, 2])
    def test_stop_is_within_rtol_of_full_ascent(self, n):
        # the bound is exact at N <= 2, so most such tensors stop early
        rng = np.random.default_rng([53, n])
        cfg = OptimizerConfig()
        for _ in range(20):
            tensor = random_tensor(rng, n)
            result = t_max(tensor, cfg)
            value, _, sweeps = full_ascent(tensor, cfg)
            assert abs(result.value - value) <= CERTIFY_RTOL * result.upper
            assert result.iterations < sweeps if result.certified else result.iterations == sweeps
            if n == 2:
                # one pair step is exact at N = 2, so every start stops after one sweep
                assert result.certified and result.iterations == result.starts_used

    @pytest.mark.parametrize("n", range(1, 11))
    def test_rotated_ghz_stops_within_rtol_below_bound(self, n):
        # no start sits on the maximum; from N = 6 the bound lands a few ulps
        # above the value the ascent reaches, so only the rtol margin stops it
        tensor = rotate_frames(ghz_planar_tensor(n, 0.8), 0.3 * np.arange(1, n + 1))
        result = t_max(tensor)
        _, _, sweeps = full_ascent(tensor, OptimizerConfig())
        assert result.certified and result.converged
        assert result.value == pytest.approx(0.8, abs=1e-12)
        assert 0 < result.iterations < sweeps

    @pytest.mark.parametrize("n", range(3, 7))
    def test_open_gap_runs_full_ascent(self, n):
        rng = np.random.default_rng([59, n])
        tensors = [haar_tensor(rng, n) for _ in range(3)]
        if n == 3:
            values = np.zeros((2, 2, 2))
            values[0, 0, 0] = values[1, 1, 1] = 0.5
            tensors.append(CorrelationTensor(3, values))
        cfg = OptimizerConfig()
        for tensor in tensors:
            result = t_max(tensor, cfg)
            value, maximizer, sweeps = full_ascent(tensor, cfg)
            assert not result.certified
            assert result.value == value
            np.testing.assert_array_equal(result.maximizer, maximizer)
            assert result.iterations == sweeps


def near_ghz_tensor(n, seed):
    """GHZ data with shot noise: GHZ(N, 0.3) plus N(0, 1e-3) per entry."""
    rng = np.random.default_rng([71, n, seed])
    return CorrelationTensor(n, ghz_planar_tensor(n, 0.3).values + rng.normal(0, 1e-3, (2,) * n))


class TestNearGhz:
    # per-party steps crawl along the a_j + a_k = const ridge of these
    # tensors: at N = 6 and 8 every start ran into the default 1,000-sweep
    # cap, up to 1.3e-5 relative short of the maximum
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_converges_at_or_above_per_party_value(self, n, seed):
        tensor = near_ghz_tensor(n, seed)
        cfg = OptimizerConfig()
        result = t_max(tensor, cfg)
        assert result.converged and not result.certified
        starts = _start_points(tensor.values, cfg)
        _, found, _, _ = reference_batched_ascent(tensor.values, starts, 1000, _IMPROVEMENT_TOL, math.inf)
        assert result.value >= found.max() * (1 - 1e-12)


def whole_batch(tensor, cfg):
    """t_max as it runs with every start drawn and the whole batch ascended
    under the Fourier stop: the reference the corner path must reproduce."""
    values = tensor.values
    bound = _fourier_bound(values)
    starts = _start_points(values, cfg)
    target = bound * (1 - CERTIFY_RTOL / 2)
    ds, found, sweeps, converged = _ascend(values, starts, cfg.max_sweeps, target)
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


def assert_same_result(got, want):
    for field in dataclasses.fields(TMaxResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "maximizer":
            assert np.array_equal(a, b)
        else:
            assert a == b and type(a) is type(b), field.name


def forbid_search(monkeypatch):
    """Make drawing a start or running the ascent fail the test."""

    def searched(*args, **kwargs):
        raise AssertionError("the corner path drew a start or ran the ascent")

    monkeypatch.setattr(tensor_analysis, "_ascend", searched)
    monkeypatch.setattr(tensor_analysis, "_start_points", searched)
    monkeypatch.setattr(np.random, "default_rng", searched)


CORNER_TENSORS = (
    [("ghz", n, v) for n in range(1, 15) for v in (0.0, 1e-300, 0.34, 1.0)]
    + [("single entry", n, None) for n in range(1, 9)]
    + [("zero", n, None) for n in range(1, 6)]
)


class TestCornerPath:
    @pytest.mark.parametrize("kind, n, v", CORNER_TENSORS)
    def test_searches_nothing(self, monkeypatch, kind, n, v):
        tensor = {
            "ghz": lambda: ghz_planar_tensor(n, v),
            "single entry": lambda: single_entry_tensor(np.random.default_rng([61, n]), n),
            "zero": lambda: CorrelationTensor(n, np.zeros((2,) * n)),
        }[kind]()
        cfg = OptimizerConfig()
        want = whole_batch(tensor, cfg)
        assert want.iterations == 0 and want.certified
        forbid_search(monkeypatch)
        assert_same_result(t_max(tensor, cfg), want)

    @pytest.mark.parametrize("kind, n, v", [("ghz", 8, 0.34), ("single entry", 5, None)])
    def test_contracts_nothing(self, monkeypatch, kind, n, v):
        # the value is the |T_i*| the target test reads, bit for bit the contraction's
        tensor = {
            "ghz": lambda: ghz_planar_tensor(n, v),
            "single entry": lambda: single_entry_tensor(np.random.default_rng([67, n]), n),
        }[kind]()
        want = whole_batch(tensor, OptimizerConfig())
        forbid_search(monkeypatch)

        def contracted(*args):
            raise AssertionError("the corner path contracted the tensor")

        monkeypatch.setattr(tensor_analysis, "product_contraction", contracted)
        assert_same_result(t_max(tensor), want)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_negative_zero_tensor_gives_positive_zero(self, monkeypatch, n):
        tensor = CorrelationTensor(n, -np.zeros((2,) * n))
        assert math.copysign(1.0, tensor.values.flat[0]) == -1.0
        want = whole_batch(tensor, OptimizerConfig())
        forbid_search(monkeypatch)
        got = t_max(tensor)
        assert_same_result(got, want)
        assert got.value == 0.0 and math.copysign(1.0, got.value) == 1.0

    def test_tie_goes_to_the_first_entry_in_party_order(self):
        # |T_21| = |T_12|: party 1's index runs fastest, so T_21 comes first
        values = np.array([[0.0, 0.5], [0.5, 0.0]])
        corner = _corner(values, np.abs(values))
        np.testing.assert_array_equal(corner, [[0.0, 1.0], [1.0, 0.0]])

    def test_unallocatable_draw_still_raises(self, monkeypatch):
        forbid_search(monkeypatch)
        with pytest.raises(MemoryError):
            t_max(ghz_planar_tensor(4, 0.5), OptimizerConfig(random_starts=10**15))

    @pytest.mark.parametrize(
        "starts, error, message",
        [
            (
                5 * 10**18,
                DomainError,
                "random_starts=5000000000000000000 is more than numpy can address",
            ),
            (
                10**15,
                MemoryError,
                "Unable to allocate 28.4 PiB for an array with shape "
                "(1000000000000000, 4) and data type float64",
            ),
        ],
    )
    @pytest.mark.parametrize("corner", [True, False])
    def test_start_count_errors_match_recorded(self, monkeypatch, corner, starts, error, message):
        # texts as recorded when ghz_scan still took a config; both paths raise before any draw
        values = ghz_planar_tensor(4, 0.5).values.copy()
        values[(1, 0, 0, 0)] = 0.0 if corner else 0.25
        forbid_search(monkeypatch)
        with pytest.raises(error) as excinfo:
            t_max(CorrelationTensor(4, values), OptimizerConfig(random_starts=starts))
        assert excinfo.type is error or error is MemoryError  # numpy raises a subclass
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("n", [1, 4])
    def test_start_count_limit_is_intp_max_bytes(self, n, monkeypatch):
        # one start past intp.max bytes is a DomainError; at the limit numpy raises MemoryError
        limit = np.iinfo(np.intp).max // (8 * n)
        forbid_search(monkeypatch)
        with pytest.raises(DomainError, match=f"^random_starts={limit + 1} is more"):
            t_max(ghz_planar_tensor(n, 0.5), OptimizerConfig(random_starts=limit + 1))
        with pytest.raises(MemoryError):
            t_max(ghz_planar_tensor(n, 0.5), OptimizerConfig(random_starts=limit))

    @pytest.mark.parametrize("eps, corner", [(1e-15, True), (1e-9, False)])
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_boundary_at_target(self, n, eps, corner):
        # GHZ vanishes where an odd number of parties sit on y; eps there
        # raises the bound past the corner's 0.5 only when it is large enough
        values = ghz_planar_tensor(n, 0.5).values.copy()
        values[(1,) + (0,) * (n - 1)] = eps
        tensor = CorrelationTensor(n, values)
        target = _fourier_bound(values) * (1 - CERTIFY_RTOL / 2)
        assert (0.5 >= target) == corner
        cfg = OptimizerConfig()
        result = t_max(tensor, cfg)
        assert (result.iterations == 0) == corner
        assert_same_result(result, whole_batch(tensor, cfg))


class TestFourierBound:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", [random_tensor, haar_tensor])
    def test_brackets_t_max(self, family, n):
        rng = np.random.default_rng([31, n, len(family.__name__)])
        for _ in range(5):
            tensor = family(rng, n)
            value = t_max(tensor).value
            bound = _fourier_bound(tensor.values)
            assert value - 1e-12 <= bound <= math.sqrt(sum_of_squares(tensor)) * (1 + 1e-12)
            if n <= 2:
                assert bound == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_fft_oracle(self, n):
        rng = np.random.default_rng([32, n])
        tensors = [ghz_planar_tensor(n, 0.34), single_entry_tensor(rng, n)]
        tensors += [family(rng, n) for family in (random_tensor, haar_tensor) for _ in range(3)]
        for tensor in tensors:
            assert _fourier_bound(tensor.values) == pytest.approx(
                fft_fourier_bound(tensor.values), abs=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_invariant_under_frame_rotations(self, n):
        # a frame rotation multiplies each c_s by a phase
        rng = np.random.default_rng([33, n])
        for tensor in (random_tensor(rng, n, scale=2.0 ** (-n / 2)), haar_tensor(rng, n)):
            rotated = rotate_frames(tensor, rng.uniform(0, 2 * np.pi, n))
            assert _fourier_bound(rotated.values) == pytest.approx(
                _fourier_bound(tensor.values), abs=1e-12
            )


class TestSumOfSquares:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("v", [0.3, 0.7, 1.0])
    def test_ghz_closed_form_exact(self, n, v):
        assert sum_of_squares(ghz_planar_tensor(n, v)) == v * v * 2 ** (n - 1)

    def test_zero_tensor(self):
        assert sum_of_squares(CorrelationTensor(2, np.zeros((2, 2)))) == 0.0

    @pytest.mark.parametrize("n", range(1, 12))
    def test_same_bits_as_scalar_products(self, n):
        rng = np.random.default_rng([47, n])
        for _ in range(5):
            a, b = random_tensor(rng, n), random_tensor(rng, n)
            assert sum_of_squares(a) == math.fsum(float(v) * float(v) for v in a.values.ravel())
            dot = math.fsum(float(x) * float(y) for x, y in zip(a.values.ravel(), b.values.ravel()))
            assert analytic_inner_product(a, b) == math.pi**n * dot

    def test_n2_diagonal(self):
        assert sum_of_squares(diagonal_n2_tensor()) == 2.0


class TestAnalyticInnerProduct:
    def test_ghz_self_product(self):
        # pi^4 * 0.3^2 * 2^3, cross-checked by the quadrature oracle below
        tensor = ghz_planar_tensor(4, 0.3)
        expected = math.pi**4 * 0.72
        assert expected == pytest.approx(70.13454554448174, abs=1e-10)
        assert analytic_inner_product(tensor, tensor) == pytest.approx(
            expected, rel=1e-14
        )

    def test_quadrature_cross_check(self):
        tensor = ghz_planar_tensor(3, 0.45)
        fn = correlation_function(tensor)
        assert analytic_inner_product(tensor, tensor) == pytest.approx(
            quadrature_inner_product(fn, fn, 3, 32), rel=1e-12
        )

    def test_against_zero(self):
        tensor = ghz_planar_tensor(3, 0.5)
        zero = CorrelationTensor(3, np.zeros((2, 2, 2)))
        assert analytic_inner_product(tensor, zero) == 0.0

    def test_self_product_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            tensor = random_tensor(rng, 3)
            assert analytic_inner_product(tensor, tensor) >= 0.0

    def test_matches_sum_of_squares(self):
        rng = np.random.default_rng(43)
        tensor = random_tensor(rng, 4)
        assert analytic_inner_product(tensor, tensor) == pytest.approx(
            math.pi**4 * sum_of_squares(tensor), rel=1e-15
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            analytic_inner_product(ghz_planar_tensor(2, 1.0), ghz_planar_tensor(3, 1.0))
