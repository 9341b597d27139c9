"""Tests for deterministic strategies, ensembles, and the Bell bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from rotbell import (
    CorrelationTensor,
    DeterministicStrategy,
    DomainError,
    ResponseFunction,
    ShapeError,
    ensemble_inner_product,
    ghz_planar_tensor,
    lr_inner_product,
    optimal_strategy,
    random_ensemble,
    saturating_response,
    sum_of_squares,
    t_max,
    two_setting_model_exists,
    verify_bound,
)
from rotbell import lhv
from rotbell.correlation import product_contraction
from rotbell.functional_space import sign_overlaps
from rotbell.lhv import _draw_responses, _draw_trials, _trial_values, _TrialDraw

from conftest import ensemble_view, strategy_view

TWO_PI = 2 * math.pi


def quad_lr_oracle(strategy, tensor):
    """Independent inner product: scipy quadrature for every per-party
    overlap, explicit loop over all multi-indices."""
    overlaps = []
    for r in strategy.responses:
        pts = list(r.breakpoints)
        a = quad(lambda t: r(t) * math.cos(t), 0, TWO_PI, points=pts, limit=200)[0]
        b = quad(lambda t: r(t) * math.sin(t), 0, TWO_PI, points=pts, limit=200)[0]
        overlaps.append((a, b))
    total = 0.0
    for idx in itertools.product((1, 2), repeat=tensor.n_parties):
        term = tensor.entry(idx)
        for j, i in enumerate(idx):
            term *= overlaps[j][i - 1]
        total += term
    return total


def reference_draw_responses(rng, shape, max_flips=8):
    """``_draw_responses`` as it was before it padded and sorted in place
    and tested for repeats without ``np.diff``.  The random calls and their
    order are the same, so draws must agree bit for bit."""
    flips = 2 * rng.integers(0, max_flips // 2 + 1, size=shape)
    k = np.arange(2 * (max_flips // 2))

    def sorted_rows(count):
        fresh = rng.uniform(0.0, TWO_PI, count.shape + k.shape)
        return np.sort(np.where(k < count[..., None], fresh, TWO_PI + k), axis=-1)

    points = sorted_rows(flips)
    redraw = np.any(np.diff(points, axis=-1) <= 0.0, axis=-1)
    while redraw.any():
        points[redraw] = sorted_rows(flips[redraw])
        redraw = np.any(np.diff(points, axis=-1) <= 0.0, axis=-1)
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=shape)
    return points, flips, signs


def reference_trial_values(draw, values):
    """``_trial_values`` as it was before it skipped rows with a constant
    party: overlaps for every row, then the contraction.  The live rows'
    arithmetic is the same, so values must agree bit for bit."""
    overlaps = sign_overlaps(draw.points, draw.flips, draw.signs)
    return np.bincount(draw.owner, draw.weights * product_contraction(values, overlaps))


def assert_draws_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def random_strategy(rng, n):
    """A strategy of n random responses, drawn as ``_draw_responses`` rows."""
    return strategy_view(*_draw_responses(rng, (n,)))


def random_tensor(rng, n):
    return CorrelationTensor(n, rng.uniform(-1, 1, size=(2,) * n))


def one_trial_draw(points, flips, signs, weights):
    """A hand-built one-trial draw: every row belongs to trial 0."""
    weights = np.asarray(weights, dtype=float)
    return _TrialDraw(np.zeros(weights.size, dtype=int), points, flips, signs, weights)


def object_value(draw, tensor, trial=0):
    """Reference ensemble value: weighted fsum of per-strategy inner products."""
    return math.fsum(w * lr_inner_product(s, tensor) for w, s in ensemble_view(draw, trial))


def quad_ensemble_oracle(draw, tensor, trial=0):
    """Independent ensemble value: weighted sum of quadrature inner products."""
    return sum(w * quad_lr_oracle(s, tensor) for w, s in ensemble_view(draw, trial))


class TestLrInnerProduct:
    def test_saturating_against_ghz2(self):
        # overlaps are (4, 0) per party, so only T_11 contributes: 4^2 * 1
        strategy = DeterministicStrategy([saturating_response(0.0)] * 2)
        assert lr_inner_product(strategy, ghz_planar_tensor(2, 1.0)) == pytest.approx(
            16.0, abs=1e-12
        )

    def test_zero_tensor(self):
        strategy = random_strategy(np.random.default_rng(1), 3)
        zero = CorrelationTensor(3, np.zeros((2, 2, 2)))
        assert lr_inner_product(strategy, zero) == 0.0

    def test_constant_response_annihilates(self):
        rng = np.random.default_rng(2)
        responses = [ResponseFunction((), 1), *random_strategy(rng, 2).responses]
        strategy = DeterministicStrategy(responses)
        assert lr_inner_product(strategy, random_tensor(rng, 3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            strategy = random_strategy(rng, n)
            tensor = random_tensor(rng, n)
            assert lr_inner_product(strategy, tensor) == pytest.approx(
                quad_lr_oracle(strategy, tensor), abs=1e-8
            )

    def test_shape_mismatch(self):
        strategy = random_strategy(np.random.default_rng(4), 2)
        with pytest.raises(ShapeError):
            lr_inner_product(strategy, ghz_planar_tensor(3, 1.0))


class TestEnsembleInnerProduct:
    def test_single_strategy_reduces_to_lr(self):
        rng = np.random.default_rng(5)
        points, flips, signs = _draw_responses(rng, (1, 3))
        tensor = random_tensor(rng, 3)
        draw = one_trial_draw(points, flips, signs, [1.0])
        assert ensemble_inner_product(draw, tensor) == pytest.approx(
            lr_inner_product(strategy_view(points[0], flips[0], signs[0]), tensor), abs=1e-12
        )

    def test_sign_flipped_mixture_cancels(self):
        rng = np.random.default_rng(6)
        points, flips, signs = _draw_responses(rng, (1, 3))
        signs = np.concatenate([signs, signs])
        signs[1, 0] *= -1.0  # the second row flips the first party's response
        draw = one_trial_draw(
            np.concatenate([points, points]), np.concatenate([flips, flips]), signs, [0.5, 0.5]
        )
        assert ensemble_inner_product(draw, random_tensor(rng, 3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_mixture_bounded_by_best_component(self):
        rng = np.random.default_rng(7)
        tensor = random_tensor(rng, 3)
        for _ in range(20):
            draw = random_ensemble(rng, 3)
            mixed = ensemble_inner_product(draw, tensor)
            best = max(lr_inner_product(s, tensor) for _, s in ensemble_view(draw))
            assert mixed <= best + 1e-10

    def test_party_count_mismatch(self):
        # 2 rows x 2 parties x 2 overlaps reshape to 1 row x 4 parties x 2, so
        # unguarded the contraction runs and fails late with a bare ValueError
        points, flips, signs = _draw_responses(np.random.default_rng(18), (2, 2))
        draw = one_trial_draw(points, flips, signs, [0.5, 0.5])
        with pytest.raises(ShapeError):
            ensemble_inner_product(draw, ghz_planar_tensor(4, 1.0))
        rng = np.random.default_rng(19)
        with pytest.raises(ShapeError):
            ensemble_inner_product(random_ensemble(rng, 3), random_tensor(rng, 2))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_random_ensemble_is_a_one_trial_draw(self, seed, n):
        ensemble = random_ensemble(np.random.default_rng(seed), n)
        draw = _draw_trials(np.random.default_rng(seed), 1, n)
        assert type(ensemble) is _TrialDraw
        for field in _TrialDraw._fields:
            assert np.array_equal(getattr(ensemble, field), getattr(draw, field)), field

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_object_path(self, n):
        rng = np.random.default_rng([21, n])
        tensor = random_tensor(rng, n)
        for _ in range(10):
            draw = random_ensemble(rng, n)
            assert ensemble_inner_product(draw, tensor) == pytest.approx(
                object_value(draw, tensor), abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_quadrature_oracle(self, n):
        rng = np.random.default_rng([22, n])
        tensor = random_tensor(rng, n)
        for _ in range(3):
            draw = random_ensemble(rng, n)
            assert ensemble_inner_product(draw, tensor) == pytest.approx(
                quad_ensemble_oracle(draw, tensor), abs=1e-8
            )


class TestOptimalStrategy:
    def test_ghz2(self):
        _, value = optimal_strategy(ghz_planar_tensor(2, 1.0))
        assert value == pytest.approx(16.0, rel=1e-10)

    def test_ghz4_half_visibility(self):
        _, value = optimal_strategy(ghz_planar_tensor(4, 0.5))
        assert value == pytest.approx(128.0, rel=1e-10)

    def test_zero_tensor(self):
        _, value = optimal_strategy(CorrelationTensor(2, np.zeros((2, 2))))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_saturation_ratio_for_random_tensors(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            for _ in range(5):
                tensor = random_tensor(rng, n)
                top = t_max(tensor).value
                if top <= 1e-6:
                    continue
                _, value = optimal_strategy(tensor)
                assert value / (4.0**n * top) == pytest.approx(1.0, abs=1e-8)


class TestVerifyBound:
    def test_zero_tensor(self):
        report = verify_bound(CorrelationTensor(2, np.zeros((2, 2))), 50, seed=1)
        assert report.bound == 0.0
        assert report.max_found == pytest.approx(0.0, abs=1e-12)
        assert report.violations == 0
        assert report.ratio_to_bound == 0.0

    def test_ghz3_no_violations_and_near_saturation(self):
        tensor = ghz_planar_tensor(3, 1.0)
        report = verify_bound(tensor, 500, seed=2)
        assert report.bound == pytest.approx(64.0, rel=1e-9)
        assert report.violations == 0
        assert report.max_found <= 64.0 + 1e-8
        assert report.max_found >= 0.99 * 64.0  # optimal strategy included

    def test_random_tensor_respects_bound(self):
        rng = np.random.default_rng(9)
        tensor = random_tensor(rng, 3)
        report = verify_bound(tensor, 1000, seed=3)
        assert report.violations == 0
        assert report.max_found <= report.bound + 1e-8

    def test_excluding_optimal_lowers_max(self):
        tensor = ghz_planar_tensor(2, 1.0)
        with_opt = verify_bound(tensor, 50, seed=4, include_optimal=True)
        without = verify_bound(tensor, 50, seed=4, include_optimal=False)
        assert without.max_found <= with_opt.max_found
        assert with_opt.includes_optimal and not without.includes_optimal

    def test_carries_certification_flag(self):
        # T_max = 1/2 but the Fourier bound is 1/sqrt(2): not certified
        open_gap = CorrelationTensor.from_json_dict({"n": 3, "entries": {"111": 0.5, "222": 0.5}})
        assert verify_bound(ghz_planar_tensor(2, 0.5), 10, seed=5).certified
        assert not verify_bound(open_gap, 10, seed=5).certified

    @pytest.mark.parametrize("trials", [0, -3, 2.5, 3.0, "3", None])
    def test_rejects_bad_trial_count(self, trials):
        with pytest.raises(DomainError, match="trial_count"):
            verify_bound(ghz_planar_tensor(2, 0.5), trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "1", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            verify_bound(ghz_planar_tensor(2, 0.5), 3, seed=seed)

    def test_accepts_numpy_integers(self):
        tensor = ghz_planar_tensor(2, 0.5)
        assert verify_bound(tensor, np.int64(3), seed=np.uint32(1)) == verify_bound(
            tensor, 3, seed=1
        )

    def test_deterministic_in_seed(self):
        tensor = ghz_planar_tensor(3, 0.8)
        first = verify_bound(tensor, 100, seed=6)
        second = verify_bound(tensor, 100, seed=6)
        assert first == second


class RepeatFirstDraw:
    """Generator wrapper whose first uniform draw repeats one value per row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.repeated = False

    def uniform(self, low, high, size):
        out = self.rng.uniform(low, high, size)
        if not self.repeated:
            self.repeated = True
            out[..., :] = out[..., :1]
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestBatchedSampler:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_trial_values_match_object_path(self, n):
        rng = np.random.default_rng([11, n])
        tensor = random_tensor(rng, n)
        draw = _draw_trials(rng, 40, n)
        found = _trial_values(draw, np.asarray(tensor.values))
        assert found.shape == (40,)
        for trial, value in enumerate(found):
            assert value == pytest.approx(object_value(draw, tensor, trial), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trial_value_against_quadrature_oracle(self, n):
        rng = np.random.default_rng([12, n])
        tensor = random_tensor(rng, n)
        draw = _draw_trials(rng, 3, n)
        found = _trial_values(draw, np.asarray(tensor.values))
        for trial, value in enumerate(found):
            assert value == pytest.approx(quad_ensemble_oracle(draw, tensor, trial), abs=1e-8)

    def test_distribution(self):
        draw = _draw_trials(np.random.default_rng(13), 2000, 3)
        counts = np.bincount(draw.owner)
        assert counts.size == 2000
        assert set(counts) == {1, 2, 3, 4}
        assert set(draw.flips.ravel()) == {0, 2, 4, 6, 8}
        assert set(draw.signs.ravel()) == {-1.0, 1.0}
        for row, flips in zip(draw.points.reshape(-1, 8), draw.flips.ravel()):
            points = row[:flips]
            assert np.all((points >= 0.0) & (points < TWO_PI))
            assert np.all(np.diff(points) > 0.0)
        assert np.all(draw.weights >= 0.0)
        np.testing.assert_allclose(np.bincount(draw.owner, draw.weights), 1.0, atol=1e-12)

    def test_repeated_breakpoints_are_drawn_again(self):
        rng = RepeatFirstDraw(14)
        points, flips, _ = _draw_responses(rng, (50, 3))
        assert rng.repeated
        for row, count in zip(points.reshape(-1, 8), flips.ravel()):
            assert np.all(np.diff(row[:count]) > 0.0)

    def test_zero_flip_rows_project_to_zero(self):
        points, flips, signs = _draw_responses(np.random.default_rng(15), (6, 3), 0)
        assert points.shape == (6, 3, 0)
        np.testing.assert_array_equal(sign_overlaps(points, flips, signs), 0.0)

    def test_small_draws_are_valid(self):
        rng = np.random.default_rng(16)
        for max_flips in (0, 2, 7, 8):
            _, flips, _ = _draw_responses(rng, (64,), max_flips)
            assert np.all(flips % 2 == 0) and np.all(flips <= max_flips)
        assert random_strategy(rng, 5).n_parties == 5
        draw = random_ensemble(rng, 4, max_strategies=2)
        assert draw.points.shape[1] == 4 and 1 <= draw.owner.size <= 2
        np.testing.assert_array_equal(draw.owner, 0)

    def test_memory_does_not_grow_with_trials(self):
        tensor = ghz_planar_tensor(8, 0.7)
        verify_bound(tensor, 10)  # warm caches outside the measurement
        peaks = []
        for trials in (1_000, 100_000):
            tracemalloc.start()
            report = verify_bound(tensor, trials, seed=17)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert report.trials == trials and report.violations == 0
        assert peaks[1] - peaks[0] < 20 * 2**20


class TestBitIdentity:
    """The sampler against its references: same random stream, same values."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_draws_and_values_match_reference(self, n, monkeypatch):
        values = np.random.default_rng([30, n]).uniform(-1, 1, (2,) * n)
        for trials in (1, 2, 17, 300) + ((2000,) if n <= 8 else ()):
            draw = _draw_trials(np.random.default_rng([31, n, trials]), trials, n)
            with monkeypatch.context() as patched:
                patched.setattr(lhv, "_draw_responses", reference_draw_responses)
                want = _draw_trials(np.random.default_rng([31, n, trials]), trials, n)
            assert_draws_equal(draw, want)
            np.testing.assert_array_equal(
                _trial_values(draw, values), reference_trial_values(draw, values)
            )

    @pytest.mark.parametrize("max_flips", [0, 2, 7, 8])
    def test_small_max_flips_match_reference(self, max_flips):
        values = np.random.default_rng(33).uniform(-1, 1, (2,) * 4)
        for seed in range(5):
            got = _draw_responses(np.random.default_rng([34, seed]), (90, 4), max_flips)
            want = reference_draw_responses(np.random.default_rng([34, seed]), (90, 4), max_flips)
            assert_draws_equal(got, want)
            draw = one_trial_draw(*got, np.full(90, 1 / 90))
            np.testing.assert_array_equal(
                _trial_values(draw, values), reference_trial_values(draw, values)
            )

    def test_redraw_path_matches_reference(self):
        rng, ref = RepeatFirstDraw(35), RepeatFirstDraw(35)
        assert_draws_equal(_draw_responses(rng, (50, 3)), reference_draw_responses(ref, (50, 3)))
        assert rng.repeated and ref.repeated
        assert rng.random() == ref.random()  # the same draws were consumed

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_every_row_dead(self, n):
        # a constant party in every row: each trial scores an exact zero
        draw = _draw_trials(np.random.default_rng([36, n]), 50, n)
        flips = draw.flips.copy()
        flips[:, -1] = 0
        dead = draw._replace(flips=flips)
        values = np.random.default_rng(37).uniform(-1, 1, (2,) * n)
        found = _trial_values(dead, values)
        np.testing.assert_array_equal(found, reference_trial_values(dead, values))
        np.testing.assert_array_equal(found, 0.0)

    @pytest.mark.parametrize("include_optimal", [True, False])
    def test_verify_bound_matches_reference(self, include_optimal, monkeypatch):
        # the stress workload's kinds of input; at N = 8 the 1000 trials take two blocks
        rng = np.random.default_rng(38)
        tensors = [ghz_planar_tensor(4, 0.34), ghz_planar_tensor(8, 0.6), random_tensor(rng, 5)]
        for seed, tensor in enumerate(tensors):
            got = verify_bound(tensor, 1000, seed=seed, include_optimal=include_optimal)
            with monkeypatch.context() as patched:
                patched.setattr(lhv, "_draw_responses", reference_draw_responses)
                patched.setattr(lhv, "_trial_values", reference_trial_values)
                want = verify_bound(tensor, 1000, seed=seed, include_optimal=include_optimal)
            assert got == want

    @pytest.mark.parametrize(
        "seed, expected",
        [(0, 2320.779649625729), (1, 2835.5973629035398), (2, 1659.865598728113)],
    )
    def test_seeded_stream_is_pinned(self, seed, expected):
        # three blocks at N = 8; the values predate skipping constant rows
        report = verify_bound(ghz_planar_tensor(8, 0.6), 1500, seed=seed, include_optimal=False)
        assert report.max_found == pytest.approx(expected, rel=1e-12)


class TestGeneralizedBellBound:
    def test_random_ensembles_never_exceed_bound(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            for _ in range(5):
                tensor = random_tensor(rng, n)
                bound = 4.0**n * t_max(tensor).value
                for _ in range(50):
                    value = ensemble_inner_product(random_ensemble(rng, n), tensor)
                    assert value <= bound + 1e-8


class TestTwoSettingModel:
    def test_ghz4_just_below_threshold(self):
        assert two_setting_model_exists(ghz_planar_tensor(4, 0.35))  # 0.98

    def test_ghz4_just_above_threshold(self):
        assert not two_setting_model_exists(ghz_planar_tensor(4, 0.36))  # 1.0368

    def test_zero_tensor(self):
        assert two_setting_model_exists(CorrelationTensor(2, np.zeros((2, 2))))

    def test_boundary_visibility_is_included(self):
        for n in (2, 3, 4, 5):
            v = 1.0 / math.sqrt(2.0 ** (n - 1))
            tensor = ghz_planar_tensor(n, v)
            assert sum_of_squares(tensor) == pytest.approx(1.0, abs=1e-12)
            assert two_setting_model_exists(tensor)
