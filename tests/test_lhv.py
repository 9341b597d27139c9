"""Tests for deterministic strategies, ensembles, and the Bell bound."""

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, kstest

from rotbell import (
    CorrelationTensor,
    DeterministicStrategy,
    DomainError,
    InvalidSizeError,
    OptimizerConfig,
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
from rotbell.correlation import product_contraction
from rotbell.functional_space import project, sign_overlaps
from rotbell.lhv import (
    _draw_breakpoints,
    _draw_trials,
    _saturating_strategy,
    _trial_values,
    _TrialDraw,
)

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
        term = tensor.values[tuple(i - 1 for i in idx)]
        for j, i in enumerate(idx):
            term *= overlaps[j][i - 1]
        total += term
    return total


class ReferenceDraw(NamedTuple):
    """A draw of the full-row sampler: every row holds its responses."""

    owner: np.ndarray  # (S,)
    points: np.ndarray  # (S, N, 8) sorted breakpoints, padded
    flips: np.ndarray  # (S, N)
    signs: np.ndarray  # (S, N)
    weights: np.ndarray  # (S,)


def reference_draw_breakpoints(rng, flips, width):
    """The padding by a broadcast mask and ``np.copyto``, and the repeat test
    on the N-D view, that ``_draw_breakpoints``' padding table replaced."""
    k = np.arange(width)

    def sorted_rows(count):
        rows = rng.uniform(0.0, TWO_PI, count.shape + k.shape)
        np.copyto(rows, TWO_PI + k, where=k >= count[..., None])
        rows.sort(axis=-1)
        return rows

    points = sorted_rows(flips)
    repeats = points[..., 1:] <= points[..., :-1]
    while repeats.any():
        redraw = repeats.any(axis=-1)
        points[redraw] = sorted_rows(flips[redraw])
        repeats = points[..., 1:] <= points[..., :-1]
    return points


def reference_draw_responses(rng, shape, max_flips=8):
    """Padded breakpoint rows, flip counts and leading signs, as the
    full-row sampler drew them for every row, dead or live."""
    flips = 2 * rng.integers(0, max_flips // 2 + 1, size=shape)
    points = reference_draw_breakpoints(rng, flips, 2 * (max_flips // 2))
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=shape)
    return points, flips, signs


def reference_live_draw(rng, trials, n, max_flips=8):
    """``_draw_trials`` with the live rows found by ``flips.all(axis=1)`` and
    the breakpoints drawn by ``reference_draw_breakpoints``."""
    owner = np.repeat(np.arange(trials), rng.integers(1, 5, size=trials))
    flips = 2 * rng.integers(0, max_flips // 2 + 1, size=(owner.size, n), dtype=np.int8)
    mass = rng.standard_exponential(owner.size)
    live = np.flatnonzero(flips.all(axis=1))
    points = reference_draw_breakpoints(rng, flips[live], 2 * (max_flips // 2))
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(live.size, n))
    return _TrialDraw(owner, flips, mass / np.bincount(owner, mass)[owner], live, points, signs)


def reference_pair_mask_overlaps(breakpoints, flips, signs):
    """``sign_overlaps`` with its pair mask broadcast from ``np.arange``, as
    before the mask was taken from a table; the arithmetic is the same."""
    points = np.asarray(breakpoints, dtype=float)
    lead, width = points.shape[:-1], points.shape[-1]
    count = math.prod(lead)
    pairs = np.reshape(flips, -1) // 2
    used = np.arange(width // 2) < pairs[:, None]
    t0, t1 = np.compress(used.reshape(-1), points.reshape(used.size, 2), axis=0).T
    tau = np.tan(0.25 * (t0 + t1))
    half = np.sin(0.5 * (t1 - t0))
    tau_sq = tau * tau
    half /= 1.0 + tau_sq
    rows = np.repeat(np.arange(count), pairs)
    a = np.bincount(rows, half * (1.0 - tau_sq), minlength=count)
    b = np.bincount(rows, half * (2.0 * tau), minlength=count)
    scale = -4.0 * np.reshape(signs, -1)
    return np.stack([scale * a, scale * b], axis=-1).reshape(lead + (2,))


def reference_draw_trials(rng, trials, n, max_strategies=4):
    """The full-row sampler that the live-row one replaced: the same law,
    with breakpoints and signs drawn for the dead rows too."""
    owner = np.repeat(np.arange(trials), rng.integers(1, max_strategies + 1, size=trials))
    points, flips, signs = reference_draw_responses(rng, (owner.size, n))
    mass = rng.standard_exponential(owner.size)
    return ReferenceDraw(owner, points, flips, signs, mass / np.bincount(owner, mass)[owner])


def reference_trial_values(draw, values):
    """The full-block kernel: overlaps for the live rows, then the
    contraction of every row of the block, dead rows included."""
    live = draw.flips.min(axis=1) > 0
    overlaps = np.zeros(draw.points.shape[:2] + (2,))
    overlaps[live] = sign_overlaps(draw.points[live], draw.flips[live], draw.signs[live])
    return np.bincount(draw.owner, draw.weights * product_contraction(values, overlaps))


def reference_sign_overlaps(breakpoints, flips, signs):
    """The per-breakpoint kernel that the pair kernel replaced: a sin and a
    cos per breakpoint, a = 2s * sum_k (-1)^k sin(t_k) and
    b = -2s * sum_k (-1)^k cos(t_k)."""
    points = np.asarray(breakpoints, dtype=float)
    lead, width = points.shape[:-1], points.shape[-1]
    used = np.flatnonzero(np.arange(width) < np.reshape(flips, (-1, 1)))
    rows, column = np.divmod(used, width)
    t = points.reshape(-1)[used]
    alt = 1.0 - 2.0 * (column & 1)
    count = math.prod(lead)
    a = np.bincount(rows, alt * np.sin(t), minlength=count)
    b = np.bincount(rows, alt * np.cos(t), minlength=count)
    scale = 2.0 * np.reshape(signs, -1)
    return np.stack([scale * a, -scale * b], axis=-1).reshape(lead + (2,))


def live_draw(ref):
    """``ref``'s rows in the sampler's layout: responses for the live rows alone."""
    live = np.flatnonzero(ref.flips.min(axis=1) > 0)
    weights = np.asarray(ref.weights, dtype=float)
    return _TrialDraw(ref.owner, ref.flips, weights, live, ref.points[live], ref.signs[live])


def padded_draw(draw):
    """``draw``'s rows in the full-row layout: a dead row gets padding and sign +1."""
    rows, n, width = draw.flips.shape + draw.points.shape[-1:]
    points = np.broadcast_to(TWO_PI + np.arange(width), (rows, n, width)).copy()
    points[draw.live] = draw.points
    signs = np.ones((rows, n))
    signs[draw.live] = draw.signs
    return ReferenceDraw(draw.owner, points, draw.flips, signs, draw.weights)


def random_strategy(rng, n):
    """A strategy of n random responses, drawn as full-row sampler rows."""
    return strategy_view(*reference_draw_responses(rng, (n,)))


def random_tensor(rng, n):
    return CorrelationTensor(n, rng.uniform(-1, 1, size=(2,) * n))


def one_trial_draw(points, flips, signs, weights):
    """A hand-built one-trial draw: every row belongs to trial 0."""
    owner = np.zeros(len(weights), dtype=int)
    return live_draw(ReferenceDraw(owner, points, flips, signs, weights))


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
        points, flips, signs = reference_draw_responses(rng, (1, 3))
        tensor = random_tensor(rng, 3)
        draw = one_trial_draw(points, flips, signs, [1.0])
        assert ensemble_inner_product(draw, tensor) == pytest.approx(
            lr_inner_product(strategy_view(points[0], flips[0], signs[0]), tensor), abs=1e-12
        )

    def test_sign_flipped_mixture_cancels(self):
        rng = np.random.default_rng(6)
        points, flips, signs = reference_draw_responses(rng, (1, 3))
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
            scores = [lr_inner_product(s, tensor) for _, s in ensemble_view(draw)]
            if len(scores) < draw.owner.size:
                scores.append(0.0)  # a dead row's score
            assert mixed <= max(scores) + 1e-10

    def test_party_count_mismatch(self):
        # 2 rows x 2 parties x 2 overlaps reshape to 1 row x 4 parties x 2, so
        # unguarded the contraction runs and fails late with a bare ValueError
        points, flips, signs = reference_draw_responses(np.random.default_rng(18), (2, 2))
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

    def test_takes_no_config(self):
        # it reads T_max's maximizer alone, so there is no config to read
        with pytest.raises(TypeError):
            optimal_strategy(ghz_planar_tensor(2, 1.0), OptimizerConfig())

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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_stacked_responses_match_per_party_projections(self, n):
        # lr_inner_product scores the N responses as one kernel call over
        # rows padded to the widest; each row sums alone, so it matches the
        # contraction of N separate projections bit for bit
        rng = np.random.default_rng([40, n])
        tensor = random_tensor(rng, n)
        for k in range(60):
            maximizer = rng.normal(size=(n, 2))
            maximizer /= np.linalg.norm(maximizer, axis=1, keepdims=True)
            strategy = _saturating_strategy(maximizer) if k % 2 else random_strategy(rng, n)
            overlaps = np.array([project(r) for r in strategy.responses])
            expected = float(product_contraction(tensor.values, overlaps))
            assert lr_inner_product(strategy, tensor) == expected


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


class PlantRepeat:
    """Generator wrapper: in its first uniform draw, breakpoint row ``row`` (an
    index or a slice) repeats its first value.  It records each draw's rows."""

    def __init__(self, seed, row):
        self.rng = np.random.default_rng(seed)
        self.row = row
        self.rows_drawn = []

    def uniform(self, low, high, size):
        out = self.rng.uniform(low, high, size)
        rows = out.reshape(-1, size[-1])  # a view: the draw is contiguous
        if not self.rows_drawn:
            rows[self.row, 1] = rows[self.row, 0]
        self.rows_drawn.append(len(rows))
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
        np.testing.assert_array_equal(draw.live, np.flatnonzero(draw.flips.min(axis=1) > 0))
        assert draw.points.shape == (draw.live.size, 3, 8)
        assert set(draw.signs.ravel()) == {-1.0, 1.0}
        for row, flips in zip(draw.points.reshape(-1, 8), draw.flips[draw.live].ravel()):
            points = row[:flips]
            assert np.all((points >= 0.0) & (points < TWO_PI))
            assert np.all(np.diff(points) > 0.0)
        assert np.all(draw.weights >= 0.0)
        np.testing.assert_allclose(np.bincount(draw.owner, draw.weights), 1.0, atol=1e-12)

    def test_repeated_breakpoints_are_drawn_again(self):
        rng = PlantRepeat(14, slice(None))  # every row
        flips = 2 * np.random.default_rng(14).integers(1, 5, size=(50, 3))
        points = _draw_breakpoints(rng, flips, 8)
        assert rng.rows_drawn == [flips.size, flips.size]
        for row, count in zip(points.reshape(-1, 8), flips.ravel()):
            assert np.all(np.diff(row[:count]) > 0.0)

    def test_zero_flip_rows_project_to_zero(self):
        flips = np.zeros((6, 3), dtype=int)
        points = _draw_breakpoints(np.random.default_rng(15), flips, 0)
        assert points.shape == (6, 3, 0)
        np.testing.assert_array_equal(sign_overlaps(points, flips, np.ones((6, 3))), 0.0)

    def test_small_draws_are_valid(self):
        rng = np.random.default_rng(16)
        for max_flips in (0, 2, 7, 8):
            draw = _draw_trials(rng, 64, 2, max_flips=max_flips)
            assert np.all(draw.flips % 2 == 0) and np.all(draw.flips <= max_flips)
            assert draw.points.shape[-1] == 2 * (max_flips // 2)
        assert random_strategy(rng, 5).n_parties == 5
        draw = random_ensemble(rng, 4)
        assert draw.flips.shape[1] == 4 and 1 <= draw.owner.size <= 4
        np.testing.assert_array_equal(draw.owner, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_ensemble_rejects_party_count(self, n):
        with pytest.raises(InvalidSizeError, match="n_parties"):
            random_ensemble(np.random.default_rng(17), n)

    def test_random_ensemble_takes_no_strategy_count(self):
        with pytest.raises(TypeError):
            random_ensemble(np.random.default_rng(17), 3, 2)

    def test_random_ensemble_strategy_count_spans_one_to_four(self):
        # every count in 1..4 comes up, and nothing past it
        rng = np.random.default_rng(18)
        counts = {random_ensemble(rng, 3).owner.size for _ in range(200)}
        assert counts == {1, 2, 3, 4}

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


def every_count(rng, n, width):
    """int8 flip counts, (rows, n), in which each party takes every count 0..width."""
    column = np.repeat(np.arange(width + 1), 3)
    return np.stack([rng.permutation(column) for _ in range(n)], axis=1).astype(np.int8)


class TestKnownValueTables:
    """The padding table, the live-row reduction and the pair-mask table
    against the broadcast masks they replaced, kept above as references:
    every seeded draw and overlap is bit for bit the same."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("max_flips", [1, 2, 7, 8])
    def test_padding_matches_the_masked_copy(self, n, max_flips):
        width = 2 * (max_flips // 2)  # 0, 2, 6 and 8
        flips = every_count(np.random.default_rng([50, n, width]), n, width)
        got = _draw_breakpoints(np.random.default_rng([51, n]), flips, width)
        want = reference_draw_breakpoints(np.random.default_rng([51, n]), flips, width)
        assert got.shape == flips.shape + (width,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("max_flips", [1, 2, 7, 8])
    def test_draw_matches_the_reference_draw(self, n, max_flips):
        seed = [52, n, max_flips]
        got = _draw_trials(np.random.default_rng(seed), 300, n, max_flips=max_flips)
        want = reference_live_draw(np.random.default_rng(seed), 300, n, max_flips)
        np.testing.assert_array_equal(got.live, np.flatnonzero(got.flips.all(axis=1)))
        for name, a, b in zip(_TrialDraw._fields, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("max_flips", [1, 2, 7, 8])
    def test_pair_mask_matches_the_broadcast_mask(self, n, max_flips):
        width = 2 * (max_flips // 2)
        rng = np.random.default_rng([53, n, width])
        flips = every_count(rng, n, width) // 2 * 2  # the kernel takes even counts
        points = _draw_breakpoints(rng, flips, width)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=flips.shape)
        got = sign_overlaps(points, flips, signs)
        assert np.array_equal(got, reference_pair_mask_overlaps(points, flips, signs))

    def test_only_the_row_with_a_repeat_is_drawn_again(self):
        flips = 2 * np.random.default_rng(54).integers(1, 5, size=(40, 3), dtype=np.int8)
        row = 17
        got_rng, want_rng = PlantRepeat(55, row), PlantRepeat(55, row)
        got = _draw_breakpoints(got_rng, flips, 8)
        want = reference_draw_breakpoints(want_rng, flips, 8)
        assert got_rng.rows_drawn == [flips.size, 1] == want_rng.rows_drawn
        assert np.array_equal(got, want)
        # against the same stream unplanted: the planted row alone differs
        plain = _draw_breakpoints(np.random.default_rng(55), flips, 8).reshape(-1, 8)
        flat, others = got.reshape(-1, 8), np.arange(flips.size) != row
        assert np.array_equal(flat[others], plain[others])
        assert not np.array_equal(flat[row], plain[row])
        assert np.all(np.diff(flat[row, : flips.flat[row]]) > 0.0)


class TestLaw:
    """The live-row sampler against the full-row sampler it replaced, kept
    above as the reference: the same kernel values and the same law."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_values_match_full_block_kernel(self, n):
        # the same rows, scored by the reference over the whole block; the
        # matrix product over fewer rows may round the last bit differently
        values = np.random.default_rng([30, n]).uniform(-1, 1, (2,) * n)
        for trials in (1, 2, 17, 300) + ((2000,) if n <= 8 else ()):
            draw = _draw_trials(np.random.default_rng([31, n, trials]), trials, n)
            np.testing.assert_allclose(
                _trial_values(draw, values),
                reference_trial_values(padded_draw(draw), values),
                rtol=1e-12,
                atol=0.0,
            )

    @pytest.mark.parametrize("n", [3, 5])
    def test_trial_values_follow_the_reference_law(self, n):
        values = np.random.default_rng([32, n]).uniform(-1, 1, (2,) * n)
        got = _trial_values(_draw_trials(np.random.default_rng([33, n]), 20_000, n), values)
        ref = reference_draw_trials(np.random.default_rng([34, n]), 20_000, n)
        assert ks_2samp(got, reference_trial_values(ref, values)).pvalue > 0.01

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_live_rows_flips_and_weights(self, n):
        draw = _draw_trials(np.random.default_rng([35, n]), 20_000, n)
        live = 0.8**n  # each party flips with probability 4/5
        spread = 5.0 * math.sqrt(live * (1.0 - live) / draw.owner.size)
        assert draw.live.size / draw.owner.size == pytest.approx(live, abs=spread)
        flips = draw.flips[draw.live].ravel()
        shares = np.bincount(flips, minlength=9)[::2] / flips.size
        np.testing.assert_allclose(shares, [0.0, 0.25, 0.25, 0.25, 0.25], atol=0.01)
        assert np.mean(draw.signs == 1.0) == pytest.approx(0.5, abs=0.01)
        used = draw.points[np.arange(8) < draw.flips[draw.live][..., None]]
        assert kstest(used / TWO_PI, "uniform").pvalue > 0.01
        # dead rows keep their weight: only all rows together sum to 1
        np.testing.assert_allclose(np.bincount(draw.owner, draw.weights), 1.0, atol=1e-12)
        held = np.bincount(draw.owner[draw.live], draw.weights[draw.live], minlength=20_000)
        assert np.mean(held) < 1.0 - 0.5 * (1.0 - live)

    def test_no_trial_exceeds_the_bound(self):
        # the stress workload's kinds of input: GHZ(4) at the paradox point,
        # GHZ(8) and a generic 5-party tensor
        rng = np.random.default_rng(38)
        tensors = [ghz_planar_tensor(4, 0.34), ghz_planar_tensor(8, 0.6), random_tensor(rng, 5)]
        for seed, tensor in enumerate(tensors):
            n = tensor.n_parties
            bound = 4.0**n * t_max(tensor).value
            found = _trial_values(_draw_trials(np.random.default_rng(seed), 5000, n), tensor.values)
            assert found.max() <= bound + 1e-8
            report = verify_bound(tensor, 5000, seed=seed, include_optimal=False)
            assert report.violations == 0
            assert report.max_found == found.max()  # 5000 trials are one block

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_every_row_dead(self, n):
        # no party flips: no row is live, no breakpoint is drawn, and every
        # trial, or the one trial of an ensemble, scores 0.0
        values = np.random.default_rng(37).uniform(-1, 1, (2,) * n)
        draw = _draw_trials(np.random.default_rng([36, n]), 50, n, max_flips=0)
        assert draw.live.size == 0 and draw.points.shape == (0, n, 0)
        np.testing.assert_array_equal(_trial_values(draw, values), np.zeros(50))
        tensor = CorrelationTensor(n, values)
        one = _draw_trials(np.random.default_rng([36, n]), 1, n, max_flips=0)
        assert ensemble_inner_product(one, tensor) == 0.0
        ensembles = (random_ensemble(np.random.default_rng([39, s]), n) for s in range(100))
        sampled = next(e for e in ensembles if e.live.size == 0)
        assert ensemble_inner_product(sampled, tensor) == 0.0

    @pytest.mark.parametrize(
        "seed, expected",
        [(0, 1313.0389816867034), (1, 3651.74685555185), (2, 2857.504154509218)],
    )
    def test_seeded_stream_is_pinned(self, seed, expected):
        # one block at N = 8
        report = verify_bound(ghz_planar_tensor(8, 0.6), 1500, seed=seed, include_optimal=False)
        assert report.max_found == pytest.approx(expected, rel=1e-12)


class TestPairKernel:
    """``sign_overlaps``, one chord per breakpoint pair, against the
    per-breakpoint kernel it replaced, kept above as the reference."""

    @staticmethod
    def assert_matches_reference(points, flips, signs):
        got = sign_overlaps(points, flips, signs)
        np.testing.assert_allclose(
            got, reference_sign_overlaps(points, flips, signs), rtol=0.0, atol=1e-14
        )
        return got

    @pytest.mark.parametrize("n", [1, 4, 8])
    @pytest.mark.parametrize("max_flips", [0, 7, 8])
    def test_seeded_draw_rows(self, n, max_flips):
        # widths 0, 6 and 8; rows padded with 2*pi + k
        draw = _draw_trials(np.random.default_rng([40, n, max_flips]), 500, n, max_flips=max_flips)
        assert draw.points.shape[-1] == 2 * (max_flips // 2)
        assert (draw.live.size > 0) == (max_flips > 0)
        self.assert_matches_reference(draw.points, draw.flips[draw.live], draw.signs)

    @pytest.mark.parametrize(
        "points",
        [
            [math.pi - 0.5, math.pi + 0.5],  # centred on pi: m/2 at the pole of tan
            [0.5, math.pi - 2.0, math.pi + 2.0, 6.0],
            [1.0, float(np.nextafter(1.0, 2.0))],  # one ulp apart
            [0.0, float(np.nextafter(TWO_PI, 0.0))],  # both ends of the period
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, float(np.nextafter(TWO_PI, 0.0))],
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_edge_pairs(self, points, sign):
        got = self.assert_matches_reference(points, len(points), sign)
        np.testing.assert_array_equal(project(ResponseFunction(points, sign)), got)

    def test_pair_at_the_pole(self):
        # m = pi, so tau = tan(pi/2) is about 1.6e16 and stays finite; the
        # overlaps are -4s sin(h) (cos pi, sin pi) = (4s sin h, 0)
        t0, t1 = math.pi - 0.5, math.pi + 0.5
        assert 0.25 * (t0 + t1) == math.pi / 2
        for sign in (1, -1):
            a, b = sign_overlaps([t0, t1], 2, sign)
            assert a == pytest.approx(4.0 * sign * math.sin(0.5), abs=1e-15)
            assert abs(b) <= 1e-15

    def test_one_ulp_pair_scores_near_zero(self):
        t0 = 1.0
        overlaps = sign_overlaps([t0, float(np.nextafter(t0, 2.0))], 2, 1)
        assert np.all(np.abs(overlaps) <= 4.0 * np.spacing(t0))

    def test_zero_padded_rows_of_unequal_width(self):
        # lr_inner_product stacks responses as rows zero-padded to the widest
        rng = np.random.default_rng(41)
        responses = [
            ResponseFunction(np.sort(rng.uniform(0.0, TWO_PI, k)), s)
            for k, s in [(2, 1), (8, -1), (0, 1), (4, -1), (6, 1)]
        ]
        flips = [len(r.breakpoints) for r in responses]
        points = np.zeros((len(flips), 8))
        for row, r in zip(points, responses):
            row[: len(r.breakpoints)] = r.breakpoints
        signs = [r.leading_sign for r in responses]
        overlaps = self.assert_matches_reference(points, flips, signs)
        np.testing.assert_array_equal(overlaps[2], 0.0)
        tensor = random_tensor(rng, len(responses))
        expected = product_contraction(tensor.values, reference_sign_overlaps(points, flips, signs))
        got = lr_inner_product(DeterministicStrategy(responses), tensor)
        assert got == pytest.approx(float(expected), abs=1e-12)
        constant = DeterministicStrategy([ResponseFunction()] * 3)  # rows of width 0
        assert lr_inner_product(constant, random_tensor(rng, 3)) == 0.0


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
