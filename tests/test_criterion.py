"""Tests for the exclusion criterion, thresholds, and visibility scans."""

import math

import numpy as np
import pytest

from rotbell import (
    CorrelationTensor,
    DomainError,
    InvalidSizeError,
    OptimizerConfig,
    REGION_LOCAL,
    REGION_NONLOCAL,
    REGION_PARADOX,
    ScanPoint,
    analytic_inner_product,
    classify,
    ghz_planar_tensor,
    ghz_scan,
    ghz_thresholds,
    ri_criterion,
    sum_of_squares,
    t_max,
    two_setting_model_exists,
)
from rotbell import correlation, criterion, tensor_analysis


class TestRiCriterion:
    def test_paradox_point(self):
        report = ri_criterion(ghz_planar_tensor(4, 0.34))
        assert report.lhs == pytest.approx(math.pi**4 * 8 * 0.34**2, rel=1e-12)
        assert report.rhs == pytest.approx(4**4 * 0.34, rel=1e-9)
        assert report.violated
        assert report.two_setting_model
        assert report.sum_sq == pytest.approx(0.9248, abs=1e-12)
        assert report.margin == pytest.approx(report.lhs - report.rhs, abs=1e-12)
        assert report.certified

    def test_local_point(self):
        report = ri_criterion(ghz_planar_tensor(4, 0.30))
        assert report.lhs == pytest.approx(math.pi**4 * 0.72, rel=1e-12)
        assert report.rhs == pytest.approx(76.8, rel=1e-9)
        assert not report.violated

    def test_zero_tensor(self):
        report = ri_criterion(CorrelationTensor(3, np.zeros((2, 2, 2))))
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert not report.violated
        assert report.two_setting_model

    def test_one_sum_of_squares_gives_both_sides(self):
        # lhs is the analytic self inner product and the two-setting flag is
        # the library's condition, bit for bit, including at the boundary
        rng = np.random.default_rng(61)
        tensors = [ghz_planar_tensor(n, 2.0 ** (-(n - 1) / 2)) for n in range(1, 9)]
        tensors += [CorrelationTensor(n, rng.uniform(-1, 1, (2,) * n) / 2**n) for n in range(1, 9)]
        for tensor in tensors:
            report = ri_criterion(tensor)
            assert report.lhs == analytic_inner_product(tensor, tensor)
            assert report.lhs == math.pi**tensor.n_parties * report.sum_sq
            assert report.two_setting_model == two_setting_model_exists(tensor)

    def test_onset_matches_closed_form_threshold(self):
        # violation iff pi^N V^2 2^(N-1) > 4^N V, i.e. V > 2 (2/pi)^N
        for n in (3, 4, 5, 6):
            v_ri = 2.0 * (2.0 / math.pi) ** n
            below = ri_criterion(ghz_planar_tensor(n, v_ri * (1 - 1e-6)))
            above = ri_criterion(ghz_planar_tensor(n, v_ri * (1 + 1e-6)))
            assert not below.violated
            assert above.violated


class TestGhzThresholds:
    def test_frozen_values(self):
        # formula arithmetic: 2*(2/pi)^N and 2^(-(N-1)/2)
        cases = {
            3: (0.516025, 0.5),
            4: (0.328511, 0.353553),
            5: (0.209137, 0.25),
        }
        for n, (v_ri, v_ts) in cases.items():
            th = ghz_thresholds(n)
            assert th.v_ri == pytest.approx(2 * (2 / math.pi) ** n, rel=1e-14)
            assert th.v_ri == pytest.approx(v_ri, abs=1e-6)
            assert th.v_two_setting == pytest.approx(2.0 ** (-(n - 1) / 2), rel=1e-14)
            assert th.v_two_setting == pytest.approx(v_ts, abs=1e-6)

    def test_gap_opens_at_four_parties(self):
        for n in range(1, 11):
            assert ghz_thresholds(n).gap_nonempty == (n >= 4)

    @pytest.mark.parametrize("n", [*range(1, 21), 2200, 3000, 10**5])
    def test_gap_survives_underflow(self, n):
        # from about N = 2,150 both thresholds underflow to 0.0, and 0.0 < 0.0
        # is false; their ratio underflows toward 0, where the gap is open
        th = ghz_thresholds(n)
        assert th.gap_nonempty == (n >= 4)
        assert th.v_ri == 2 * (2 / math.pi) ** n
        assert th.v_two_setting == 2.0 ** (-(n - 1) / 2)

    def test_thresholds_in_range(self):
        for n in range(1, 11):
            th = ghz_thresholds(n)
            assert 0.0 < th.v_ri <= 2.0
            assert 0.0 < th.v_two_setting <= 2.0

    def test_rejects_zero_parties(self):
        # InvalidSizeError, like build_ghz and ghz_planar_tensor; a DomainError
        for n in (0, -1):
            with pytest.raises(InvalidSizeError, match=f"n_parties must be >= 1, got {n}"):
                ghz_thresholds(n)
        assert issubclass(InvalidSizeError, DomainError)


class TestGhzScan:
    def test_labels_across_n4_regions(self):
        points = ghz_scan(4, 0.32, 0.36, 5)
        assert [p.region for p in points] == [
            REGION_LOCAL,
            REGION_PARADOX,
            REGION_PARADOX,
            REGION_PARADOX,
            REGION_NONLOCAL,
        ]
        assert points[2].visibility == pytest.approx(0.34)

    def test_zero_visibility_is_local(self):
        points = ghz_scan(3, 0.0, 0.0, 1)
        assert points[0].region == REGION_LOCAL

    def test_no_paradox_without_gap(self):
        points = ghz_scan(2, 0.0, 1.0, 21)
        assert all(p.region != REGION_PARADOX for p in points)

    def test_paradox_nonempty_iff_gap(self):
        for n in range(2, 11):
            th = ghz_thresholds(n)
            midpoint = 0.5 * (th.v_ri + th.v_two_setting)
            if th.gap_nonempty:
                report = ri_criterion(ghz_planar_tensor(n, midpoint))
                assert classify(report) == REGION_PARADOX
            else:
                # exclusion onset is already past the modelability bound
                assert th.v_ri >= th.v_two_setting

    def test_onset_bracketing_on_fine_grid(self):
        # 1e-4 spacing window straddling the threshold; points within 1e-8
        # of it are on the knife edge where roundoff decides
        boundary_tol = 1e-8
        for n in (3, 4, 5, 6, 7, 8):
            v_ri = ghz_thresholds(n).v_ri
            step = 1e-4
            v_min = v_ri - 5.5 * step
            points = ghz_scan(n, v_min, v_min + 10 * step, 11)
            violated = [p.visibility for p in points if p.report.violated]
            assert violated, f"no violation found near threshold for N={n}"
            onset = min(violated)
            assert v_ri - boundary_tol < onset <= v_ri + step + boundary_tol
            for p in points:
                if abs(p.visibility - v_ri) > boundary_tol:
                    assert p.report.violated == (p.visibility > v_ri)

    @pytest.mark.parametrize("v_max", [1.0, 1e-160, 5e-324])
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_per_point_criterion(self, n, v_max):
        # one optimization and one sum of squares per scan, by homogeneity and
        # the closed form V*V * 2^(N-1), against both per point; the tiny grids
        # pin squares that are subnormal or underflow to zero
        for point in ghz_scan(n, 0.0, v_max, 21):
            report = ri_criterion(ghz_planar_tensor(n, point.visibility))
            assert point.report.rhs == pytest.approx(report.rhs, rel=1e-12, abs=0)
            for field in ("lhs", "sum_sq", "violated", "two_setting_model", "certified"):
                assert getattr(point.report, field) == getattr(report, field)
            assert point.region == classify(report)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            ghz_scan(3, 0.5, 0.4, 3)
        with pytest.raises(DomainError):
            ghz_scan(3, 0.0, 1.5, 3)
        with pytest.raises(DomainError):
            ghz_scan(3, 0.0, 1.0, 0)

    def test_rows_in_grid_order(self):
        points = ghz_scan(3, 0.2, 0.8, 7)
        visibilities = [p.visibility for p in points]
        assert visibilities == sorted(visibilities)
        np.testing.assert_allclose(visibilities, np.linspace(0.2, 0.8, 7), atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_unit_ghz_closed_form_is_what_t_max_proves(self, n):
        # ghz_scan takes T_max(GHZ(N, 1)) = 1, certified, and sum_sq = 2^(N-1)
        # from the closed form; the Fourier certificate proves the same value
        unit = ghz_planar_tensor(n, 1.0)
        top = t_max(unit)
        assert top.value == 1.0
        assert top.certified
        assert sum_of_squares(unit) == 2.0 ** (n - 1)

    def test_scan_runs_no_tensor_optimizer_or_sum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ghz_scan must take the closed form")

        grids = [(0.0, 1.0, 21), (0.0, 1e-160, 21), (0.0, 5e-324, 21), (0.30, 0.40, 11)]
        with monkeypatch.context() as patch:
            for module in (criterion, correlation, tensor_analysis):
                for name in ("t_max", "sum_of_squares", "ghz_planar_tensor"):
                    patch.setattr(module, name, refuse, raising=False)
            scans = {(n, grid): ghz_scan(n, *grid) for n in range(1, 15) for grid in grids}
        for (n, _), points in scans.items():
            for point in points:
                report = ri_criterion(ghz_planar_tensor(n, point.visibility))
                assert point == ScanPoint(point.visibility, report, classify(report))

    @pytest.mark.parametrize(
        "args, starts, error, message",
        [
            ((0, 0.0, 1.0, 3), None, InvalidSizeError, "n_parties must be >= 1, got 0"),
            ((-1, 0.0, 1.0, 3), None, InvalidSizeError, "n_parties must be >= 1, got -1"),
            (
                (15, 0.0, 1.0, 3),
                None,
                InvalidSizeError,
                "n_parties=15 exceeds the configured cap of 14",
            ),
            (
                (100, 0.0, 1.0, 3),
                None,
                InvalidSizeError,
                "n_parties=100 exceeds the configured cap of 14",
            ),
            (
                (3, 0.5, 0.4, 3),
                None,
                DomainError,
                "need 0 <= v_min <= v_max <= 1, got v_min=0.5, v_max=0.4",
            ),
            (
                (3, 0.0, 1.5, 3),
                None,
                DomainError,
                "need 0 <= v_min <= v_max <= 1, got v_min=0.0, v_max=1.5",
            ),
            (
                (3, -0.1, 0.5, 3),
                None,
                DomainError,
                "need 0 <= v_min <= v_max <= 1, got v_min=-0.1, v_max=0.5",
            ),
            ((3, 0.0, 1.0, 0), None, DomainError, "steps must be >= 1, got 0"),
            (
                (3, 0.0, 1.0, 2**62),
                None,
                DomainError,
                "steps=4611686018427387904 is more than numpy can address",
            ),
            (
                (4, 0.3, 0.4, 3),
                5 * 10**18,
                DomainError,
                "random_starts=5000000000000000000 is more than numpy can address",
            ),
            (
                (4, 0.3, 0.4, 3),
                10**15,
                MemoryError,
                "Unable to allocate 28.4 PiB for an array with shape "
                "(1000000000000000, 4) and data type float64",
            ),
            # order: range, steps, party count, start count
            (
                (0, 0.5, 0.4, 3),
                None,
                DomainError,
                "need 0 <= v_min <= v_max <= 1, got v_min=0.5, v_max=0.4",
            ),
            ((0, 0.3, 0.4, 0), 10**15, DomainError, "steps must be >= 1, got 0"),
            (
                (15, 0.3, 0.4, 3),
                10**15,
                InvalidSizeError,
                "n_parties=15 exceeds the configured cap of 14",
            ),
        ],
    )
    def test_errors_match_recorded(self, args, starts, error, message):
        # types and texts as recorded before the scan took the closed form
        config = None if starts is None else OptimizerConfig(random_starts=starts)
        with pytest.raises(error) as excinfo:
            ghz_scan(*args, config)
        assert excinfo.type is error or error is MemoryError  # numpy raises a subclass
        assert str(excinfo.value) == message
