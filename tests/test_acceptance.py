"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted in place.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rotbell import (
    CorrelationTensor,
    build_ghz,
    correlation_function,
    ghz_planar_tensor,
    ghz_scan,
    ghz_thresholds,
    mix_with_white_noise,
    optimal_strategy,
    quadrature_inner_product,
    ri_criterion,
    sum_of_squares,
    t_max,
    tensor_from_state,
    verify_bound,
)


#: per-criterion PASS/FAIL lines; conftest echoes them in the terminal summary
ACCEPTANCE_LINES = []


def _announce(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    _announce(f"ACCEPTANCE {number} PASS: {title} ({elapsed:.1f}s)")


def random_tensor(rng, n):
    return CorrelationTensor(n, rng.uniform(-1, 1, size=(2,) * n))


def test_criterion_1_ghz_tensor_structure():
    with criterion(1, "GHZ tensor structure (measured vs closed form)", 10.0):
        for n in range(2, 9):
            for v in (0.3, 0.7, 1.0):
                closed = ghz_planar_tensor(n, v)
                measured = tensor_from_state(mix_with_white_noise(build_ghz(n), v))
                np.testing.assert_allclose(
                    measured.values, closed.values, atol=1e-10
                )
                nonzero = closed.values[closed.values != 0.0]
                assert nonzero.size == 2 ** (n - 1)
                assert np.all(np.abs(nonzero) == v)
                for idx in itertools.product((1, 2), repeat=n):
                    k = sum(1 for i in idx if i == 2)
                    expected = v * (-1.0) ** (k // 2) if k % 2 == 0 else 0.0
                    assert closed.values[tuple(i - 1 for i in idx)] == expected


def test_criterion_2_tmax_equals_visibility():
    with criterion(2, "T_max = V for noisy GHZ, certified by the Fourier bound", 30.0):
        for n in range(1, 9):
            for v in (0.3, 0.7, 1.0):
                result = t_max(ghz_planar_tensor(n, v))
                assert result.value == pytest.approx(v, abs=1e-9)
                assert result.certified


def test_criterion_3_sum_of_squares_closed_form():
    with criterion(3, "sum of squares = V^2 * 2^(N-1)", 30.0):
        for n in range(2, 9):
            for v in (0.3, 0.7, 1.0):
                expected = v * v * 2 ** (n - 1)
                assert sum_of_squares(ghz_planar_tensor(n, v)) == expected
                measured = tensor_from_state(mix_with_white_noise(build_ghz(n), v))
                assert sum_of_squares(measured) == pytest.approx(expected, abs=1e-9)


def test_criterion_4_quadrature_matches_analytic_inner_product():
    with criterion(4, "quadrature inner product = pi^N * sum(T^2)", 60.0):
        rng = np.random.default_rng(2026)
        for n in (1, 2, 3):
            tensors = [ghz_planar_tensor(n, v) for v in (0.3, 0.7, 1.0)]
            tensors += [random_tensor(rng, n) for _ in range(20)]
            for tensor in tensors:
                fn = correlation_function(tensor)
                numeric = quadrature_inner_product(fn, fn, n, 64)
                exact = math.pi**n * sum_of_squares(tensor)
                assert numeric == pytest.approx(exact, rel=1e-9)


def test_criterion_5_bound_tightness_and_no_violations():
    with criterion(5, "optimal strategy saturates 4^N * T_max; no violations", 300.0):
        for n in range(1, 7):
            for v in (0.5, 1.0):
                tensor = ghz_planar_tensor(n, v)
                _, value = optimal_strategy(tensor)
                assert value == pytest.approx(4.0**n * v, rel=1e-8)
        rng = np.random.default_rng(404)
        for i in range(50):
            n = 1 + i % 4
            tensor = random_tensor(rng, n)
            top = t_max(tensor).value
            if top <= 1e-6:
                continue
            _, value = optimal_strategy(tensor)
            assert value == pytest.approx(4.0**n * top, rel=1e-8)
        for tensor in (ghz_planar_tensor(3, 1.0), random_tensor(rng, 3)):
            report = verify_bound(tensor, 10_000, seed=7)
            assert report.violations == 0
            assert report.max_found <= report.bound + 1e-8


def test_criterion_6_threshold_reproduction():
    with criterion(6, "visibility thresholds and the N >= 4 gap", 10.0):
        # decimals frozen from the formulas 2*(2/pi)^N and 2^(-(N-1)/2)
        frozen = {
            3: (0.516025, 0.5),
            4: (0.328511, 0.353553),
            5: (0.209137, 0.25),
        }
        for n, (v_ri, v_ts) in frozen.items():
            th = ghz_thresholds(n)
            assert th.v_ri == pytest.approx(2.0 * (2.0 / math.pi) ** n, abs=1e-12)
            assert th.v_ri == pytest.approx(v_ri, abs=1e-6)
            assert th.v_two_setting == pytest.approx(2.0 ** (-(n - 1) / 2.0), abs=1e-12)
            assert th.v_two_setting == pytest.approx(v_ts, abs=1e-6)
        assert not ghz_thresholds(3).gap_nonempty
        for n in range(1, 11):
            assert ghz_thresholds(n).gap_nonempty == (n >= 4)


def test_criterion_7_paradox_point_and_onset_bracketing():
    with criterion(7, "paradox at GHZ(4, 0.34); onset within one 1e-4 step", 60.0):
        report = ri_criterion(ghz_planar_tensor(4, 0.34))
        assert report.violated
        assert report.two_setting_model
        v_ri = ghz_thresholds(4).v_ri
        step = 1e-4
        v_min = v_ri - 5.5 * step
        points = ghz_scan(4, v_min, v_min + 10 * step, 11)
        onset = min(p.visibility for p in points if p.report.violated)
        assert v_ri - 1e-8 < onset <= v_ri + step + 1e-8
        below = [p for p in points if p.visibility < v_ri - 1e-8]
        assert below and not any(p.report.violated for p in below)


def test_criterion_8_cli_round_trip_determinism(tmp_path):
    with criterion(8, "tensor -> check CLI round trip is bit-for-bit stable", 60.0):
        tensor_file = tmp_path / "ghz4.json"

        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "rotbell", *args],
                capture_output=True,
                check=True,
            )
            return proc.stdout

        run("tensor", "--ghz", "4", "--visibility", "0.34", "--out", str(tensor_file))
        first = run("check", "--in", str(tensor_file), "--seed", "0")
        second = run("check", "--in", str(tensor_file), "--seed", "0")
        assert first == second
        doc = json.loads(first)
        assert doc["violated"] is True
        assert doc["two_setting_model"] is True
        assert doc["lhs"] == pytest.approx(math.pi**4 * 8 * 0.34**2, rel=1e-12)
        assert doc["rhs"] == pytest.approx(87.04, rel=1e-9)
