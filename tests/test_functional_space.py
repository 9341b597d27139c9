"""Tests for response functions, projections, and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rotbell import (
    BudgetError,
    DomainError,
    InvalidSizeError,
    PROJECTION_NORM_BOUND,
    ResponseFunction,
    correlation_function,
    ghz_planar_tensor,
    project,
    quadrature_inner_product,
    saturating_response,
)

TWO_PI = 2 * math.pi


def angle_gap(x, y):
    """Circular distance between two angles."""
    return abs((x - y + math.pi) % TWO_PI - math.pi)


def quad_projection_oracle(response):
    """Independent projection: adaptive quadrature split at the jumps."""
    pts = list(response.breakpoints)
    a = quad(lambda t: response(t) * math.cos(t), 0, TWO_PI, points=pts, limit=200)[0]
    b = quad(lambda t: response(t) * math.sin(t), 0, TWO_PI, points=pts, limit=200)[0]
    return a, b


def midpoint_saturating_response(psi):
    """``saturating_response`` as it was, probing cos at the midpoint of [lo, hi)."""
    b1 = float(psi + math.pi / 2.0) % TWO_PI
    b2 = float(psi + 3.0 * math.pi / 2.0) % TWO_PI
    lo, hi = sorted((b1, b2))
    inside = 1 if math.cos(0.5 * (lo + hi) - psi) > 0.0 else -1  # value on [lo, hi)
    return ResponseFunction((lo, hi), -inside)


@st.composite
def response_functions(draw):
    flips = draw(st.sampled_from([0, 2, 4, 6, 8]))
    points = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=TWO_PI - 1e-9, exclude_max=False),
            min_size=flips,
            max_size=flips,
            unique=True,
        )
    )
    sign = draw(st.sampled_from([1, -1]))
    return ResponseFunction(tuple(sorted(points)), sign)


class TestResponseFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            ResponseFunction((0.5,), 1)  # odd count
        with pytest.raises(DomainError):
            ResponseFunction((0.5, TWO_PI), 1)  # out of range
        with pytest.raises(DomainError):
            ResponseFunction((1.0, 0.5), 1)  # not increasing
        for sign in (2, 0, 1.5, -1.9, 0.5):  # bad sign, never truncated to one
            with pytest.raises(DomainError):
                ResponseFunction((), sign)
        for sign in (1.0, -1.0, np.float64(-1.0), np.int64(1)):
            got = ResponseFunction((), sign).leading_sign
            assert type(got) is int and got == sign

    @pytest.mark.parametrize("sign", [True, False, np.bool_(True), np.bool_(False)])
    def test_bool_is_no_sign(self, sign):
        with pytest.raises(DomainError, match="leading_sign must be"):
            ResponseFunction((), sign)

    def test_constant(self):
        one = ResponseFunction((), 1)
        np.testing.assert_array_equal(one(np.linspace(0, TWO_PI, 9)), 1.0)

    def test_alternation(self):
        r = ResponseFunction((1.0, 4.0), 1)
        assert r(0.5) == 1.0
        assert r(1.0) == -1.0  # flips at the breakpoint
        assert r(2.0) == -1.0
        assert r(5.0) == 1.0

    def test_breakpoint_at_zero(self):
        r = ResponseFunction((0.0, math.pi), 1)
        assert r(0.0) == -1.0
        assert r(math.pi + 0.1) == 1.0

    def test_periodicity_and_magnitude(self):
        rng = np.random.default_rng(2)
        r = ResponseFunction((0.3, 1.1, 2.0, 5.5), -1)
        angles = rng.uniform(0, TWO_PI, 50)
        np.testing.assert_array_equal(r(angles), r(angles + TWO_PI))
        assert set(np.unique(r(angles))) <= {-1.0, 1.0}


def projection_norm(overlaps):
    """Length of the projection onto cos/sqrt(pi), sin/sqrt(pi)."""
    return math.hypot(*overlaps) / math.sqrt(math.pi)


class TestProject:
    def test_sign_of_cos(self):
        p = project(ResponseFunction((math.pi / 2, 3 * math.pi / 2), 1))
        assert p.shape == (2,) and p.dtype == float
        a, b = p
        assert a == pytest.approx(4.0, abs=1e-14)
        assert b == pytest.approx(0.0, abs=1e-14)
        assert projection_norm(p) == pytest.approx(PROJECTION_NORM_BOUND, abs=1e-14)

    def test_constant_projects_to_zero(self):
        p = project(ResponseFunction((), 1))
        assert p.shape == (2,)
        assert p.tolist() == [0.0, 0.0]

    def test_shifted_sign_of_cos(self):
        psi = math.pi / 3
        a, b = project(saturating_response(psi))
        assert a == pytest.approx(2.0, abs=1e-12)
        assert b == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        oracle_a, oracle_b = quad_projection_oracle(saturating_response(psi))
        assert a == pytest.approx(oracle_a, abs=1e-9)
        assert b == pytest.approx(oracle_b, abs=1e-9)

    def test_random_responses_against_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            flips = int(rng.choice([0, 2, 4, 6, 8]))
            points = tuple(sorted(rng.uniform(0, TWO_PI, flips)))
            r = ResponseFunction(points, int(rng.choice([-1, 1])))
            oracle_a, oracle_b = quad_projection_oracle(r)
            a, b = project(r)
            assert a == pytest.approx(oracle_a, abs=1e-9)
            assert b == pytest.approx(oracle_b, abs=1e-9)

    @given(response_functions())
    @settings(max_examples=200, deadline=None)
    def test_norm_bound(self, response):
        assert projection_norm(project(response)) <= PROJECTION_NORM_BOUND + 1e-12

    def test_bound_attained_only_near_saturation(self):
        # a response with flips not pi apart stays strictly below the bound
        r = ResponseFunction((1.0, 2.0), 1)
        assert projection_norm(project(r)) < PROJECTION_NORM_BOUND - 1e-3


class TestSaturatingResponse:
    def test_aligned_with_x(self):
        r = saturating_response(0.0)
        assert r.breakpoints == pytest.approx((math.pi / 2, 3 * math.pi / 2))
        assert r.leading_sign == 1

    def test_antialigned(self):
        r = saturating_response(math.pi)
        assert r.breakpoints == pytest.approx((math.pi / 2, 3 * math.pi / 2))
        assert r.leading_sign == -1

    def test_matches_sign_of_cos(self):
        rng = np.random.default_rng(7)
        for psi in rng.uniform(-10, 10, 20):
            r = saturating_response(float(psi))
            for a in rng.uniform(0, TWO_PI, 20):
                expected = 1.0 if math.cos(a - psi) > 0 else -1.0
                if abs(math.cos(a - psi)) > 1e-9:
                    assert r(a) == expected

    def test_same_as_midpoint_probe(self):
        rng = np.random.default_rng(19)
        psis = list(rng.uniform(-4 * math.pi, 4 * math.pi, 200_000))
        for centre in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI):
            for direction in (-math.inf, math.inf):
                psi = centre
                for _ in range(50):
                    psi = math.nextafter(psi, direction)
                    psis.append(psi)
            psis.append(centre)
        xy = rng.normal(size=(100_000, 2))
        psis += [math.atan2(y, x) % TWO_PI for x, y in xy]  # as optimal_strategy computes them
        for psi in psis:
            got, expected = saturating_response(psi), midpoint_saturating_response(psi)
            assert (got.breakpoints, got.leading_sign) == (
                expected.breakpoints,
                expected.leading_sign,
            ), psi

    def test_norm_saturates_for_random_psi(self):
        # overlaps 4 (cos psi, sin psi): the bound, along psi
        rng = np.random.default_rng(11)
        for psi in rng.uniform(0, TWO_PI, 100):
            p = project(saturating_response(float(psi)))
            expected = 4 * np.array([math.cos(psi), math.sin(psi)])
            np.testing.assert_allclose(p, expected, rtol=0, atol=1e-9)
            assert projection_norm(p) == pytest.approx(PROJECTION_NORM_BOUND, abs=1e-12)


class TestQuadratureInnerProduct:
    def test_squared_cosine_of_sum(self):
        fn = lambda a1, a2: np.cos(a1 + a2)
        assert quadrature_inner_product(fn, fn, 2, 32) == pytest.approx(
            2 * math.pi**2, rel=1e-13
        )

    def test_zero_integrand(self):
        fn = correlation_function(ghz_planar_tensor(2, 0.7))
        zero = lambda a1, a2: np.zeros(np.broadcast_shapes(np.shape(a1), np.shape(a2)))
        assert quadrature_inner_product(fn, zero, 2, 16) == 0.0

    def test_cos_sin_orthogonal(self):
        value = quadrature_inner_product(np.cos, np.sin, 1, 64)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_budget_guard(self):
        fn = correlation_function(ghz_planar_tensor(4, 0.5))
        message = r"64\^4 grid nodes exceed the budget of 1000000; raise max_evaluations$"
        with pytest.raises(BudgetError, match=message):
            quadrature_inner_product(fn, fn, 4, 64, max_evaluations=10**6)
        # at the budget the grid runs: 32^4 nodes
        assert quadrature_inner_product(fn, fn, 4, 32, max_evaluations=32**4) == pytest.approx(
            math.pi**4 * 0.25 * 8, rel=1e-12
        )

    @pytest.mark.parametrize(
        "budget", ["9", "1e8", True, False, np.bool_(True), math.nan, 0, -1, 0.0, -1e8, None]
    )
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(DomainError, match="max_evaluations must be a number > 0, got "):
            quadrature_inner_product(np.cos, np.cos, 1, 8, max_evaluations=budget)

    @pytest.mark.parametrize("budget", [8, 1e8, np.int64(8), np.float64(8.0), 8.5, math.inf])
    def test_accepts_int_and_float_budgets(self, budget):
        assert quadrature_inner_product(np.cos, np.cos, 1, 8, max_evaluations=budget) == pytest.approx(
            math.pi, rel=1e-14
        )

    def test_float_budget_still_guards(self):
        with pytest.raises(BudgetError, match=r"8\^2 grid nodes exceed the budget of 63.5"):
            quadrature_inner_product(np.cos, np.cos, 2, 8, max_evaluations=63.5)

    def test_node_count_floor(self):
        with pytest.raises(DomainError):
            quadrature_inner_product(np.cos, np.cos, 1, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_party_count_below_one(self, n):
        with pytest.raises(InvalidSizeError, match=f"n_parties must be >= 1, got {n}"):
            quadrature_inner_product(np.cos, np.cos, n, 8)
