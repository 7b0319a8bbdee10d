"""Gaussian similarity, the correntropy estimator, and the training objective."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from correntia import (
    KernelSpec,
    SigmaPolicy,
    correntropy_estimate,
    g_sigma,
    label_indicator,
    objective,
    sigma_heuristic,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestGSigma:
    def test_unity_at_origin(self):
        for sigma in (0.1, 1.0, 17.0):
            assert g_sigma(0.0, sigma) == 1.0

    def test_value_at_one_sigma(self):
        assert g_sigma(2.5, 2.5) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_even_function(self):
        assert g_sigma(-1.3, 1.3) == g_sigma(1.3, 1.3)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            g_sigma(1.0, 0.0)
        with pytest.raises(ValueError):
            g_sigma(1.0, -2.0)
        with pytest.raises(ValueError):
            g_sigma(1.0, math.nan)

    def test_tiny_sigma_gives_the_exact_limit_without_a_warning(self):
        # 2 sigma^2 is subnormal here; -100 / 2e-320 overflows to -inf and exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g_sigma(10.0, 1e-160) == 0.0
            assert g_sigma(0.0, 1e-160) == 1.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: g_sigma(1.0, 1e-300), "sigma 1e-300 is too small"),
            (lambda: SigmaPolicy.fixed(1e-300), "fixed sigma 1e-300 is too small"),
            (lambda: SigmaPolicy.adaptive(1e-170), "sigma floor 1e-170 is too small"),
            (lambda: SigmaPolicy.fixed(1.0, floor=1e-300), "sigma floor 1e-300 is too small"),
        ],
    )
    def test_sigma_whose_square_underflows_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message + r": 2 \* 1e-\d+\*\*2 underflows to 0"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: g_sigma(1.0, math.inf), "sigma must be finite, got inf"),
            (lambda: SigmaPolicy.fixed(math.inf), "fixed sigma must be finite, got inf"),
            (lambda: SigmaPolicy.adaptive(math.inf), "sigma floor must be finite, got inf"),
            (lambda: KernelSpec("rbf", math.inf), "rbf kernel bandwidth must be finite, got inf"),
            # finite widths whose 2 * width**2 overflows, once Python's OverflowError
            (lambda: g_sigma(1.0, 1e200), "sigma 1e+200 is too large: 2 * 1e+200**2 overflows"),
            (lambda: SigmaPolicy.fixed(1e155),
             "fixed sigma 1e+155 is too large: 2 * 1e+155**2 overflows"),
            (lambda: SigmaPolicy.adaptive(1e200),
             "sigma floor 1e+200 is too large: 2 * 1e+200**2 overflows"),
            (lambda: KernelSpec("rbf", 1e200),
             "rbf kernel bandwidth 1e+200 is too large: 2 * 1e+200**2 overflows"),
        ],
    )
    def test_infinite_width_is_rejected(self, build, message):
        # an infinite width used to pass, making every Gaussian weight exactly 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @given(finite_floats, st.floats(min_value=2.0, max_value=20))
    def test_bounded_in_unit_interval(self, x, sigma):
        # sigma bounded away from 0 so exp stays inside the float64 range;
        # for |x/sigma| beyond ~38 the true positive value underflows to 0.0
        value = g_sigma(x, sigma)
        assert 0.0 < value <= 1.0

    @given(st.floats(min_value=0, max_value=20), st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=1.0, max_value=10))
    def test_strictly_decreasing_in_magnitude(self, x, bump, sigma):
        assert g_sigma(x + bump, sigma) < g_sigma(x, sigma)

    def test_vectorized(self):
        np.testing.assert_allclose(
            g_sigma(np.array([0.0, 1.0]), 1.0), [1.0, math.exp(-0.5)], atol=1e-15
        )


class TestCorrentropyEstimate:
    def test_identical_vectors(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(9)
        assert correntropy_estimate(a, a, 0.3) == 1.0

    def test_one_huge_residual(self):
        sigma = 0.7
        value = correntropy_estimate([0.0, 10 * sigma], [0.0, 0.0], sigma)
        assert value == pytest.approx((1.0 + math.exp(-50.0)) / 2.0, abs=1e-15)

    def test_residuals_at_one_sigma(self):
        value = correntropy_estimate([1.0, 1.0], [0.0, 0.0], 1.0)
        assert value == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            correntropy_estimate([1.0], [1.0, 2.0], 1.0)

    def test_empty_vectors(self):
        with pytest.raises(ValueError, match="empty"):
            correntropy_estimate([], [], 1.0)


class TestSigmaHeuristic:
    def test_perfect_fit_hits_floor(self):
        indicator = label_indicator([1, 2, 1], 2)
        assert sigma_heuristic(indicator, indicator, floor=1e-8) == 1e-8

    def test_single_cell(self):
        assert sigma_heuristic(np.array([[2.0]]), np.array([[1.0]])) == 0.5

    def test_two_cells(self):
        scores = np.array([[2.0, 2.0]])
        target = np.array([[1.0, -1.0]])  # residuals 1 and 3
        assert sigma_heuristic(scores, target) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sigma_heuristic(np.zeros((2, 2)), np.zeros((2, 3)))


class TestObjective:
    def test_perfect_fit_no_penalty(self):
        indicator = label_indicator([1, 2, 2], 2)
        weights = [np.zeros(3), np.zeros(3)]
        assert objective(indicator, indicator, weights, 1.0, 0.5) == 1.0

    def test_penalty_subtracts(self):
        indicator = label_indicator([1, 1], 1)
        value = objective(indicator, indicator, [np.array([1.0, 0.0])], 1.0, 0.5)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_alpha_zero_reduces_to_correntropy(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((3, 7))
        indicator = label_indicator(rng.integers(1, 4, 7), 3)
        value = objective(scores, indicator, [rng.standard_normal(2)] * 3, 0.8, 0.0)
        expected = correntropy_estimate(scores.ravel(), indicator.ravel(), 0.8)
        assert value == pytest.approx(expected, abs=1e-15)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((2, 10))
        indicator = label_indicator(rng.integers(1, 3, 10), 2)
        weights = [rng.standard_normal(4), rng.standard_normal(4)]
        perm = rng.permutation(10)
        a = objective(scores, indicator, weights, 1.0, 0.1)
        b = objective(scores[:, perm], indicator[:, perm], weights, 1.0, 0.1)
        assert a == pytest.approx(b, abs=1e-15)

    def test_monotone_in_single_residual(self):
        rng = np.random.default_rng(3)
        indicator = label_indicator(rng.integers(1, 3, 6), 2)
        scores = indicator + rng.standard_normal((2, 6)) * 0.3
        weights = [np.zeros(1), np.zeros(1)]
        base = objective(scores, indicator, weights, 1.0, 0.0)
        worse = scores.copy()
        worse[1, 3] = indicator[1, 3] + 5.0  # blow up one residual
        assert objective(worse, indicator, weights, 1.0, 0.0) <= base


class TestSigmaPolicy:
    def test_fixed_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            SigmaPolicy.fixed(0.0)
        with pytest.raises(ValueError):
            SigmaPolicy.fixed(math.nan)

    def test_adaptive_floor_validation(self):
        with pytest.raises(ValueError):
            SigmaPolicy.adaptive(floor=0.0)
        with pytest.raises(ValueError):
            SigmaPolicy.adaptive(floor=math.nan)

    def test_constructors(self):
        assert SigmaPolicy.fixed(2.0).mode == "fixed"
        assert SigmaPolicy.adaptive().mode == "adaptive"
