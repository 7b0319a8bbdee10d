"""Kernel evaluation, sample representation, and the bandwidth heuristic."""

import math

import numpy as np
import pytest

from correntia import (
    KernelSpec,
    kernel_representation,
    linear_representation,
    median_bandwidth,
    represent_matrix,
)
from correntia.kernels import gram


class TestKernelEval:
    def test_rbf_zero_distance(self):
        spec = KernelSpec("rbf", 0.7)
        assert gram(spec, [1.0, 2.0], [1.0, 2.0])[0, 0] == 1.0

    def test_linear_dot_product(self):
        assert gram(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0])[0, 0] == 11.0

    def test_rbf_unit_distance(self):
        value = gram(KernelSpec("rbf", 1.0), [0.0], [1.0])[0, 0]
        assert value == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gram(KernelSpec("linear"), [1.0], [1.0, 2.0])

    def test_rbf_requires_positive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec("rbf", 0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec("rbf", math.nan)
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec("rbf")
        with pytest.raises(ValueError, match=r"1e-300 is too small: 2 \* 1e-300\*\*2 underflows"):
            KernelSpec("rbf", 1e-300)
        with pytest.raises(ValueError, match="underflows"):
            KernelSpec("rbf", 1.2e-162)  # 2.0 * 1.2e-162 * 1.2e-162 is not 0, but **2 is

    def test_rbf_tiny_bandwidth_gives_the_exact_limit_without_a_warning(self):
        # 2 * 1e-160**2 is subnormal, not 0: far points overflow the quotient to -inf
        values = gram(KernelSpec("rbf", 1e-160), [[0.0], [1.0]], [[0.0], [1.0]])
        np.testing.assert_array_equal(values, np.eye(2))


class TestRepresent:
    def test_linear_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(represent_matrix(x, linear_representation())[0], x)

    def test_rbf_at_anchor_gives_unit_entry(self):
        anchors = np.array([[0.0, 0.0], [1.0, 3.0], [2.0, -1.0]])
        rep = kernel_representation(anchors, KernelSpec("rbf", 1.5))
        out = represent_matrix(anchors[1], rep)[0]
        assert out.shape == (3,)
        assert out[1] == 1.0

    def test_linear_kernel_identity_anchors(self):
        rep = kernel_representation(np.eye(2), KernelSpec("linear"))
        np.testing.assert_allclose(represent_matrix(np.array([0.3, -0.7]), rep)[0], [0.3, -0.7])

    def test_anchor_representation_matches_gram_column(self):
        rng = np.random.default_rng(0)
        anchors = rng.standard_normal((12, 3))
        spec = KernelSpec("rbf", 0.9)
        rep = kernel_representation(anchors, spec)
        full = gram(spec, anchors, anchors)
        for i in range(12):
            np.testing.assert_allclose(represent_matrix(anchors[i], rep)[0], full[:, i], atol=1e-12)

    def test_dimension_mismatch(self):
        rep = kernel_representation(np.zeros((4, 3)), KernelSpec("rbf", 1.0))
        with pytest.raises(ValueError, match="dimension"):
            represent_matrix(np.zeros(2), rep)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kernel_mode_rejects_non_finite_samples(self, kind, bad):
        spec = KernelSpec(kind, 1.0 if kind == "rbf" else None)
        rep = kernel_representation(np.eye(2), spec)
        with pytest.raises(ValueError, match="row 2.*non-finite"):
            represent_matrix([[0.0, 1.0], [1.0, 0.0], [0.0, bad]], rep)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kernel_mode_rejects_non_finite_anchors(self, bad):
        # a NaN anchor would make every score NaN and an inf one every entry 0
        with pytest.raises(ValueError, match="^kernel anchors must be finite$"):
            kernel_representation([[0.0, 1.0], [bad, 0.0]], KernelSpec("rbf", 1.0))

    def test_kernel_mode_requires_anchors(self):
        with pytest.raises(ValueError, match="anchors"):
            kernel_representation(np.empty((0, 2)), KernelSpec("rbf", 1.0))


class TestGramProperties:
    def test_rbf_gram_symmetric_unit_diagonal_psd(self):
        rng = np.random.default_rng(2)
        for n in (5, 20, 50):
            points = rng.standard_normal((n, 4)) * rng.uniform(0.5, 2.0)
            spec = KernelSpec("rbf", median_bandwidth(points))
            K = gram(spec, points, points)
            np.testing.assert_allclose(K, K.T, atol=1e-14)
            np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-14)
            assert np.all(K > 0) and np.all(K <= 1)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestMedianBandwidth:
    def test_single_pair(self):
        assert median_bandwidth(np.array([[0.0], [3.0]])) == 3.0

    def test_identical_points_fall_back_to_one(self):
        assert median_bandwidth(np.zeros((4, 2))) == 1.0

    def test_three_point_median(self):
        # pairwise distances {1, 2, 3} -> median 2
        assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_row(self, bad):
        # its distances would make the median NaN, which fell back to 1.0
        with pytest.raises(ValueError, match="^row 2: non-finite sample value$"):
            median_bandwidth(np.array([[0.0, 1.0], [1.0, 0.0], [bad, 0.0], [2.0, 2.0]]))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_bandwidth(np.array([[1.0]]))


class TestRbfDivision:
    @pytest.mark.parametrize("bandwidth", [1e-160, 1e-3, 1.0, 1.5, 1e150])
    def test_bits_match_negate_then_divide(self, bandwidth, monkeypatch):
        # one division by -2 b^2 in place of a negation then a division by
        # 2 b^2; the quotients that overflow must stay silent, as before
        import scipy.spatial.distance

        rng = np.random.default_rng(9)
        distances = np.concatenate([
            [0.0, 5e-324, 1e-300, 1e300, np.inf], rng.exponential(1.0, 20000),
            10.0 ** rng.uniform(-320, 308, 20000),
        ]).reshape(-1, 5)
        monkeypatch.setattr(scipy.spatial.distance, "cdist", lambda *a, **k: distances.copy())
        spec = KernelSpec("rbf", bandwidth)
        kernel = gram(spec, np.zeros((1, 2)), np.zeros((1, 2)))
        with np.errstate(over="ignore"):
            expected = np.exp(np.divide(np.negative(distances), 2.0 * bandwidth**2))
        assert kernel.tobytes() == expected.tobytes()
