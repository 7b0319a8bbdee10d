"""Trainer internals: auxiliary update, weighted ridge step, training loop, model IO."""

import ast
import inspect
import json
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from correntia import (
    BaselineConfig,
    Dataset,
    DegenerateClassError,
    KernelSpec,
    Model,
    SigmaPolicy,
    SyntheticSpec,
    TrainConfig,
    child_seed,
    e_step,
    generate_synthetic,
    inject_label_noise,
    kernel_representation,
    label_indicator,
    linear_representation,
    load_model,
    m_step,
    make_rng,
    objective,
    predict_labels,
    represent_matrix,
    save_model,
    score_matrix,
    train,
    train_square,
)
from correntia import baselines, regmaxcem


def linear_model(weights, biases, class_map=None):
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    class_map = class_map or tuple(str(k + 1) for k in range(weights.shape[0]))
    return Model(
        weights=weights,
        biases=np.asarray(biases, dtype=float),
        representation=linear_representation(),
        sigma_final=1.0,
        class_map=class_map,
    )


def ridge_oracle(X, y, alpha):
    """Textbook ridge with unpenalized intercept via an augmented least-squares design.

    Solves min (1/N) sum (w @ x_i + b - y_i)^2 + alpha ||w||^2 by stacking
    sqrt(N * alpha) identity rows under the [X, 1] design.
    """
    n, d = X.shape
    design = np.hstack([X, np.ones((n, 1))])
    aug = np.vstack([design, np.hstack([np.sqrt(n * alpha) * np.eye(d), np.zeros((d, 1))])])
    target = np.concatenate([y, np.zeros(d)])
    sol, *_ = np.linalg.lstsq(aug, target, rcond=None)
    return sol[:d], sol[d]


class TestPredict:
    def test_bias_only_scores(self):
        model = linear_model(np.zeros((2, 3)), [0.3, -0.3])
        np.testing.assert_allclose(score_matrix(model, np.zeros(3))[0], [0.3, -0.3])

    def test_hand_dot_product(self):
        model = linear_model([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        assert score_matrix(model, np.array([2.0, 5.0]))[0, 0] == 2.0

    def test_linearity_in_input(self):
        rng = np.random.default_rng(0)
        model = linear_model(rng.standard_normal((3, 4)), np.zeros(3))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(
            score_matrix(model, 2 * x)[0], 2 * score_matrix(model, x)[0], atol=1e-12
        )

    def test_argmax_label(self):
        model = linear_model(np.zeros((2, 1)), [0.9, -0.5])
        assert predict_labels(model, np.zeros(1))[0] == 1

    def test_tie_breaks_to_smallest_index(self):
        model = linear_model(np.zeros((2, 1)), [0.4, 0.4])
        assert predict_labels(model, np.zeros(1))[0] == 1

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((3, 2))
        biases = rng.standard_normal(3)
        x = rng.standard_normal(2)
        perm = np.array([2, 0, 1])
        base = predict_labels(linear_model(weights, biases), x)[0]
        permuted = predict_labels(linear_model(weights[perm], biases[perm]), x)[0]
        assert perm[permuted - 1] + 1 == base

    def test_dimension_mismatch(self):
        model = linear_model(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            score_matrix(model, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_linear_sample_is_rejected(self, bad):
        model = linear_model([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        X = np.array([[0.5, 0.0], [bad, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="row 1.*non-finite"):
            score_matrix(model, X)
        with pytest.raises(ValueError, match="row 1.*non-finite"):
            predict_labels(model, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_sample_is_rejected(self, bad):
        anchors = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        rep = kernel_representation(anchors, KernelSpec("rbf", 1.0))
        model = Model(np.ones((2, 3)), [0.5, -0.5], rep, 1.0, ("1", "2"))
        with pytest.raises(ValueError, match="row 0.*non-finite"):
            predict_labels(model, [[bad, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "layout", ["c_order", "f_order", "column_slice", "one_sample", "no_rows"]
    )
    def test_scores_equal_matmul(self, layout):
        rng = np.random.default_rng(2)
        model = linear_model(rng.standard_normal((3, 5)), rng.standard_normal(3))
        wide = rng.standard_normal((40, 10))
        X = {
            "c_order": np.ascontiguousarray(wide[:, :5]),
            "f_order": np.asfortranarray(wide[:, :5]),
            "column_slice": wide[:, ::2],
            "one_sample": wide[0, :5],
            "no_rows": np.empty((0, 5)),
        }[layout]
        scores = score_matrix(model, X)
        expected = represent_matrix(X, model.representation) @ model.weights.T + model.biases
        assert scores.shape == expected.shape == (np.atleast_2d(X).shape[0], 3)
        assert scores.flags.c_contiguous
        np.testing.assert_array_equal(scores, expected)

    def test_kernel_scores_equal_matmul(self):
        rng = np.random.default_rng(3)
        anchors = rng.standard_normal((30, 2))
        rep = kernel_representation(anchors, KernelSpec("rbf", 1.0))
        model = Model(rng.standard_normal((3, 30)), rng.standard_normal(3), rep, 1.0, ("a", "b", "c"))
        X = rng.standard_normal((12, 2))
        scores = score_matrix(model, X)
        expected = represent_matrix(X, rep) @ model.weights.T + model.biases
        assert scores.shape == (12, 3)
        assert scores.flags.c_contiguous
        np.testing.assert_array_equal(scores, expected)

    def test_scores_do_not_depend_on_memory_order(self):
        # one layout reaches BLAS whatever the input's, so the rounding cannot follow it
        rng = np.random.default_rng(4)
        model = linear_model(rng.standard_normal((4, 60)), rng.standard_normal(4))
        wide = rng.standard_normal((50, 120))
        reference = score_matrix(model, np.ascontiguousarray(wide[:, ::2]))
        for X in (wide[:, ::2], np.asfortranarray(wide[:, ::2])):
            np.testing.assert_array_equal(score_matrix(model, X), reference)


class TestEStep:
    def test_zero_residuals_give_exact_minus_one(self):
        indicator = label_indicator([1, 2, 1], 2)
        aux = e_step(indicator, indicator, 0.5)
        np.testing.assert_array_equal(aux, -np.ones((2, 3)))

    def test_large_residual_downweighted(self):
        sigma = 0.4
        scores = np.array([[10 * sigma]])
        aux = e_step(scores, np.array([[0.0]]), sigma)
        assert aux[0, 0] == pytest.approx(-math.exp(-50.0), rel=1e-12)

    def test_sign_symmetric_in_residual(self):
        target = np.zeros((1, 2))
        scores = np.array([[0.8, -0.8]])
        aux = e_step(scores, target, 1.1)
        assert aux[0, 0] == aux[0, 1]

    def test_range_and_direct_evaluation(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((3, 20)) * 2
        indicator = label_indicator(rng.integers(1, 4, 20), 3)
        sigma = 0.9
        aux = e_step(scores, indicator, sigma)
        assert np.all(aux >= -1.0) and np.all(aux < 0.0)
        direct = np.array(
            [
                [-math.exp(-((scores[l, i] - indicator[l, i]) ** 2) / (2 * sigma**2)) for i in range(20)]
                for l in range(3)
            ]
        )
        np.testing.assert_allclose(aux, direct, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            e_step(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


def eq12_objective(aux, represented, indicator, alpha, weights, biases):
    """The dual minimization objective the weighted ridge step should minimize."""
    scores = weights @ represented + biases[:, None]
    num_classes = indicator.shape[0]
    data = np.mean(-aux * (scores - indicator) ** 2)
    return data + alpha / num_classes * float(np.sum(weights * weights))


def gemm_m_step(aux, represented, indicator, alpha):
    """The weighted ridge step as first written: per class, a general GEMM on
    the centered, u^2-weighted columns, then Cholesky (or lstsq at alpha = 0)."""
    num_classes, n = indicator.shape
    dim = represented.shape[0]
    weights = np.empty((num_classes, dim))
    biases = np.empty(num_classes)
    for l in range(num_classes):
        u_sq = -aux[l] / n
        total = u_sq.sum()
        x_mean = represented @ u_sq / total
        y_mean = indicator[l] @ u_sq / total
        centered = represented - x_mean[:, None]
        system = (centered * u_sq) @ centered.T
        rhs = (centered * u_sq) @ (indicator[l] - y_mean)
        if alpha > 0:
            w = cho_solve(cho_factor(system + alpha * np.eye(dim), lower=True), rhs)
        else:
            w, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        weights[l] = w
        biases[l] = y_mean - w @ x_mean
    return weights, biases


def longdouble_m_step(aux, represented, indicator, alpha):
    """The weighted ridge step in extended precision, without LAPACK: per
    class, the weighted normal equations solved by Gaussian elimination with
    partial pivoting in ``np.longdouble``, rounded to float64 at the end."""
    num_classes, n = indicator.shape
    columns = represented.astype(np.longdouble)
    weights = np.empty((num_classes, len(columns)))
    biases = np.empty(num_classes)
    for l in range(num_classes):
        u_sq = -aux[l].astype(np.longdouble) / n
        x_mean = (columns * u_sq).sum(axis=1) / u_sq.sum()
        y_mean = (indicator[l] * u_sq).sum() / u_sq.sum()
        centered = columns - x_mean[:, None]
        system = (centered * u_sq) @ centered.T + alpha * np.eye(len(columns), dtype=np.longdouble)
        rhs = (centered * u_sq) @ (indicator[l] - y_mean)
        for k in range(len(rhs)):  # forward elimination
            p = k + int(np.argmax(np.abs(system[k:, k])))
            system[[k, p]], rhs[[k, p]] = system[[p, k]], rhs[[p, k]]
            factors = system[k + 1:, k] / system[k, k]
            system[k + 1:, k:] -= factors[:, None] * system[k, k:]
            rhs[k + 1:] -= factors * rhs[k]
        w = np.empty_like(rhs)
        for k in reversed(range(len(rhs))):  # back substitution
            w[k] = (rhs[k] - system[k, k + 1:] @ w[k + 1:]) / system[k, k]
        weights[l] = w
        biases[l] = y_mean - (w * x_mean).sum()
    return weights, biases


def random_aux_and_indicator(rng, num_classes, n):
    indicator = label_indicator(rng.integers(1, num_classes + 1, n), num_classes)
    return -rng.uniform(0.05, 1.0, (num_classes, n)), indicator


def m_step_case(shape, offset, positive_scale):
    """(aux, represented, indicator): rbf columns of 200 points and 3 classes
    for ``"rbf-gram"``, else a ``(D', N, L)`` Gaussian matrix plus ``offset``;
    the positive samples' weights are scaled by ``positive_scale``."""
    rng = np.random.default_rng(13)
    if shape == "rbf-gram":
        points = rng.standard_normal((200, 2))
        rep = kernel_representation(points, KernelSpec("rbf", 1.0))
        represented, num_classes = represent_matrix(points, rep).T, 3
    else:
        dim, n, num_classes = shape
        represented = rng.standard_normal((dim, n)) + offset
    aux, indicator = random_aux_and_indicator(rng, num_classes, represented.shape[1])
    return np.where(indicator > 0, positive_scale * aux, aux), represented, indicator


class TestMStep:
    def test_two_sample_hand_case(self):
        represented = np.array([[1.0, -1.0]])
        indicator = np.array([[1.0, -1.0]])
        weights, biases = m_step(-np.ones((1, 2)), represented, indicator, alpha=0.5)
        assert weights[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert biases[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_weights_alpha_zero_match_ols(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 3))
        y = np.sign(rng.standard_normal(12))
        weights, biases = m_step(
            -np.ones((1, 12)), X.T, y[None, :], alpha=0.0
        )
        w_ols, b_ols = ridge_oracle(X, y, 0.0)
        np.testing.assert_allclose(weights[0], w_ols, atol=1e-8)
        assert biases[0] == pytest.approx(b_ols, abs=1e-8)

    def test_uniform_weights_match_ridge_oracle(self):
        rng = np.random.default_rng(4)
        for alpha in (0.01, 0.3, 2.0):
            X = rng.standard_normal((15, 4))
            y = np.sign(rng.standard_normal(15))
            weights, biases = m_step(-np.ones((1, 15)), X.T, y[None, :], alpha=alpha)
            w_ref, b_ref = ridge_oracle(X, y, alpha)
            np.testing.assert_allclose(weights[0], w_ref, atol=1e-8)
            assert biases[0] == pytest.approx(b_ref, abs=1e-8)

    def test_vanishing_weight_equals_deletion(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        y = np.sign(rng.standard_normal(6))
        aux = -np.ones((1, 6))
        aux[0, 2] = -1e-30
        w_full, b_full = m_step(aux, X.T, y[None, :], alpha=0.0)
        keep = [0, 1, 3, 4, 5]
        w_del, b_del = m_step(-np.ones((1, 5)), X[keep].T, y[keep][None, :], alpha=0.0)
        np.testing.assert_allclose(w_full, w_del, atol=1e-6)
        assert b_full[0] == pytest.approx(b_del[0], abs=1e-6)

    @pytest.mark.parametrize("dim", [3, 400], ids=["tall", "wide"])
    def test_constant_targets_give_exactly_that_bias_and_zero_weights(self, dim):
        # the weighted mean of a constant row is that constant, so its class
        # fits w = 0 and b = the constant exactly, in both forms; the other
        # rows get the bits they get beside rows that are not constant
        rng = np.random.default_rng(21)
        for n in (25, 40, 300):
            represented = rng.standard_normal((dim, n)) + 5.0
            aux, indicator = random_aux_and_indicator(rng, 2, n)
            indicator = np.vstack([indicator, np.full((3, n), [[-1.0], [0.1], [3.0]])])
            aux = np.vstack([aux, -rng.uniform(0.05, 1.0, (3, n))])
            weights, biases = m_step(aux, represented, indicator, 0.05)
            assert np.all(weights[2:] == 0.0)
            assert biases[2:].tolist() == [-1.0, 0.1, 3.0]
            varied = indicator.copy()
            varied[2:, 0] += 1.0
            beside = m_step(aux, represented, varied, 0.05)
            assert np.all(beside[0][2:] != 0.0)
            np.testing.assert_array_equal(weights[:2], beside[0][:2])
            np.testing.assert_array_equal(biases[:2], beside[1][:2])

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_constant_wide_columns_fit_zero_weights(self, alpha):
        # the shifted columns are all zero, so no direction passes the rank cut
        indicator = label_indicator([1, 2, 1], 2)
        weights, biases = m_step(-np.ones((2, 3)), np.full((5, 3), 7.0), indicator, alpha)
        assert np.all(weights == 0.0)
        np.testing.assert_allclose(biases, [1.0 / 3.0, -1.0 / 3.0], rtol=1e-15)

    @pytest.mark.parametrize("dim", [2, 6], ids=["tall", "wide"])
    def test_degenerate_class_error_names_class(self, dim):
        aux = -np.ones((3, 4))
        aux[1] = -1e-40
        with pytest.raises(DegenerateClassError, match="class 2"):
            m_step(aux, np.random.default_rng(6).standard_normal((dim, 4)), label_indicator([1, 2, 3, 1], 3), 0.1)

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 5))
            num_classes = int(rng.integers(1, 4))
            alpha = float(rng.choice([0.0, 0.05, 1.0]))
            represented = rng.standard_normal((d, n))
            indicator = label_indicator(rng.integers(1, num_classes + 1, n), num_classes)
            aux = -rng.uniform(0.05, 1.0, (num_classes, n))
            weights, biases = m_step(aux, represented, indicator, alpha)
            base = eq12_objective(aux, represented, indicator, alpha, weights, biases)
            h = 1e-5
            for l in range(num_classes):
                for j in range(d):
                    up, down = weights.copy(), weights.copy()
                    up[l, j] += h
                    down[l, j] -= h
                    grad = (
                        eq12_objective(aux, represented, indicator, alpha, up, biases)
                        - eq12_objective(aux, represented, indicator, alpha, down, biases)
                    ) / (2 * h)
                    assert abs(grad) <= 1e-6 * (1 + abs(base))
                up, down = biases.copy(), biases.copy()
                up[l] += h
                down[l] -= h
                grad = (
                    eq12_objective(aux, represented, indicator, alpha, weights, up)
                    - eq12_objective(aux, represented, indicator, alpha, weights, down)
                ) / (2 * h)
                assert abs(grad) <= 1e-6 * (1 + abs(base))

    @pytest.mark.parametrize(
        "shape, alpha, offset, positive_scale",
        [
            pytest.param((50, 2000, 10), 0.01, 0.0, 1.0, id="tall-linear"),
            # the feature-space form builds its system from raw moments of the
            # shifted columns, so a large common offset must not cancel either
            pytest.param((50, 2000, 10), 0.01, 1e4, 1.0, id="tall-offset"),
            # its right-hand side subtracts the rounded (exactly zero) row sum;
            # without that, rounding noise swamps a down-weighted class
            pytest.param((50, 2000, 10), 0.01, 0.0, 1e-12, id="tall-down-weighted"),
            pytest.param("rbf-gram", 0.01, 0.0, 1.0, id="square-kernel"),
            pytest.param((40, 25, 3), 0.1, 0.0, 1.0, id="wide"),
            pytest.param((6, 300, 4), 0.0, 0.0, 1.0, id="alpha-zero"),
            # the D' >= N form shifts the columns before it factors them, so a
            # large common offset must not cancel away the centered values
            pytest.param((40, 25, 3), 0.1, 1e4, 1.0, id="wide-offset"),
            pytest.param((40, 25, 3), 0.0, 0.0, 1.0, id="wide-alpha-zero"),
            # every positive sample down-weighted, as in a class about to be
            # absorbed: w is then a small difference of large terms
            pytest.param((40, 25, 3), 0.1, 0.0, 1e-12, id="wide-down-weighted"),
        ],
    )
    def test_matches_gemm_formula(self, shape, alpha, offset, positive_scale):
        aux, represented, indicator = m_step_case(shape, offset, positive_scale)
        weights, biases = m_step(aux, represented, indicator, alpha)
        w_ref, b_ref = gemm_m_step(aux, represented, indicator, alpha)
        np.testing.assert_allclose(weights, w_ref, rtol=1e-10)
        np.testing.assert_allclose(biases, b_ref, rtol=1e-10)

    @pytest.mark.parametrize(
        "shape, alpha, positive_scale",
        [
            pytest.param("rbf-gram", 0.01, 1.0, id="square-kernel"),
            pytest.param((40, 25, 3), 0.1, 1e-12, id="wide-down-weighted"),
        ],
    )
    def test_matches_extended_precision_oracle(self, shape, alpha, positive_scale):
        # the D' >= N form drops the directions below its rank cut; a cut at
        # 660 eps |R_11| instead of max(D', N) eps |R_11| misses by 2.4e-10
        aux, represented, indicator = m_step_case(shape, 0.0, positive_scale)
        weights, biases = m_step(aux, represented, indicator, alpha)
        w_ref, b_ref = longdouble_m_step(aux, represented, indicator, alpha)
        np.testing.assert_allclose(weights, w_ref, rtol=1e-10)
        np.testing.assert_allclose(biases, b_ref, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_inputs_untouched_read_only_and_order_free(self, alpha):
        rng = np.random.default_rng(14)
        represented = rng.standard_normal((5, 40))
        aux, indicator = random_aux_and_indicator(rng, 3, 40)
        copies = [a.copy() for a in (aux, represented, indicator)]
        for a in (aux, represented, indicator):
            a.setflags(write=False)
        weights, biases = m_step(aux, represented, indicator, alpha)
        for a, before in zip((aux, represented, indicator), copies):
            assert a.tobytes() == before.tobytes()
        for layout in (np.ascontiguousarray(copies[1]), np.asfortranarray(copies[1])):
            w, b = m_step(aux, layout, indicator, alpha)
            np.testing.assert_array_equal(w, weights)
            np.testing.assert_array_equal(b, biases)

    @pytest.mark.parametrize("dim", [3, 30], ids=["tall", "wide"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("name", ["aux", "represented", "indicator"])
    def test_non_finite_input_is_named(self, name, alpha, dim, capfd):
        rng = np.random.default_rng(16)
        args = {"represented": rng.standard_normal((dim, 20))}
        args["aux"], args["indicator"] = random_aux_and_indicator(rng, 2, 20)
        args[name][1, 3] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            m_step(alpha=alpha, **args)
        assert capfd.readouterr().err == ""  # no LAPACK parameter complaints

    @pytest.mark.parametrize("dim", [3, 30], ids=["tall", "wide"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_overflowing_system_is_named(self, alpha, dim, capfd):
        # finite features whose squares overflow: the factorization skips its
        # own finiteness scan, so the system must be checked before it
        rng = np.random.default_rng(19)
        aux, indicator = random_aux_and_indicator(rng, 2, 20)
        with pytest.raises(FloatingPointError, match="^class 1: the weighted ridge system overflowed"):
            m_step(aux, 1e200 * rng.standard_normal((dim, 20)), indicator, alpha)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("value, text", [(0.5, "0.5"), (1e-300, "1e-300")])
    def test_positive_aux_entry_rejected(self, value, text):
        rng = np.random.default_rng(17)
        aux, indicator = random_aux_and_indicator(rng, 2, 20)
        aux[1, 7] = value
        with pytest.raises(ValueError, match=f"^aux entries must be <= 0, got {text} in class 2$"):
            m_step(aux, rng.standard_normal((3, 20)), indicator, 0.1)

    @pytest.mark.parametrize("dim", [2, 6], ids=["tall", "wide"])
    def test_first_degenerate_class_is_named(self, dim):
        aux = -np.ones((3, 4))
        aux[1:] = -1e-40
        with pytest.raises(DegenerateClassError, match="class 2") as info:
            m_step(aux, np.random.default_rng(6).standard_normal((dim, 4)), label_indicator([1, 2, 3, 1], 3), 0.1)
        assert info.value.class_index == 2

    @pytest.mark.parametrize("n, copies", [(40, 1)], ids=["tall"])
    def test_near_singular_system_raises_floating_point_error(self, n, copies):
        # rank-one features: 3 columns for 40 rows
        x = np.random.default_rng(15).standard_normal(n)
        ds = Dataset(np.stack([x, 2 * x, x] * copies, axis=1), np.array([1, 2] * (n // 2)), 2)
        with pytest.raises(FloatingPointError, match="class 1.*larger alpha"):
            train(ds, TrainConfig(alpha=1e-20))

    def test_rank_deficient_wide_features_fit_their_numerical_range(self):
        # rank-one features, 12 columns for 10 rows: the rank cut keeps one
        # direction, so the fit is the one on the distinct column scaled by
        # sqrt(24), the norm of (1, 2, 1) * 4, with the minimum-norm weights.
        # A cut at eps |R_11| alone keeps a rounding direction too (R_22 is
        # 1.35 eps |R_11| here) and gives weights of about 2e4, same scores.
        x = np.random.default_rng(15).standard_normal(10)
        labels = np.array([1, 2] * 5)
        ds = Dataset(np.stack([x, 2 * x, x] * 4, axis=1), labels, 2)
        model, _ = train(ds, TrainConfig(alpha=1e-20))
        scaled = math.sqrt(24.0) * x[:, None]
        line, _ = train(Dataset(scaled, labels, 2), TrainConfig(alpha=1e-20))
        np.testing.assert_allclose(
            score_matrix(model, ds.features), score_matrix(line, scaled), rtol=0, atol=1e-9
        )
        direction = np.array([1.0, 2.0, 1.0] * 4) / math.sqrt(24.0)
        np.testing.assert_allclose(model.weights, line.weights * direction, rtol=1e-12)
        np.testing.assert_allclose(model.weights[0, :3], [-0.02839, -0.05678, -0.02839], rtol=1e-3)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_precomputed_gram_changes_nothing(self, alpha):
        # columns prepared once per fit, reduced to their numerical range when
        # D' >= N, give the bits that m_step gets by preparing them itself
        rng = np.random.default_rng(18)
        for dim in (5, 30):
            represented = rng.standard_normal((dim, 20)) + 3.0
            aux, indicator = random_aux_and_indicator(rng, 3, 20)
            represented.setflags(write=False)
            columns = regmaxcem.prepare_columns(represented)
            assert (columns.basis is None) == (dim < 20)
            assert columns.shape == (dim, 20)
            for a in (columns.offset, columns.coords, columns.basis):
                assert a is None or not a.flags.writeable  # shared by every round of a fit
            given = m_step(aux, represented, indicator, alpha, columns=columns)
            built = m_step(aux, represented, indicator, alpha)
            for a, b in zip(given, built):
                np.testing.assert_array_equal(a, b)
            other = regmaxcem.prepare_columns(represented[:, 1:])
            message = rf"columns were prepared for shape \({dim}, 19\), expected \({dim}, 20\)"
            with pytest.raises(ValueError, match=message):
                m_step(aux, represented, indicator, alpha, columns=other)

    def test_prepare_columns_keeps_the_numerical_range(self):
        # rank-3 columns (30 x 20) plus an offset: the shifted columns keep 3
        # orthonormal directions, and the offset is kept in the same basis
        rng = np.random.default_rng(22)
        represented = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 20)) + 5.0
        columns = regmaxcem.prepare_columns(represented)
        basis, mean = columns.basis, represented.mean(axis=1)
        assert basis.shape == (30, 3) and columns.coords.shape == (3, 20)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), rtol=0, atol=1e-15)
        np.testing.assert_allclose(basis @ columns.coords, represented - mean[:, None], atol=1e-13)
        np.testing.assert_allclose(columns.offset, basis.T @ mean, rtol=1e-14)

    def test_symmetric_gram_keeps_a_range_within_the_cut(self, monkeypatch):
        # an rbf Gram is reduced on the columns a pivoted Cholesky picks, whose
        # basis is one compact-WY QR (dgeqrt, then dgemqrt on the identity's
        # first r columns), with no pivoted QR; every shifted column is kept
        # to within the QR's cut, max(D', N) eps times the largest shifted
        # column norm
        assert "dgeqrf" not in vars(regmaxcem)
        counts = count_calls(monkeypatch, "dpstrf", "dgeqrt", "dgemqrt", "dorgqr", "dgeqp3")
        points = np.random.default_rng(23).standard_normal((200, 2))
        rep = kernel_representation(points, KernelSpec("rbf", 1.0))
        gram = represent_matrix(points, rep).T
        columns = regmaxcem.prepare_columns(gram)
        assert counts == {"dpstrf": 1, "dgeqrt": 1, "dgemqrt": 1, "dorgqr": 0, "dgeqp3": 0}
        basis, coords, mean = columns.basis, columns.coords, gram.mean(axis=1)
        rank = len(coords)
        assert rank < 200 and basis.shape == (200, rank) and coords.shape == (rank, 200)
        np.testing.assert_allclose(basis.T @ basis, np.eye(rank), rtol=0, atol=1e-14)
        shifted = gram - mean[:, None]
        lost = np.linalg.norm(shifted - basis @ coords, axis=0)
        assert lost.max() <= 200 * np.finfo(np.float64).eps * np.linalg.norm(shifted, axis=0).max()
        np.testing.assert_allclose(columns.offset, basis.T @ mean, rtol=1e-14)

    @pytest.mark.parametrize(
        "case, cholesky_runs",
        [("exchange-7", 1), ("exchange-8", 1), ("b-plus-bt", 1), ("not-symmetric", 0)],
    )
    def test_indefinite_or_non_symmetric_square_keeps_the_pivoted_qr(
        self, case, cholesky_runs, monkeypatch
    ):
        # A pivoted Cholesky's columns miss an indefinite matrix's range (the
        # exchange matrix stops at rank 1 for odd N and at rank 0 for even N),
        # and a non-symmetric matrix is never given to it (its lower triangle
        # here is positive definite, so the Cholesky would keep all of it).
        # Each takes one column-pivoted QR, with the bits it always had.
        rng = np.random.default_rng(24)
        if case.startswith("exchange"):
            represented = np.eye(int(case[-1]))[::-1]
        elif case == "b-plus-bt":
            b = rng.standard_normal((12, 12))
            represented = b + b.T
        else:
            m = rng.standard_normal((12, 12))
            represented = m @ m.T + 12.0 * np.eye(12)
            represented[0, 5] += 1.0
        counts = count_calls(monkeypatch, "dpstrf", "dgeqp3")
        columns = regmaxcem.prepare_columns(represented)
        assert counts == {"dpstrf": cholesky_runs, "dgeqp3": 1}
        represented = np.asfortranarray(represented)
        mean = represented.mean(axis=1)
        basis, coords = regmaxcem._numerical_range(represented - mean[:, None])
        np.testing.assert_array_equal(columns.basis, basis)
        np.testing.assert_array_equal(columns.coords, coords)
        np.testing.assert_array_equal(columns.offset, regmaxcem.dgemv(1.0, basis, mean, trans=1))

    def test_prepare_columns_rejects_non_finite(self):
        represented = np.ones((3, 4))
        represented[2, 1] = np.inf
        with pytest.raises(ValueError, match="^represented must be finite$"):
            regmaxcem.prepare_columns(represented)

    @pytest.mark.parametrize("alpha", [1e-3, 0.5])
    def test_lapack_solve_equals_cho_solve(self, alpha):
        # dpotrf/dpotrs are what cho_factor/cho_solve wrap: equal bit for bit
        rng = np.random.default_rng(20)
        a = rng.standard_normal((12, 30))
        system = np.asfortranarray(a @ a.T)
        rhs = rng.standard_normal(12)
        expected = cho_solve(cho_factor(system + alpha * np.eye(12), lower=True), rhs)
        np.testing.assert_array_equal(regmaxcem._ridge_solve(system, rhs, alpha, 0), expected)

    def test_system_not_positive_definite_names_the_class(self):
        system = np.asfortranarray(-np.eye(4))
        with pytest.raises(
            FloatingPointError, match="^class 3: the weighted ridge system is not positive definite"
        ):
            regmaxcem._ridge_solve(system, np.ones(4), 0.5, 2)

    @pytest.mark.parametrize("trainer", ["train", "train_logistic"])
    def test_trainers_reject_non_finite_represented(self, trainer, monkeypatch):
        # Dataset rejects non-finite features, so poison the representation step
        def poisoned(X, rep):
            represented = np.array(X, dtype=np.float64)
            represented[3, 0] = np.nan
            return represented

        module = regmaxcem if trainer == "train" else baselines
        monkeypatch.setattr(module, "represent_matrix", poisoned)
        ds = two_blob_dataset(seed=8)
        with pytest.raises(ValueError, match="^represented must be finite$"):
            if trainer == "train":
                train(ds, TrainConfig())
            else:
                baselines.train_logistic(ds, linear_representation(), BaselineConfig())

    def test_infinite_alpha_rejected(self):
        rng = np.random.default_rng(21)
        aux, indicator = random_aux_and_indicator(rng, 2, 10)
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            m_step(aux, rng.standard_normal((3, 10)), indicator, math.inf)
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            TrainConfig(alpha=math.inf)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match=f"^max_iters must be an integer, got {value!r}$"):
            TrainConfig(max_iters=value)

    @pytest.mark.parametrize(
        "field, message",
        [("alpha", "alpha must be >= 0"), ("max_iters", "max_iters must be >= 1"),
         ("tol", "tol must be >= 0")],
    )
    def test_nan_config_value_rejected(self, field, message):
        # NaN fails every comparison, so each check must be written to fail on it
        with pytest.raises(ValueError, match=f"{message}, got nan"):
            TrainConfig(**{field: math.nan})


def count_calls(monkeypatch, *names):
    """Count calls to the named BLAS and LAPACK routines as ``regmaxcem``
    binds them; a LAPACK workspace query (``lwork=-1``) is not counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(regmaxcem, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += kwargs.get("lwork") != -1
            return _real(*args, **kwargs)

        monkeypatch.setattr(regmaxcem, name, counting)
    return counts


def two_blob_dataset(seed=0, n_per_class=30, gap=4.0):
    rng = np.random.default_rng(seed)
    features = np.concatenate(
        [rng.standard_normal(n_per_class) + gap / 2, rng.standard_normal(n_per_class) - gap / 2]
    )[:, None]
    labels = np.array([1] * n_per_class + [2] * n_per_class)
    return Dataset(features, labels, 2)


class TestTrain:
    def test_single_round_equals_square_baseline(self):
        ds = two_blob_dataset(seed=1)
        cfg = TrainConfig(alpha=0.05, max_iters=1, tol=0.0, sigma_policy=SigmaPolicy.fixed(1.0))
        model, _ = train(ds, cfg)
        baseline = train_square(ds, linear_representation(), 0.05)
        np.testing.assert_allclose(model.weights, baseline.weights, atol=1e-12)
        np.testing.assert_allclose(model.biases, baseline.biases, atol=1e-12)

    def test_separable_data_reaches_perfect_training_accuracy(self):
        ds = two_blob_dataset(seed=2, gap=8.0)
        cfg = TrainConfig(alpha=0.01, max_iters=20, sigma_policy=SigmaPolicy.fixed(1.0))
        model, _ = train(ds, cfg)
        assert np.mean(predict_labels(model, ds.features) == ds.labels) == 1.0

    def test_infinite_tol_stops_after_one_round(self):
        ds = two_blob_dataset(seed=3)
        cfg = TrainConfig(max_iters=50, tol=math.inf, trace=True)
        _, trace = train(ds, cfg)
        assert len(trace.records) == 1

    def test_trace_disabled_by_default(self):
        ds = two_blob_dataset(seed=4)
        _, trace = train(ds, TrainConfig(max_iters=3))
        assert trace.records == ()

    def test_fixed_sigma_objective_never_decreases(self):
        ds = two_blob_dataset(seed=5)
        cfg = TrainConfig(
            alpha=0.1, max_iters=25, tol=0.0, sigma_policy=SigmaPolicy.fixed(0.5), trace=True
        )
        _, trace = train(ds, cfg)
        objectives = trace.objectives
        assert len(objectives) == 25
        for prev, cur in zip(objectives, objectives[1:]):
            assert cur >= prev - 1e-10 * max(1.0, abs(prev))

    def test_final_objective_at_least_first(self):
        ds = two_blob_dataset(seed=6)
        cfg = TrainConfig(alpha=0.02, max_iters=15, tol=0.0, sigma_policy=SigmaPolicy.fixed(1.0), trace=True)
        model, trace = train(ds, cfg)
        assert trace.objectives[-1] >= trace.objectives[0] - 1e-12
        scores = score_matrix(model, ds.features).T
        value = objective(scores, label_indicator(ds.labels, 2), model.weights, 1.0, 0.02)
        assert value == pytest.approx(trace.objectives[-1], abs=1e-12)

    def test_adaptive_sigma_recorded(self):
        ds = two_blob_dataset(seed=7)
        model, trace = train(ds, TrainConfig(max_iters=10, trace=True))
        assert model.sigma_final == trace.records[-1].sigma
        assert all(r.sigma > 0 for r in trace.records)

    def test_absorbed_classes_stay_absorbed(self):
        # The smallest linear fit probed (L=10, D=10, 10 rows per class, 20 %
        # label noise) in which adaptive sigma absorbs every class: the
        # weights are rounding-sized and the near-tied biases pick class 3
        # for every row.  A weight update whose rounding grows past that
        # would change the labels without fixing the collapse.
        num_classes, dim = 10, 10
        corners = np.eye(num_classes, dim) - np.eye(num_classes, dim).mean(axis=0)
        rotation, _ = np.linalg.qr(make_rng(0).standard_normal((dim, dim)))
        means = tuple(map(tuple, 5.0 / math.sqrt(2.0) * corners @ rotation))
        clean = generate_synthetic(SyntheticSpec(means, 1.0, 10, child_seed(0, 1)))
        ds = inject_label_noise(clean, 0.2, child_seed(0, 3))
        model, _ = train(ds, TrainConfig(alpha=0.01, max_iters=20, tol=0.0))
        assert np.max(np.abs(model.weights)) < 1e-18
        np.testing.assert_array_equal(predict_labels(model, ds.features), np.full(100, 3))

    def test_products_run_on_scipy_blas(self, monkeypatch):
        # numpy and scipy each load their own BLAS; a product left on numpy's
        # makes the two thread pools compete for the CPUs
        counts = count_calls(monkeypatch, "dgemm", "dgemv", "dsyrk", "dsyr")
        ds = two_blob_dataset(seed=8)
        model, _ = train(ds, TrainConfig(max_iters=3, tol=0.0))
        # per round: class means, every class's right-hand side and scores by
        # dgemm; per class, one dsyrk of raw moments and one dsyr centering
        assert counts == {"dgemm": 9, "dgemv": 0, "dsyrk": 6, "dsyr": 6}
        score_matrix(model, ds.features)
        assert counts == {"dgemm": 10, "dgemv": 0, "dsyrk": 6, "dsyr": 6}

    def test_kernel_fit_builds_one_gram(self, monkeypatch):
        # a kernel Gram is symmetric: its range is found once per fit from the
        # columns a pivoted Cholesky picks, and each class of each round
        # solves on the shifted columns' r coordinates, which also score it
        names = (
            "dgemm", "dgemv", "dsyrk", "dsyr", "dpstrf", "dgeqrt", "dgemqrt", "dorgqr", "dgeqp3",
        )
        counts = count_calls(monkeypatch, *names)
        ds = two_blob_dataset(seed=8)
        rep = kernel_representation(ds.features, KernelSpec("rbf", 1.0))
        cfg = TrainConfig(max_iters=3, tol=0.0, representation=rep)
        train(ds, cfg)
        # per fit: the pivots, a compact-WY QR of the picked columns and its
        # basis, two dgemm for the coordinates and the residual, one dgemv
        # for the offset's coordinates, and no pivoted QR; per round: class
        # means, right-hand sides, the map back to the weights and the scores
        # from the coordinates by dgemm, and the scores' shift v offset by
        # dgemv; per class, one dsyrk and one dsyr
        expected = {
            "dgemm": 14, "dgemv": 4, "dsyrk": 6, "dsyr": 6,
            "dpstrf": 1, "dgeqrt": 1, "dgemqrt": 1, "dorgqr": 0, "dgeqp3": 0,
        }
        assert counts == expected
        train(ds, cfg)
        assert counts == {name: 2 * count for name, count in expected.items()}

    def test_kernel_rounds_score_from_the_coordinates(self, monkeypatch):
        # every kernel round scores v c_i + (v offset + b) on the r x N
        # coordinates; that equals w x_i + b on the N x N Gram to within
        # 1e-12 of the largest score, on an orthonormal basis
        updates, scored = [], []
        real_m_step, real_e_step = regmaxcem.m_step, regmaxcem.e_step

        def recording_m_step(*args, **kwargs):
            updates.append(real_m_step(*args, **kwargs))
            return updates[-1]

        def recording_e_step(scores, indicator, sigma):
            scored.append(scores)
            return real_e_step(scores, indicator, sigma)

        monkeypatch.setattr(regmaxcem, "m_step", recording_m_step)
        monkeypatch.setattr(regmaxcem, "e_step", recording_e_step)
        rng = np.random.default_rng(25)
        angles = 2.0 * np.pi * np.arange(3) / 3
        means = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        features = np.repeat(means, 60, axis=0) + rng.standard_normal((180, 2))
        ds = Dataset(features, np.repeat([1, 2, 3], 60), 3)
        rep = kernel_representation(ds.features, KernelSpec("rbf", 1.0))
        train(ds, TrainConfig(max_iters=5, tol=0.0, representation=rep))
        gram = represent_matrix(ds.features, rep).T
        basis = regmaxcem.prepare_columns(gram).basis
        rank = basis.shape[1]
        assert rank < 180
        np.testing.assert_allclose(basis.T @ basis, np.eye(rank), rtol=0, atol=1e-14)
        assert len(updates) == len(scored) == 5
        for (weights, biases), scores in zip(updates, scored):
            expected = weights @ gram + biases[:, None]
            assert np.abs(scores - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_no_matrix_product_runs_on_numpy(self):
        # Every N x N (or D' x D') product goes through scipy's BLAS; numpy's
        # own products are left only for a batched row dot and one vector dot
        # per class.  Both libraries threading at once would contend for CPUs.
        tree = ast.parse(inspect.getsource(regmaxcem))
        products = {
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        }
        assert products == {"indicator[:, None, :] @ u_sq[:, :, None]", "w @ x_means[:, l]"}
        numpy_products = {"dot", "matmul", "einsum", "inner", "outer", "tensordot", "vdot"}
        assert not [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in numpy_products
        ]

    def test_logistic_newton_steps_share_scipy_blas_and_one_gram(self, monkeypatch):
        # the logistic baseline's scores and gradients run on scipy's BLAS too,
        # and its kernel Newton steps solve on one range per fit, from one
        # pivoted Cholesky, one compact-WY QR and no pivoted QR
        tree = ast.parse(inspect.getsource(baselines.train_logistic))
        numpy_products = {"dot", "matmul", "einsum", "inner", "outer", "tensordot", "vdot"}
        assert not [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Attribute) and node.attr in numpy_products
        ]
        counts = count_calls(monkeypatch, "dpstrf", "dgeqrt", "dgemqrt", "dorgqr", "dgeqp3")
        ds = two_blob_dataset(seed=8)
        rep = kernel_representation(ds.features, KernelSpec("rbf", 1.0))
        baselines.train_logistic(ds, rep, BaselineConfig(max_iters=20, tol=0.0))
        assert counts == {"dpstrf": 1, "dgeqrt": 1, "dgemqrt": 1, "dorgqr": 0, "dgeqp3": 0}


class TestEvaluateObjective:
    """The training objective evaluated on a trained model's own scores."""

    def test_perfect_single_class_predictor(self):
        ds = Dataset(np.zeros((4, 1)), np.ones(4, dtype=int), 1)
        model = linear_model(np.zeros((1, 1)), [1.0], class_map=("1",))
        scores = score_matrix(model, ds.features).T
        assert objective(scores, label_indicator(ds.labels, 1), model.weights, 1.0, 0.7) == 1.0

    def test_penalty_additivity(self):
        ds = two_blob_dataset(seed=8)
        model, _ = train(ds, TrainConfig(max_iters=5))
        scores = score_matrix(model, ds.features).T
        indicator = label_indicator(ds.labels, 2)
        with_pen = objective(scores, indicator, model.weights, 1.0, 0.25)
        without = objective(scores, indicator, model.weights, 1.0, 0.0)
        expected_drop = 0.25 / 2 * float(np.sum(model.weights**2))
        assert without - with_pen == pytest.approx(expected_drop, abs=1e-12)


class TestModelSerialization:
    def test_linear_roundtrip_bit_identical(self, tmp_path):
        ds = two_blob_dataset(seed=9)
        model, _ = train(ds, TrainConfig(max_iters=8))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        X = np.random.default_rng(10).standard_normal((20, 1))
        np.testing.assert_array_equal(score_matrix(model, X), score_matrix(loaded, X))
        assert loaded.class_map == model.class_map
        assert loaded.sigma_final == model.sigma_final

    def test_kernel_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((18, 2))
        labels = np.array([1, 2] * 9)
        ds = Dataset(features, labels, 2)
        rep = kernel_representation(features, KernelSpec("rbf", 1.3))
        model, _ = train(ds, TrainConfig(max_iters=6, representation=rep))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        X = rng.standard_normal((7, 2))
        np.testing.assert_array_equal(score_matrix(model, X), score_matrix(loaded, X))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"something": 1}')
        with pytest.raises(ValueError, match="not a correntia model"):
            load_model(path)

    def test_loads_version_1_file_exactly(self, tmp_path):
        # the version-1 layout save_model writes; these bytes must keep loading
        path = tmp_path / "v1.json"
        path.write_text(
            '{\n  "anchors": [[0.5, -1.0], [2.0, 0.25]],\n  "biases": [0.1, -0.30000000000000004],\n'
            '  "class_map": ["spam", "ham"],\n  "format": "correntia-model",\n'
            '  "kernel": {"bandwidth": 1.5, "kind": "rbf"},\n  "mode": "kernel",\n'
            '  "sigma_final": 0.7,\n  "version": 1,\n'
            '  "weights": [[1e-17, 2.5], [-3.0, 0.125]]\n}\n'
        )
        model = load_model(path)
        assert model.weights.tolist() == [[1e-17, 2.5], [-3.0, 0.125]]
        assert model.biases.tolist() == [0.1, -0.30000000000000004]
        assert model.representation.anchors.tolist() == [[0.5, -1.0], [2.0, 0.25]]
        assert model.representation.kernel == KernelSpec("rbf", 1.5)
        assert (model.sigma_final, model.class_map) == (0.7, ("spam", "ham"))

    @pytest.mark.parametrize(
        "representation, head",
        [
            (linear_representation(), '  "anchors": null,\n'),
            (
                kernel_representation(np.array([[0.5, -1.0], [2.0, 0.25]]), KernelSpec("rbf", 1.5)),
                '  "anchors": [\n    [\n      0.5,\n      -1.0\n    ],\n'
                '    [\n      2.0,\n      0.25\n    ]\n  ],\n',
            ),
        ],
        ids=["linear", "rbf"],
    )
    def test_save_golden_bytes(self, tmp_path, representation, head):
        model = Model(
            np.array([[1e-17, 2.5], [-3.0, 0.125]]), [0.1, -0.30000000000000004],
            representation, 0.7, ("spam", "ham"),
        )
        kernel = (
            '  "kernel": null,\n  "mode": "linear",\n'
            if representation.kernel is None
            else '  "kernel": {\n    "bandwidth": 1.5,\n    "kind": "rbf"\n  },\n'
            '  "mode": "kernel",\n'
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes().decode("utf-8") == (
            "{\n" + head
            + '  "biases": [\n    0.1,\n    -0.30000000000000004\n  ],\n'
            '  "class_map": [\n    "spam",\n    "ham"\n  ],\n'
            '  "format": "correntia-model",\n' + kernel
            + '  "sigma_final": 0.7,\n  "version": 1,\n'
            '  "weights": [\n    [\n      1e-17,\n      2.5\n    ],\n'
            '    [\n      -3.0,\n      0.125\n    ]\n  ]\n}\n'
        )

    @staticmethod
    def _kernel_payload(tmp_path):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((6, 2))
        ds = Dataset(features, np.array([1, 2, 3] * 2), 3)
        rep = kernel_representation(features, KernelSpec("rbf", 1.0))
        model, _ = train(ds, TrainConfig(max_iters=2, representation=rep))
        path = tmp_path / "model.json"
        save_model(model, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (lambda p: p.pop("mode"), "missing key.*mode"),
            (lambda p: p.pop("weights"), "missing key.*weights"),
            (lambda p: p.update(version=99), "version 99"),
            (lambda p: p.pop("version"), "version None"),
            (lambda p: p.update(class_map=p["class_map"][:2]), "class_map"),
            (lambda p: p.update(biases=p["biases"][:2]), "biases"),
            (lambda p: p.update(weights=[row[:-1] for row in p["weights"]]), "anchors"),
            (lambda p: p.update(anchors=p["anchors"][:-1]), "anchors"),
            (lambda p: p["weights"][0].pop(), "weights"),
            (lambda p: p.update(weights=[]), "weights"),
            (lambda p: p.update(anchors=None), "anchors"),
            (lambda p: p.update(kernel="rbf"), "kernel"),
            (lambda p: p["kernel"].update(bandwidth="wide"), "numeric bandwidth"),
            (lambda p: p.update(mode="cubic"), "mode"),
            (lambda p: p.update(sigma_final="wide"), "sigma_final"),
            (lambda p: p["kernel"].update(bandwidth=True), "numeric bandwidth, got True"),
            (lambda p: p["kernel"].update(gamma=0.5), "kernel must be null or an object"),
            (lambda p: p["kernel"].pop("bandwidth"), "kernel must be null or an object"),
            (lambda p: p.update(class_map="abc"), "class_map"),
            (lambda p: p.update(sigma_final=True), "sigma_final must be a number, got True"),
            (lambda p: p.update(version=True), "version True"),
            (lambda p: p.update(mode="linear"), "linear mode takes no anchors"),
        ],
        ids=["no-mode", "no-weights", "version-99", "no-version", "short-class-map",
             "short-biases", "narrow-weights", "fewer-anchors", "ragged-weights",
             "empty-weights", "no-anchors", "kernel-not-object", "bandwidth-not-number",
             "unknown-mode", "sigma-not-number", "bandwidth-bool", "extra-kernel-key",
             "kernel-without-bandwidth", "class-map-string", "sigma-bool", "version-bool",
             "linear-with-anchors"],
    )
    def test_rejects_inconsistent_file(self, tmp_path, corrupt, problem):
        path, payload = self._kernel_payload(tmp_path)
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=problem) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("cut", [0, 40], ids=["empty", "truncated"])
    def test_rejects_text_that_is_not_json(self, tmp_path, cut):
        path, _ = self._kernel_payload(tmp_path)
        path.write_text(path.read_text()[:cut])
        with pytest.raises(ValueError, match="Expecting") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")


class TestModelInvariants:
    @pytest.mark.parametrize(
        "weights, biases, class_map, sigma_final, problem",
        [
            (np.ones((2, 3)), [0, 0], ("a",), 1.0, "class_map must list 2"),
            (np.ones((2, 3)), [0, 0], "ab", 1.0, "class_map must list 2"),
            (np.ones((2, 3)), [0, 0], ("a", 2), 1.0, "class_map"),
            (np.ones((2, 3)), [0, 0, 0], ("a", "b"), 1.0, "biases"),
            (np.ones((2, 0)), [0, 0], ("a", "b"), 1.0, "weights must be a non-empty matrix"),
            (np.ones(3), [0], ("a",), 1.0, "weights must be a non-empty matrix"),
            (np.full((1, 2), np.nan), [0], ("a",), 1.0, "finite"),
            (np.ones((2, 3)), [0, 0], ("a", "b"), True, "sigma_final"),
            (np.ones((2, 3)), [0, 0], ("a", "b"), "0.5", "sigma_final"),
        ],
    )
    def test_rejects_inconsistent_fields(self, weights, biases, class_map, sigma_final, problem):
        with pytest.raises(ValueError, match=problem):
            Model(weights, biases, linear_representation(), sigma_final, class_map)

    def test_kernel_weights_need_one_column_per_anchor(self):
        rep = kernel_representation(np.ones((4, 2)), KernelSpec("rbf", 1.0))
        with pytest.raises(ValueError, match="3 columns for 4 kernel anchors"):
            Model(np.ones((2, 3)), [0, 0], rep, 1.0, ("a", "b"))

    @pytest.mark.parametrize(
        "representation, sigma_final, class_map",
        [
            (linear_representation(), 1, ["a", "b"]),
            (linear_representation(), np.float32(0.5), ("a", "b")),
            (kernel_representation([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], KernelSpec("rbf", 2)),
             0.25, ("a", "b")),
            (kernel_representation(np.eye(3), KernelSpec("linear")), 3.0, ("a", "b")),
        ],
        ids=["int-sigma-list-names", "float32-sigma", "int-bandwidth", "linear-kernel"],
    )
    def test_every_constructible_model_round_trips(
        self, tmp_path, representation, sigma_final, class_map
    ):
        model = Model([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]], [0.1, -0.1],
                      representation, sigma_final, class_map)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.sigma_final, loaded.class_map) == (float(sigma_final), ("a", "b"))
        assert loaded.representation.kernel == model.representation.kernel
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.biases, model.biases)
        if representation.anchors is not None:
            np.testing.assert_array_equal(loaded.representation.anchors, representation.anchors)


class TestKernelConsistency:
    def test_anchor_scores_match_batch(self):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((25, 3))
        labels = rng.integers(1, 3, 25)
        labels[:2] = [1, 2]
        ds = Dataset(features, labels, 2)
        rep = kernel_representation(features, KernelSpec("rbf", 1.0))
        model, _ = train(ds, TrainConfig(max_iters=10, representation=rep))
        batch = score_matrix(model, features)
        for i in range(25):
            kernel_row = np.exp(-np.sum((features - features[i]) ** 2, axis=1) / 2.0)
            expected = model.weights @ kernel_row + model.biases
            np.testing.assert_allclose(batch[i], expected, atol=1e-10)
