"""Trainer internals: auxiliary update, weighted ridge step, training loop, model IO."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from correntia import (
    Dataset,
    DegenerateClassError,
    KernelSpec,
    Model,
    SigmaPolicy,
    TrainConfig,
    e_step,
    kernel_representation,
    label_indicator,
    linear_representation,
    load_model,
    m_step,
    objective,
    predict_labels,
    represent_matrix,
    save_model,
    score_matrix,
    train,
    train_square,
)
from correntia import regmaxcem


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


def random_aux_and_indicator(rng, num_classes, n):
    indicator = label_indicator(rng.integers(1, num_classes + 1, n), num_classes)
    return -rng.uniform(0.05, 1.0, (num_classes, n)), indicator


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

    def test_degenerate_class_error_names_class(self):
        aux = -np.ones((3, 4))
        aux[1] = -1e-40
        with pytest.raises(DegenerateClassError, match="class 2"):
            m_step(aux, np.random.default_rng(6).standard_normal((2, 4)), label_indicator([1, 2, 3, 1], 3), 0.1)

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
        "shape, alpha",
        [
            pytest.param((50, 2000, 10), 0.01, id="tall-linear"),
            pytest.param("rbf-gram", 0.01, id="square-kernel"),
            pytest.param((40, 25, 3), 0.1, id="wide"),
            pytest.param((6, 300, 4), 0.0, id="alpha-zero"),
        ],
    )
    def test_matches_gemm_formula(self, shape, alpha):
        rng = np.random.default_rng(13)
        if shape == "rbf-gram":
            points = rng.standard_normal((200, 2))
            rep = kernel_representation(points, KernelSpec("rbf", 1.0))
            represented, num_classes = represent_matrix(points, rep).T, 3
        else:
            dim, n, num_classes = shape
            represented = rng.standard_normal((dim, n))
        aux, indicator = random_aux_and_indicator(rng, num_classes, represented.shape[1])
        weights, biases = m_step(aux, represented, indicator, alpha)
        w_ref, b_ref = gemm_m_step(aux, represented, indicator, alpha)
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

    def test_first_degenerate_class_is_named(self):
        aux = -np.ones((3, 4))
        aux[1:] = -1e-40
        with pytest.raises(DegenerateClassError, match="class 2") as info:
            m_step(aux, np.random.default_rng(6).standard_normal((2, 4)), label_indicator([1, 2, 3, 1], 3), 0.1)
        assert info.value.class_index == 2

    def test_near_singular_system_raises_floating_point_error(self):
        x = np.random.default_rng(15).standard_normal(40)
        ds = Dataset(np.stack([x, 2 * x, x], axis=1), np.array([1, 2] * 20), 2)
        with pytest.raises(FloatingPointError, match="class 1.*larger alpha"):
            train(ds, TrainConfig(alpha=1e-20))

    @pytest.mark.parametrize(
        "field, message",
        [("alpha", "alpha must be >= 0"), ("max_iters", "max_iters must be >= 1"),
         ("tol", "tol must be >= 0")],
    )
    def test_nan_config_value_rejected(self, field, message):
        # NaN fails every comparison, so each check must be written to fail on it
        with pytest.raises(ValueError, match=f"{message}, got nan"):
            TrainConfig(**{field: math.nan})


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

    def test_products_run_on_scipy_blas(self, monkeypatch):
        # numpy and scipy each load their own BLAS; a product left on numpy's
        # makes the two thread pools compete for the CPUs
        counts = {"dgemm": 0, "dgemv": 0}
        for name in counts:
            real = getattr(regmaxcem, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(regmaxcem, name, counting)
        ds = two_blob_dataset(seed=8)
        model, _ = train(ds, TrainConfig(max_iters=3, tol=0.0))
        # per round: class means and scores by dgemm, one right-hand side per class by dgemv
        assert counts == {"dgemm": 6, "dgemv": 6}
        score_matrix(model, ds.features)
        assert counts == {"dgemm": 7, "dgemv": 6}


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
