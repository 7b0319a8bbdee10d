"""Square/hinge/logistic baselines against closed-form and grid-search oracles."""

import math

import numpy as np
import pytest

from correntia import (
    BaselineConfig,
    Dataset,
    KernelSpec,
    Model,
    inject_label_noise,
    kernel_representation,
    kfold,
    label_indicator,
    linear_representation,
    median_bandwidth,
    m_step,
    predict_labels,
    represent_matrix,
    train_hinge,
    train_hinge_batch,
    train_logistic,
    train_square,
)


def tiny_dataset(features, labels, num_classes):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), num_classes)


def hinge_objective(ds, model, alpha):
    scores = (represent_matrix(ds.features, model.representation) @ model.weights.T + model.biases).T
    indicator = label_indicator(ds.labels, ds.num_classes)
    loss = float(np.mean(np.maximum(0.0, 1.0 - scores * indicator)))
    return loss + alpha / ds.num_classes * float(np.sum(model.weights**2))


def per_class_hinge(ds, rep, cfg):
    """Reference: the hinge subgradient loop run one class at a time."""
    represented = represent_matrix(ds.features, rep)
    indicator = label_indicator(ds.labels, ds.num_classes)
    n, dim = represented.shape
    alpha = cfg.alpha

    def value(margins_comp, w):
        return float(np.sum(np.maximum(margins_comp, 0.0))) / n + alpha * float(w @ w)

    weights = np.empty((ds.num_classes, dim))
    biases = np.empty(ds.num_classes)
    for l in range(ds.num_classes):
        y = indicator[l]
        w = np.zeros(dim)
        b = 0.0
        margins_comp = 1.0 - y * (represented @ w + b)
        best = value(margins_comp, w)
        best_w, best_b = w.copy(), b
        for t in range(1, cfg.max_iters + 1):
            active = margins_comp > 0.0
            grad_w = -(y[active] @ represented[active]) / n + 2.0 * alpha * w
            grad_b = -float(np.sum(y[active])) / n
            step = cfg.step_size / np.sqrt(t)
            w = w - step * grad_w
            b = b - step * grad_b
            with np.errstate(over="ignore", invalid="ignore"):
                margins_comp = 1.0 - y * (represented @ w + b)
                current = value(margins_comp, w)
            if not np.isfinite(current):
                raise FloatingPointError(f"class {l + 1}: hinge objective became non-finite")
            if current < best:
                best, best_w, best_b = current, w.copy(), b
        weights[l] = best_w
        biases[l] = best_b
    return weights, biases


def where_hinge_steps(represented, indicator, cfg):
    """Reference: the stacked hinge loop with a fresh ``np.where`` array per iteration."""
    represented = represented[:, None]
    n, dim = represented.shape[-2:]
    alpha = cfg.alpha

    weights = np.zeros(indicator.shape[:-1] + (dim,))
    biases = np.zeros(indicator.shape[:-1])
    margins_comp = np.ones_like(indicator)
    best = np.ones(biases.shape)
    best_weights, best_biases = weights.copy(), biases.copy()
    failed = np.zeros(indicator.shape[:-2], dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.max_iters + 1):
            active = np.where(margins_comp > 0.0, indicator, 0.0)
            grad_w = -(active @ represented) / n + 2.0 * alpha * weights
            grad_b = -active.sum(axis=-1) / n
            step = cfg.step_size / np.sqrt(t)
            weights = weights - step * grad_w
            biases = biases - step * grad_b
            scores = weights @ represented.swapaxes(-1, -2) + biases[..., None]
            margins_comp = 1.0 - indicator * scores
            penalty = alpha * (weights * weights).sum(axis=-1)
            value = np.maximum(margins_comp, 0.0).sum(axis=-1) / n + penalty
            finite = np.isfinite(value)
            if not finite.all():
                first = (failed == 0) & ~finite.all(axis=-1)
                failed[first] = np.argmin(finite, axis=-1)[first] + 1
                if failed.all():
                    break
            improved = value < best
            np.copyto(best, value, where=improved)
            np.copyto(best_weights, weights, where=improved[..., None])
            np.copyto(best_biases, biases, where=improved)
    return best_weights, best_biases, failed


def noisy_blobs(num_classes, per_class, dim, seed):
    rng = np.random.default_rng(seed)
    means = 2.0 * rng.standard_normal((num_classes, dim))
    features = np.vstack([m + rng.standard_normal((per_class, dim)) for m in means])
    labels = np.repeat(np.arange(1, num_classes + 1), per_class)
    flip = rng.random(labels.size) < 0.3
    labels[flip] = rng.integers(1, num_classes + 1, int(flip.sum()))
    labels[:num_classes] = np.arange(1, num_classes + 1)
    return tiny_dataset(features, labels, num_classes)


def logistic_objective(ds, model, alpha):
    scores = (represent_matrix(ds.features, model.representation) @ model.weights.T + model.biases).T
    indicator = label_indicator(ds.labels, ds.num_classes)
    loss = float(np.mean(np.logaddexp(0.0, -scores * indicator)))
    return loss + alpha / ds.num_classes * float(np.sum(model.weights**2))


class TestTrainSquare:
    def test_matches_uniform_weight_ridge_step(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((20, 3))
        labels = rng.integers(1, 4, 20)
        labels[:3] = [1, 2, 3]
        ds = tiny_dataset(features, labels, 3)
        model = train_square(ds, linear_representation(), alpha=0.07)
        weights, biases = m_step(
            -np.ones((3, 20)), features.T, label_indicator(labels, 3), 0.07
        )
        np.testing.assert_allclose(model.weights, weights, atol=1e-8)
        np.testing.assert_allclose(model.biases, biases, atol=1e-8)

    def test_hand_ols_case(self):
        ds = tiny_dataset([[1.0], [-1.0]], [1, 2], 2)
        model = train_square(ds, linear_representation(), alpha=0.0)
        # class 1 targets (+1, -1) on x = (1, -1): w = 1, b = 0
        assert model.weights[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert model.biases[0] == pytest.approx(0.0, abs=1e-10)

    def test_constant_positive_targets(self):
        ds = Dataset(np.random.default_rng(1).standard_normal((8, 2)), np.ones(8, dtype=int), 1)
        model = train_square(ds, linear_representation(), alpha=0.4)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-10)
        assert model.biases[0] == pytest.approx(1.0, abs=1e-10)

    def test_negative_alpha_raises(self):
        ds = tiny_dataset([[1.0], [-1.0]], [1, 2], 2)
        with pytest.raises(ValueError, match="alpha must be >= 0, got -1.0"):
            train_square(ds, linear_representation(), -1.0)
        with pytest.raises(ValueError, match="alpha must be >= 0, got nan"):
            train_square(ds, linear_representation(), math.nan)


class TestTrainHinge:
    def test_separable_objective_beats_threshold_and_grid(self):
        ds = tiny_dataset([[2.0], [-2.0]], [1, 2], 2)
        cfg = BaselineConfig(alpha=0.01, max_iters=400, step_size=1.0)
        model = train_hinge(ds, linear_representation(), cfg)
        value = hinge_objective(ds, model, 0.01)
        assert value < 0.05
        # brute-force check: no grid point does much better
        best = math.inf
        for w1 in np.linspace(-2, 2, 81):
            for b1 in np.linspace(-1, 1, 41):
                scores = np.array([[w1 * 2 + b1, -w1 * 2 + b1], [-(w1 * 2 + b1), -(-w1 * 2 + b1)]])
                # symmetric 2-class grid: class 2 mirrors class 1
                indicator = label_indicator([1, 2], 2)
                loss = float(np.mean(np.maximum(0.0, 1.0 - scores * indicator)))
                best = min(best, loss + 0.01 / 2 * (2 * w1**2))
        assert value <= best + 0.01

    def test_huge_alpha_shrinks_weights(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((30, 2))
        labels = rng.integers(1, 3, 30)
        labels[:2] = [1, 2]
        ds = tiny_dataset(features, labels, 2)
        # step size scaled to the enormous penalty curvature; the best-seen
        # rule then guarantees any iterate with a visible weight norm loses
        cfg = BaselineConfig(alpha=1e6, max_iters=200, step_size=1e-6)
        model = train_hinge(ds, linear_representation(), cfg)
        assert np.linalg.norm(model.weights) < 1e-2

    def test_oversized_step_raises_non_finite_error(self):
        ds = tiny_dataset([[1.0], [-1.0]], [1, 2], 2)
        cfg = BaselineConfig(alpha=1e6, max_iters=500, step_size=10.0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            train_hinge(ds, linear_representation(), cfg)

    def test_never_worse_than_zero_model(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((25, 3))
        labels = rng.integers(1, 4, 25)
        labels[:3] = [1, 2, 3]
        ds = tiny_dataset(features, labels, 3)
        for step in (0.01, 1.0, 50.0):
            cfg = BaselineConfig(alpha=0.05, max_iters=40, step_size=step)
            model = train_hinge(ds, linear_representation(), cfg)
            zero = hinge_objective(
                ds,
                train_hinge(ds, linear_representation(), BaselineConfig(alpha=0.05, max_iters=1, step_size=1e-30)),
                0.05,
            )
            assert hinge_objective(ds, model, 0.05) <= zero + 1e-12


class TestHingeMatchesPerClassLoop:
    """The class-stepped trainer against the one-class-at-a-time reference."""

    def assert_matches_reference(self, ds, rep, cfg):
        weights, biases = per_class_hinge(ds, rep, cfg)
        model = train_hinge(ds, rep, cfg)
        np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-12)
        reference = model.__class__(weights, biases, rep, 1.0, model.class_map)
        np.testing.assert_array_equal(
            predict_labels(model, ds.features), predict_labels(reference, ds.features)
        )
        return weights, biases

    @pytest.mark.parametrize("num_classes", [2, 3, 4])
    def test_linear(self, num_classes):
        ds = noisy_blobs(num_classes, 30, 5, seed=num_classes)
        self.assert_matches_reference(ds, linear_representation(), BaselineConfig(max_iters=300))

    def test_rbf_kernel(self):
        ds = noisy_blobs(3, 25, 2, seed=9)
        spec = KernelSpec("rbf", median_bandwidth(ds.features))
        rep = kernel_representation(ds.features, spec)
        self.assert_matches_reference(ds, rep, BaselineConfig(alpha=0.05, max_iters=200))

    def test_best_iterate_is_chosen_per_class(self):
        # oversized steps: some classes never beat their zero start, others do
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 4, 12)
        labels[:3] = [1, 2, 3]
        ds = tiny_dataset(rng.standard_normal((12, 2)), labels, 3)
        cfg = BaselineConfig(alpha=0.05, max_iters=10, step_size=20.0)
        weights, biases = self.assert_matches_reference(ds, linear_representation(), cfg)
        at_zero = [not weights[l].any() and biases[l] == 0.0 for l in range(3)]
        assert any(at_zero) and not all(at_zero)

    def test_a_tie_keeps_the_earlier_iterate(self):
        # one step of 6 moves each bias by 3 and leaves every mean hinge at
        # exactly 1, the zero start's value: strict "<" keeps the zero start
        ds = tiny_dataset(np.zeros((4, 1)), [1, 2, 2, 2], 2)
        cfg = BaselineConfig(alpha=0.0, max_iters=1, step_size=6.0)
        weights, biases = self.assert_matches_reference(ds, linear_representation(), cfg)
        assert not weights.any() and not biases.any()

    def test_non_finite_error_names_the_diverging_class(self):
        # class 1's subgradient is zero at the start, so it never leaves it;
        # class 2 moves, and the penalty step overshoots it to infinity
        ds = tiny_dataset([[1.0], [-1.0], [2.0], [-2.0]], [1, 1, 2, 3], 3)
        cfg = BaselineConfig(alpha=1e6, max_iters=500, step_size=10.0)
        with pytest.raises(FloatingPointError, match="class 2: "):
            per_class_hinge(ds, linear_representation(), cfg)
        with pytest.raises(FloatingPointError, match=r"class 2: hinge objective became non-finite"):
            train_hinge(ds, linear_representation(), cfg)


class TestHingeBatch:
    """Cells stepped together against their lone :func:`train_hinge` fits, bit for bit."""

    @pytest.mark.parametrize("mode", ["linear", "rbf"])
    def test_batch_is_bit_identical_to_lone_fits(self, mode):
        # 63 rows in 4 folds: training sets of 47 and 48 rows, two stacked groups
        ds = noisy_blobs(3, 21, 2, seed=11)
        splits = []
        for s, (train, _) in enumerate(kfold(ds, 4, seed=3)):
            if mode == "linear":
                rep = linear_representation()
            else:
                spec = KernelSpec("rbf", median_bandwidth(train.features))
                rep = kernel_representation(train.features, spec)
            noisy = [inject_label_noise(train, rate, seed=10 * s + r)
                     for r, rate in enumerate((0.0, 0.2, 0.4))]
            splits.append((rep, noisy))
        assert sorted({datasets[0].n_samples for _, datasets in splits}) == [47, 48]
        cfg = BaselineConfig(alpha=0.05, max_iters=150)
        batched = train_hinge_batch(splits, cfg)
        assert [len(models) for models in batched] == [3] * 4
        for (rep, datasets), models in zip(splits, batched):
            for cell, model in zip(datasets, models):
                lone = train_hinge(cell, rep, cfg)
                assert np.array_equal(model.weights, lone.weights)
                assert np.array_equal(model.biases, lone.biases)
                assert model.class_map == lone.class_map and model.representation is rep
                weights, biases = per_class_hinge(cell, rep, cfg)
                np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
                np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-12)

    def test_a_diverging_cell_leaves_the_others_alone(self):
        # the dataset of test_non_finite_error_names_the_diverging_class, batched
        # with label sets (and one more split) whose subgradients stay zero
        features = [[1.0], [-1.0], [2.0], [-2.0]]
        diverging = tiny_dataset(features, [1, 1, 2, 3], 3)
        healthy = [tiny_dataset(features, [1, 1, 2, 2], 3), tiny_dataset(features, [2, 2, 1, 1], 3)]
        other = tiny_dataset([[0.0], [0.0], [0.0], [3.0], [-3.0]], [1, 2, 3, 1, 1], 3)
        rep = linear_representation()
        cfg = BaselineConfig(alpha=1e6, max_iters=500, step_size=10.0)
        (first, *rest), (last,) = train_hinge_batch(
            [(rep, [diverging, *healthy]), (rep, [other])], cfg
        )
        assert isinstance(first, FloatingPointError)
        assert str(first) == "class 2: hinge objective became non-finite (step size too large?)"
        for cell, model in zip([*healthy, other], [*rest, last]):
            lone = train_hinge(cell, rep, cfg)
            assert np.array_equal(model.weights, lone.weights)
            assert np.array_equal(model.biases, lone.biases)

    def test_batch_matches_the_where_loop_bit_for_bit(self):
        # two stacked splits of two label sets each; the second split's features
        # are small integers times 2**512, so sums of them are exact
        rng = np.random.default_rng(0)
        plain = rng.standard_normal((12, 2))
        half = rng.integers(-3, 4, (6, 2)).astype(float)
        huge = np.vstack([half, -half]) * 2.0**512
        mirrored = np.tile(rng.integers(1, 4, 6), 2)  # the w subgradient cancels exactly
        labels = [rng.integers(1, 4, 12), rng.integers(1, 4, 12), mirrored, rng.integers(1, 4, 12)]
        cells = [tiny_dataset(x, l, 3) for x, l in zip([plain, plain, huge, huge], labels)]
        splits = [(linear_representation(), cells[:2]), (linear_representation(), cells[2:])]
        cfg = BaselineConfig(alpha=0.05, max_iters=40, step_size=30.0)
        indicator = np.stack([label_indicator(l, 3) for l in labels]).reshape(2, 2, 3, 12)
        want_w, want_b, want_failed = where_hinge_steps(np.stack([plain, huge]), indicator, cfg)
        assert want_failed.tolist() == [[0, 0], [0, 1]]  # one cell turns non-finite
        at_zero = ~want_w.any(axis=-1) & (want_b == 0)
        assert at_zero[0, 0].tolist() == [False, False, True]  # one class keeps the zero start

        results = [r for models in train_hinge_batch(splits, cfg) for r in models]
        assert str(results[3]) == "class 1: hinge objective became non-finite (step size too large?)"
        for (s, c), model in zip([(0, 0), (0, 1), (1, 0)], results[:3]):
            for got, want in ((model.weights, want_w[s, c]), (model.biases, want_b[s, c])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_datasets_of_one_split_must_share_features(self):
        a = tiny_dataset([[1.0], [-1.0]], [1, 2], 2)
        b = tiny_dataset([[1.0], [-2.0]], [1, 2], 2)
        with pytest.raises(ValueError, match="split 0: the datasets of one split must share"):
            train_hinge_batch([(linear_representation(), [a, b])], BaselineConfig())


class TestTrainLogistic:
    def test_zero_model_loss_is_log_two(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((10, 2))
        labels = rng.integers(1, 3, 10)
        labels[:2] = [1, 2]
        ds = tiny_dataset(features, labels, 2)
        zero = Model(np.zeros((2, 2)), np.zeros(2), linear_representation(), 1.0, ds.label_names)
        assert logistic_objective(ds, zero, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("kernel", [False, True], ids=["linear", "rbf"])
    @pytest.mark.parametrize("alpha", [0.1, 0.01, 1e-4])
    def test_first_newton_step_is_scaled_square_loss(self, alpha, kernel):
        # From zero scores the Newton weights are 1/4 and the working responses
        # 2 * indicator; that ridge problem is twice square loss at 8 alpha.
        rng = np.random.default_rng(4)
        features = rng.standard_normal((12, 2))
        ds = tiny_dataset(features, rng.permutation([1, 2, 3] * 4), 3)
        rep = kernel_representation(features, KernelSpec("rbf", 1.0)) if kernel else linear_representation()
        model = train_logistic(ds, rep, BaselineConfig(alpha=alpha, max_iters=1, tol=0.0))
        square = train_square(ds, rep, 8.0 * alpha)
        np.testing.assert_allclose(model.weights, 2.0 * square.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.biases, 2.0 * square.biases, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", [False, True], ids=["linear", "rbf"])
    def test_gradient_vanishes_at_solution(self, kernel):
        # converged within the sweep's default of 20 iterations
        rng = np.random.default_rng(5)
        features = rng.standard_normal((40, 2))
        labels = rng.integers(1, 3, 40)
        labels[:2] = [1, 2]
        ds = tiny_dataset(features, labels, 2)
        rep = kernel_representation(features, KernelSpec("rbf", 1.0)) if kernel else linear_representation()
        model = train_logistic(ds, rep, BaselineConfig(alpha=0.1, max_iters=20, tol=1e-9))
        value = logistic_objective(ds, model, 0.1)
        h = 1e-6
        params = np.hstack([model.weights, model.biases[:, None]])
        grads = []
        for index in np.ndindex(params.shape):
            moved = []
            for sign in (1.0, -1.0):
                p = params.copy()
                p[index] += sign * h
                moved.append(Model(p[:, :-1], p[:, -1], rep, 1.0, model.class_map))
            grads.append(
                (logistic_objective(ds, moved[0], 0.1) - logistic_objective(ds, moved[1], 0.1)) / (2 * h)
            )
        assert np.linalg.norm(grads) <= 1e-5 * (1 + abs(value))

    def test_separable_class_is_named(self):
        # alpha = 0 and tol = 0 on separable data: the weights grow until every
        # Newton weight underflows, which must not surface as a ridge-step error
        ds = tiny_dataset([[2.5], [1.5], [-1.5], [-2.5]], [1, 1, 2, 2], 2)
        cfg = BaselineConfig(alpha=0.0, max_iters=500, tol=0.0)
        with pytest.raises(
            FloatingPointError,
            match=r"^class 1: separable at alpha=0\.0, so its logistic weights diverge; "
            r"use a larger alpha or tol$",
        ):
            train_logistic(ds, linear_representation(), cfg)
        model = train_logistic(ds, linear_representation(), BaselineConfig(alpha=0.0, max_iters=500))
        assert np.mean(predict_labels(model, ds.features) == ds.labels) == 1.0

    def test_monotone_loss_under_backtracking(self):
        # separable data, alpha = 0: the iterate losses must be non-increasing
        ds = tiny_dataset([[2.5], [1.5], [-1.5], [-2.5]], [1, 1, 2, 2], 2)
        losses = []
        for iters in (1, 2, 4, 8, 16, 32):
            cfg = BaselineConfig(alpha=0.0, max_iters=iters, tol=0.0)
            model = train_logistic(ds, linear_representation(), cfg)
            losses.append(logistic_objective(ds, model, 0.0))
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-12

    def test_interchangeable_with_other_models(self):
        rng = np.random.default_rng(6)
        features = np.concatenate([rng.standard_normal((20, 2)) + 3, rng.standard_normal((20, 2)) - 3])
        ds = tiny_dataset(features, [1] * 20 + [2] * 20, 2)
        for trainer, cfg in (
            (train_hinge, BaselineConfig(alpha=0.01, max_iters=200)),
            (train_logistic, BaselineConfig(alpha=0.01, max_iters=200)),
        ):
            model = trainer(ds, linear_representation(), cfg)
            assert np.mean(predict_labels(model, ds.features) == ds.labels) == 1.0


class TestBaselineConfig:
    def test_nonpositive_step_size(self):
        with pytest.raises(ValueError, match="step_size"):
            BaselineConfig(step_size=0.0)
        with pytest.raises(ValueError, match="step_size"):
            BaselineConfig(step_size=math.nan)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(ValueError, match=r"^alpha must be finite, got inf$"):
            BaselineConfig(alpha=math.inf)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iters_rejected(self, value):
        # max_iters counts loop rounds: a float fails mid-training, True would mean 1
        with pytest.raises(ValueError, match=f"^max_iters must be an integer, got {value!r}$"):
            BaselineConfig(max_iters=value)

    def test_integer_max_iters_accepted(self):
        assert BaselineConfig(max_iters=np.int64(3)).max_iters == 3
