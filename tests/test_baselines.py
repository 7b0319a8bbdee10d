"""Square/hinge/logistic baselines against closed-form and grid-search oracles."""

import math

import numpy as np
import pytest

from correntia import baselines
from correntia import (
    BaselineConfig,
    Dataset,
    KernelSpec,
    Model,
    SyntheticSpec,
    child_seed,
    generate_synthetic,
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
    train_logistic,
    train_square,
)
from correntia.regmaxcem import prepare_columns


def tiny_dataset(features, labels, num_classes):
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels), num_classes)


def hinge_objective(ds, model, alpha):
    """Per class: mean squared hinge ``mean(max(0, 1 - y f)^2)`` plus ``alpha ||w_l||^2``."""
    scores = (represent_matrix(ds.features, model.representation) @ model.weights.T + model.biases).T
    indicator = label_indicator(ds.labels, ds.num_classes)
    short = np.maximum(0.0, 1.0 - scores * indicator)
    return np.mean(short**2, axis=1) + alpha * np.sum(model.weights**2, axis=1)


def hinge_gradient(ds, model, alpha):
    """Per class: the squared-hinge objective's gradient in ``w`` and ``b``, as ``L x (D' + 1)``."""
    represented = represent_matrix(ds.features, model.representation)
    indicator = label_indicator(ds.labels, ds.num_classes)
    scores = (represented @ model.weights.T + model.biases).T
    slope = -2.0 * np.maximum(0.0, 1.0 - scores * indicator) * indicator / ds.n_samples
    return np.hstack([slope @ represented + 2.0 * alpha * model.weights, slope.sum(axis=1)[:, None]])


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
        model = train_hinge(ds, linear_representation(), BaselineConfig(alpha=0.01))
        value = hinge_objective(ds, model, 0.01)
        # class 1 targets (+1, -1) on x = (2, -2): the optimum is b = 0 and
        # w = 2 / (4 + 0.01), a ridge fit of both points
        assert model.weights[0, 0] == pytest.approx(2.0 / 4.01, abs=1e-12)
        assert model.biases[0] == pytest.approx(0.0, abs=1e-12)
        # brute-force check: no grid point does better; class 2 mirrors class 1
        best = math.inf
        for w1 in np.linspace(-2, 2, 81):
            for b1 in np.linspace(-1, 1, 41):
                short = np.maximum(0.0, 1.0 - np.array([w1 * 2 + b1, w1 * 2 - b1]))
                best = min(best, float(np.mean(short**2)) + 0.01 * w1**2)
        assert np.all(value <= best + 1e-12)

    @pytest.mark.parametrize("kernel", [False, True], ids=["linear", "rbf"])
    def test_gradient_vanishes_at_solution(self, kernel):
        ds = noisy_blobs(3, 30, 2, seed=9)
        spec = KernelSpec("rbf", median_bandwidth(ds.features))
        rep = kernel_representation(ds.features, spec) if kernel else linear_representation()
        model = train_hinge(ds, rep, BaselineConfig(alpha=0.05, max_iters=20))
        gradient = hinge_gradient(ds, model, 0.05)
        assert np.max(np.abs(gradient)) <= 1e-12

    @pytest.mark.parametrize("kernel", [False, True], ids=["linear", "rbf"])
    def test_stops_on_its_active_set(self, kernel, monkeypatch):
        # a full step that leaves a class's active set unchanged is its exact
        # minimizer, so a larger cap takes no further step, and the last step
        # taken is the one that reached it
        steps = []

        def counting(*args, **kwargs):
            steps.append(args)
            return m_step(*args, **kwargs)

        monkeypatch.setattr(baselines, "m_step", counting)
        for num_classes, seed in ((2, 1), (3, 2), (4, 3)):
            ds = noisy_blobs(num_classes, 25, 3, seed=seed)
            spec = KernelSpec("rbf", 1.0)
            rep = kernel_representation(ds.features, spec) if kernel else linear_representation()
            capped = train_hinge(ds, rep, BaselineConfig(alpha=0.01, max_iters=20))
            steps.clear()
            loose = train_hinge(ds, rep, BaselineConfig(alpha=0.01, max_iters=500))
            assert np.array_equal(capped.weights, loose.weights)
            assert np.array_equal(capped.biases, loose.biases)
            assert 1 < len(steps) < 20
            short = train_hinge(ds, rep, BaselineConfig(alpha=0.01, max_iters=len(steps) - 1))
            assert not np.array_equal(short.weights, loose.weights)

    def test_damped_steps_lower_the_loss_and_still_converge(self, monkeypatch):
        # at this small alpha the full Newton steps of rounds 5 to 7 raise both
        # classes' loss, so they are halved, and a halved step that leaves the
        # active set unchanged is no minimizer: the fit goes on to reach it
        features = [[-8.301, 2.078], [36.415, -54.913], [15.992, 17.425], [19.541, -18.42],
                    [-8.135, -2.042], [-32.021, -12.812], [10.833, 15.461]]
        ds = tiny_dataset(features, [1, 2, 1, 2, 2, 1, 1], 2)
        halved = []
        descend = baselines._descend

        def recording(*args):
            fell, rose = descend(*args)
            halved.append(rose.any())
            return fell, rose

        monkeypatch.setattr(baselines, "_descend", recording)
        model = train_hinge(ds, linear_representation(), BaselineConfig(alpha=1e-4))
        assert any(halved)
        assert np.max(np.abs(hinge_gradient(ds, model, 1e-4))) <= 1e-12
        losses = [
            hinge_objective(ds, train_hinge(ds, linear_representation(), BaselineConfig(1e-4, k)), 1e-4)
            for k in range(1, len(halved) + 1)
        ]
        for prev, cur in zip(losses, losses[1:]):
            assert np.all(cur <= prev)

    def test_absent_class_is_constant_minus_one(self):
        # class 3 has no sample: its optimum is w = 0, b = -1, where every
        # margin is 1 and its active set is empty, and no DegenerateClassError
        # is raised on the way there
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 3, 25)
        labels[:2] = [1, 2]
        ds = tiny_dataset(rng.standard_normal((25, 3)) + 5.0, labels, 3)
        kernel = kernel_representation(ds.features, KernelSpec("rbf", 1.0))
        for rep in (linear_representation(), kernel):
            model = train_hinge(ds, rep, BaselineConfig(alpha=0.05))
            assert np.all(model.weights[2] == 0.0)
            assert model.biases[2] == -1.0
            assert np.max(np.abs(hinge_gradient(ds, model, 0.05)[:2])) <= 1e-12

    def test_failed_ridge_solve_names_the_class(self, monkeypatch):
        # collinear columns and a tiny alpha: the third step's ridge system is
        # not positive definite, in a call made after two classes stopped, so
        # m_step's row number is not the class index
        ds = noisy_blobs(4, 10, 1, seed=6)
        x = ds.features[:, 0]
        ds = tiny_dataset(np.column_stack([x, 2 * x, x]), ds.labels, 4)
        rows = []

        def counting(aux, *args, **kwargs):
            rows.append(len(aux))
            return m_step(aux, *args, **kwargs)

        monkeypatch.setattr(baselines, "m_step", counting)
        with pytest.raises(
            FloatingPointError,
            match=r"^class 3: the weighted ridge system is not positive definite; alpha=1e-15 ",
        ):
            train_hinge(ds, linear_representation(), BaselineConfig(alpha=1e-15))
        assert rows == [4, 3, 2]

    def test_huge_alpha_shrinks_weights(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((30, 2))
        labels = rng.integers(1, 3, 30)
        labels[:2] = [1, 2]
        ds = tiny_dataset(features, labels, 2)
        model = train_hinge(ds, linear_representation(), BaselineConfig(alpha=1e6))
        assert np.linalg.norm(model.weights) < 1e-6
        # the bias alone then minimizes each class's squared hinge
        assert np.max(np.abs(hinge_gradient(ds, model, 1e6)[:, -1])) <= 1e-12

    def test_never_worse_than_zero_model(self):
        # the zero model's squared hinge is 1 per class, and no step raises a loss
        rng = np.random.default_rng(3)
        features = rng.standard_normal((25, 3))
        labels = rng.integers(1, 4, 25)
        labels[:3] = [1, 2, 3]
        ds = tiny_dataset(features, labels, 3)
        for alpha in (0.0, 0.05, 1e6):
            for iters in (1, 2, 40):
                model = train_hinge(ds, linear_representation(), BaselineConfig(alpha, iters))
                assert np.all(hinge_objective(ds, model, alpha) <= 1.0)


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

    def test_kernel_stop_test_reads_the_coordinates(self, monkeypatch):
        # The rbf blobs of a kernel sweep (3 on a radius-2 circle, 300 per
        # class, the first of 5 folds, so N = 720), at noise 0, 0.2 and 0.4.
        # Every gradient norm the stop test reads, taken on the r x N
        # coordinates, is that of the gradient 2 alpha w - slope X^T / n on
        # the N x N Gram; the absolute bound is far below any tol (1e-8 by
        # default) and holds where a converged norm makes relative error moot.
        angles = 2.0 * math.pi / 3.0 * np.arange(3)
        means = tuple(zip(2.0 * np.cos(angles), 2.0 * np.sin(angles)))
        ds = generate_synthetic(SyntheticSpec(means, 1.0, 300, 7919))
        train, _ = kfold(ds, 5, child_seed(7919, 1, 0))[0]
        width = median_bandwidth(train.features)
        rep = kernel_representation(train.features, KernelSpec("rbf", width))
        gram = represent_matrix(train.features, rep)
        columns = prepare_columns(gram.T)
        assert columns.basis is not None and len(columns.coords) < len(gram)
        real_norms, steps, read = baselines._gradient_norms, [], []

        def recording_norms(columns, weights, slope, alpha):
            read.append((weights.copy(), slope, real_norms(columns, weights, slope, alpha)))
            return read[-1][2]

        monkeypatch.setattr(baselines, "_gradient_norms", recording_norms)
        cfg = BaselineConfig(tol=1e-6)
        for r_idx, rate in enumerate((0.0, 0.2, 0.4)):
            noisy = inject_label_noise(train, rate, child_seed(7919, 2, r_idx, 0))
            read.clear()
            indicator = label_indicator(noisy.labels, 3)
            baselines._train_logistic(columns, indicator, cfg)
            steps.append(len(read) - 1)  # one norm read per step, and the read that stops
            for weights, slope, norms in read:
                n = slope.shape[1]
                grad_w = 2.0 * cfg.alpha * weights - slope @ gram / n  # the Gram is symmetric
                expected = np.sqrt((grad_w**2).sum(axis=1) + (slope.sum(axis=1) / n) ** 2)
                np.testing.assert_allclose(norms, expected, rtol=1e-10, atol=1e-14)
        # the Newton steps of the fits that read the N x N Gram
        assert steps == [7, 5, 4]

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
