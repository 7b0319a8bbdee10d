"""One-vs-all baselines with classical losses: square, hinge, logistic.

Each trainer fits the same per-class +-1 indicator targets on the same
representation pipeline and returns the shared :class:`~correntia.regmaxcem.Model`
type, so the baselines are drop-in comparands for prediction and
evaluation.  All optimization is full-batch and deterministic (no
stochastic sampling), keeping experiments reproducible without any seed
interplay.  The 0-1 loss appears only as the accuracy metric, never as a
training objective.

The hinge trainer steps all L classes together, two GEMMs per iteration
over an L x n margin matrix, and :func:`train_hinge_batch` steps many
cells of a sweep (noise rates x splits) in the same loop through stacked
matmuls; :func:`train_hinge` is a batch of one.  The logistic trainer
loops over the classes, because each class keeps its own Armijo step and
backtracking sequence.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, label_indicator
from .kernels import Representation, represent_matrix
from .regmaxcem import Model, m_step

__all__ = ["BaselineConfig", "train_square", "train_hinge", "train_hinge_batch", "train_logistic"]


@dataclass(frozen=True)
class BaselineConfig:
    """Settings for the iterative baselines, :func:`train_hinge` and :func:`train_logistic`.

    ``step_size`` seeds the hinge schedule (``step_size / sqrt(t)``) and the
    logistic line search; ``tol`` is the logistic gradient-norm stop.  The
    closed-form :func:`train_square` takes only ``alpha``.
    """

    alpha: float = 0.01
    max_iters: int = 500
    step_size: float = 1.0
    tol: float = 1e-8

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


def _assemble(weights, biases, rep, ds) -> Model:
    return Model(
        weights=weights,
        biases=biases,
        representation=rep,
        sigma_final=1.0,  # baselines have no kernel width; placeholder metadata
        class_map=ds.label_names,
    )


def train_square(ds: Dataset, rep: Representation, alpha: float) -> Model:
    """Closed-form per-class ridge regression onto +-1 indicator targets.

    Minimizes ``mean((scores - indicator)^2) + (alpha / L) sum_l ||w_l||^2``
    exactly; identical to one uniform-weight step of the correntropy
    trainer with the same alpha.
    """
    represented = represent_matrix(ds.features, rep).T
    indicator = label_indicator(ds.labels, ds.num_classes)
    uniform = -np.ones_like(indicator)
    weights, biases = m_step(uniform, represented, indicator, alpha)
    return _assemble(weights, biases, rep, ds)


def train_hinge(ds: Dataset, rep: Representation, cfg: BaselineConfig) -> Model:
    """Deterministic full-batch subgradient descent on the hinge loss.

    Minimizes ``mean(max(0, 1 - scores * indicator)) + (alpha / L) sum ||w_l||^2``
    with step schedule ``step_size / sqrt(t)``, capped at ``max_iters``, and
    returns, per class, the iterate with the best objective seen (the zero
    start is a candidate, so no class scores worse than the zero model).  At
    a kink (margin exactly 1) the subgradient contribution is taken as 0.
    All L classes are stepped together: each iteration is one GEMM for the
    L x n margins and one for the L x D' subgradient.  The classes are
    independent problems, so this gives the per-class results of L separate
    loops.  Raises ``FloatingPointError`` naming the lowest-index class whose
    objective turned non-finite at the first iteration where any did.  This
    is a batch of one cell of :func:`train_hinge_batch`.
    """
    ((result,),) = train_hinge_batch([(rep, [ds])], cfg)
    if isinstance(result, FloatingPointError):
        raise result
    return result


def train_hinge_batch(
    splits: Sequence[tuple[Representation, Sequence[Dataset]]], cfg: BaselineConfig
) -> list[list[Model | FloatingPointError]]:
    """:func:`train_hinge` on many cells at once, all stepped in one loop.

    ``splits`` holds ``(rep, datasets)`` pairs; the datasets of one pair share
    their features and differ only in labels, like one training split at
    several noise rates.  Each split is represented once.  Splits whose
    represented matrices and label sets have equal shapes are stacked, and
    every iteration steps all their cells through stacked matmuls, with each
    represented matrix broadcast over its label sets.  The cells are
    independent, so each gets exactly its lone :func:`train_hinge` result.

    Returns, per split and per dataset, the fitted model, or for a cell whose
    objective turned non-finite the ``FloatingPointError`` that
    :func:`train_hinge` would raise; that cell does not affect the others.
    """
    results: list[list] = [[None] * len(datasets) for _, datasets in splits]
    groups: dict[tuple, list] = {}
    for s, (rep, datasets) in enumerate(splits):
        if any(not np.array_equal(ds.features, datasets[0].features) for ds in datasets):
            raise ValueError(f"split {s}: the datasets of one split must share their features")
        represented = represent_matrix(datasets[0].features, rep)  # n x D'
        indicator = np.stack([label_indicator(ds.labels, ds.num_classes) for ds in datasets])
        key = (represented.shape, indicator.shape)
        groups.setdefault(key, []).append((s, represented, indicator))
    for members in groups.values():
        index, represented, indicator = zip(*members)
        weights, biases, failed = _hinge_steps(np.stack(represented), np.stack(indicator), cfg)
        for g, s in enumerate(index):
            rep, datasets = splits[s]
            for c, ds in enumerate(datasets):
                results[s][c] = (
                    FloatingPointError(
                        f"class {failed[g, c]}: hinge objective became non-finite "
                        "(step size too large?)"
                    )
                    if failed[g, c]
                    else _assemble(weights[g, c], biases[g, c], rep, ds)
                )
    return results


def _hinge_steps(represented: np.ndarray, indicator: np.ndarray, cfg: BaselineConfig):
    """The hinge subgradient loop over stacked cells.

    ``represented`` is ``S x n x D'`` (one matrix per split) and ``indicator``
    ``S x C x L x n`` (C label sets per split).  Returns the best weights
    ``S x C x L x D'``, the best biases ``S x C x L`` and, per cell, the
    1-based class whose objective first turned non-finite (0 where none did).
    """
    represented = represented[:, None]  # broadcast over each split's label sets
    n, dim = represented.shape[-2:]
    alpha = cfg.alpha

    weights = np.zeros(indicator.shape[:-1] + (dim,))
    biases = np.zeros(indicator.shape[:-1])
    margins_comp = np.ones_like(indicator)  # 1 - y * f at the zero start
    best = np.ones(biases.shape)  # every margin is 1 there, so each objective is 1
    best_weights, best_biases = weights.copy(), biases.copy()
    failed = np.zeros(indicator.shape[:-2], dtype=np.int64)
    # Overflow shows below as a non-finite objective, so numpy need not warn.
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
                # a cell fails once, naming its lowest non-finite class; the
                # cells are independent, so it keeps stepping harmlessly
                first = (failed == 0) & ~finite.all(axis=-1)
                failed[first] = np.argmin(finite, axis=-1)[first] + 1
                if failed.all():
                    break
            improved = value < best
            np.copyto(best, value, where=improved)
            np.copyto(best_weights, weights, where=improved[..., None])
            np.copyto(best_biases, biases, where=improved)
    return best_weights, best_biases, failed


def train_logistic(ds: Dataset, rep: Representation, cfg: BaselineConfig) -> Model:
    """Full-batch gradient descent with backtracking on the logistic loss.

    Minimizes ``mean(log(1 + exp(-scores * indicator))) + (alpha / L) sum ||w_l||^2``.
    The loss is evaluated through log-sum-exp and the negative-margin
    sigmoid through ``expit``, so large scores stay stable.  Armijo
    backtracking guarantees a monotone loss; iteration stops once the
    gradient norm falls below ``tol * (1 + |loss|)``.
    """
    # Local import: scipy.special adds ~0.07 s to start-up; only this baseline uses it.
    from scipy.special import expit

    represented = represent_matrix(ds.features, rep)
    indicator = label_indicator(ds.labels, ds.num_classes)
    n, dim = represented.shape
    alpha = cfg.alpha

    def value(y, w, b):
        z = y * (represented @ w + b)
        v = float(np.sum(np.logaddexp(0.0, -z))) / n + alpha * float(w @ w)
        if not np.isfinite(v):
            raise FloatingPointError("non-finite logistic loss")
        return v

    weights = np.empty((ds.num_classes, dim))
    biases = np.empty(ds.num_classes)
    for l in range(ds.num_classes):
        y = indicator[l]
        w = np.zeros(dim)
        b = 0.0
        current = value(y, w, b)
        step = cfg.step_size
        for _ in range(cfg.max_iters):
            s = expit(-(y * (represented @ w + b)))  # sigmoid of negative margin
            grad_w = -((y * s) @ represented) / n + 2.0 * alpha * w
            grad_b = -float(np.sum(y * s)) / n
            grad_sq = float(grad_w @ grad_w) + grad_b * grad_b
            if np.sqrt(grad_sq) <= cfg.tol * (1.0 + abs(current)):
                break
            step = min(step * 2.0, 1e8)  # warm-started, then backtracked
            while True:
                w_new = w - step * grad_w
                b_new = b - step * grad_b
                trial = value(y, w_new, b_new)
                if trial <= current - 1e-4 * step * grad_sq:
                    break
                step *= 0.5
                if step < 1e-20:
                    break
            if trial >= current:
                break  # no descent direction progress left at float precision
            w, b, current = w_new, b_new, trial
        weights[l] = w
        biases[l] = b
    return _assemble(weights, biases, rep, ds)
