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
takes damped Newton steps (iteratively reweighted least squares), each a
weighted ridge solve of all L classes by the same :func:`m_step` that the
square and correntropy trainers use, on columns prepared once per fit (in
kernel mode with one Gram matrix).  Only the hinge trainer takes a step
size.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .dataset import Dataset, label_indicator
from .kernels import Representation, represent_matrix
from .regmaxcem import (
    DegenerateClassError,
    Model,
    _check_alpha,
    _check_max_iters,
    m_step,
    prepare_columns,
)

__all__ = ["BaselineConfig", "train_square", "train_hinge", "train_hinge_batch", "train_logistic"]


@dataclass(frozen=True)
class BaselineConfig:
    """Settings for the iterative baselines, :func:`train_hinge` and :func:`train_logistic`.

    ``step_size`` sets the hinge schedule (``step_size / sqrt(t)``) and is
    not used by logistic, whose Newton steps need none; ``tol`` is the
    logistic gradient-norm stop, ``||gradient|| <= tol * (1 + |loss|)`` per
    class.  The closed-form :func:`train_square` takes only ``alpha``.
    ``alpha`` must be finite and >= 0 and ``max_iters`` an integer >= 1, as
    in :class:`~correntia.regmaxcem.TrainConfig`; else ``ValueError``.
    """

    alpha: float = 0.01
    max_iters: int = 500
    step_size: float = 1.0
    tol: float = 1e-8

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_max_iters(self.max_iters)
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


# Step halvings a logistic class whose loss rose may take within one Newton step
_HALVINGS = 30


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
    Every ``S x C x L x n`` array is one buffer allocated before the loop and
    rewritten in place (``out=``) each iteration; the matmuls keep their
    stacked shapes, so the results are those of fresh arrays bit for bit.
    """
    represented = represented[:, None]  # broadcast over each split's label sets
    transposed = represented.swapaxes(-1, -2)
    n, dim = represented.shape[-2:]
    alpha = cfg.alpha

    weights = np.zeros(indicator.shape[:-1] + (dim,))
    biases = np.zeros(indicator.shape[:-1])
    margins_comp = np.ones_like(indicator)  # 1 - y * f at the zero start
    positive = np.empty(indicator.shape, dtype=bool)
    active = np.empty_like(indicator)
    scores = np.empty_like(indicator)
    best = np.ones(biases.shape)  # every margin is 1 there, so each objective is 1
    best_weights, best_biases = weights.copy(), biases.copy()
    failed = np.zeros(indicator.shape[:-2], dtype=np.int64)
    # Overflow shows below as a non-finite objective, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.max_iters + 1):
            # y where the margin is short of 1, else +0.0 (the + 0.0 turns -1 * 0 into +0.0)
            np.greater(margins_comp, 0.0, out=positive)
            np.multiply(indicator, positive, out=active)
            active += 0.0
            grad_w = -(active @ represented) / n + 2.0 * alpha * weights
            grad_b = -active.sum(axis=-1) / n
            step = cfg.step_size / np.sqrt(t)
            weights = weights - step * grad_w
            biases = biases - step * grad_b
            np.matmul(weights, transposed, out=scores)
            scores += biases[..., None]
            np.multiply(indicator, scores, out=margins_comp)
            np.subtract(1.0, margins_comp, out=margins_comp)
            penalty = alpha * (weights * weights).sum(axis=-1)
            hinge = np.maximum(margins_comp, 0.0, out=scores)  # the scores are spent
            value = hinge.sum(axis=-1) / n + penalty
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
    """Damped Newton steps (IRLS) on the logistic loss, each one :func:`m_step` call.

    Minimizes ``mean(log(1 + exp(-scores * indicator))) + alpha ||w_l||^2``
    per class.  A step fits the working responses ``f + y / expit(y f)``
    (scores ``f``, indicator ``y``; finite where the weights underflow) with
    the weights ``h = expit(f) expit(-f)``.  A class whose loss rises halves
    its step, up to ``_HALVINGS`` times, so no loss rises.  Stops after
    ``max_iters`` steps, once every class's gradient norm is at most
    ``tol * (1 + |loss|)``, or when no loss falls.  ``step_size`` is unused.
    Raises ``FloatingPointError`` naming a class separable at this ``alpha``.
    """
    # Local import: scipy.special adds ~0.07 s to start-up; only this baseline uses it.
    from scipy.special import expit

    represented = represent_matrix(ds.features, rep).T  # D' x n, as m_step takes it
    indicator = label_indicator(ds.labels, ds.num_classes)
    n, alpha = ds.n_samples, cfg.alpha
    columns = prepare_columns(represented)  # one per fit, shared by every Newton step

    def scores_and_loss(w, b):
        f = dgemm(1.0, w, represented) + b[:, None]
        return f, np.logaddexp(0.0, -indicator * f).sum(axis=1) / n + alpha * (w * w).sum(axis=1)

    weights, biases = np.zeros((ds.num_classes, represented.shape[0])), np.zeros(ds.num_classes)
    scores, loss = scores_and_loss(weights, biases)
    for _ in range(cfg.max_iters):
        slope = indicator * expit(-indicator * scores)  # -n d(loss)/d(scores)
        grad_w = 2.0 * alpha * weights - dgemm(1.0 / n, slope, represented, trans_b=1)
        grad_sq = (grad_w * grad_w).sum(axis=1) + (slope.sum(axis=1) / n) ** 2
        if np.all(np.sqrt(grad_sq) <= cfg.tol * (1.0 + np.abs(loss))):
            break
        h = expit(scores) * expit(-scores)
        working = scores + indicator / expit(indicator * scores)
        try:
            trial_w, trial_b = m_step(-h / 2.0, represented, working, alpha, columns=columns)
        except DegenerateClassError as exc:
            raise FloatingPointError(
                f"class {exc.class_index}: separable at alpha={alpha!r}, so its logistic "
                "weights diverge; use a larger alpha or tol"
            ) from exc
        for _ in range(_HALVINGS):
            trial_scores, trial = scores_and_loss(trial_w, trial_b)
            rose = ~(trial <= loss)  # a NaN loss counts as a rise
            if not rose.any():
                break
            trial_w[rose] = (trial_w[rose] + weights[rose]) / 2.0
            trial_b[rose] = (trial_b[rose] + biases[rose]) / 2.0
        fell = trial < loss  # a class still rising after the last halving keeps its iterate
        if not fell.any():
            break
        weights[fell], biases[fell] = trial_w[fell], trial_b[fell]
        scores[fell], loss[fell] = trial_scores[fell], trial[fell]
    return _assemble(weights, biases, rep, ds)
