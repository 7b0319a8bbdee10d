"""One-vs-all baselines with classical losses: square, hinge, logistic.

Each trainer fits the same per-class +-1 indicator targets on the same
representation pipeline and returns the shared :class:`~correntia.regmaxcem.Model`
type, so the baselines are drop-in comparands for prediction and
evaluation.  All optimization is full-batch and deterministic (no
stochastic sampling), keeping experiments reproducible without any seed
interplay.  The 0-1 loss appears only as the accuracy metric, never as a
training objective.

The hinge and logistic trainers take damped Newton steps, each a weighted
ridge solve by the same :func:`m_step` that the square and correntropy
trainers use, on columns prepared once per fit (in kernel mode reduced
once to the range of the Gram's columns that a pivoted Cholesky picks;
see :func:`~correntia.regmaxcem.prepare_columns`).  The hinge trainer
minimizes the squared hinge (the L2-SVM), whose Newton step is exact on
the current active set; the logistic trainer is iteratively reweighted
least squares.  No trainer takes a step size.
"""

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

__all__ = ["BaselineConfig", "train_square", "train_hinge", "train_logistic"]


@dataclass(frozen=True)
class BaselineConfig:
    """Settings for the iterative baselines, :func:`train_hinge` and :func:`train_logistic`.

    ``tol`` is the logistic gradient-norm stop, ``||gradient|| <= tol * (1 +
    |loss|)`` per class; the hinge trainer stops on its active sets instead.
    The closed-form :func:`train_square` takes only ``alpha``.
    ``alpha`` must be finite and >= 0 and ``max_iters`` an integer >= 1, as
    in :class:`~correntia.regmaxcem.TrainConfig`; else ``ValueError``.
    """

    alpha: float = 0.01
    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_max_iters(self.max_iters)
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


# Step halvings a class whose loss rose may take within one Newton step
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
    """Finite Newton steps on the squared hinge (the L2-SVM), each one :func:`m_step` call.

    Minimizes ``mean(max(0, 1 - scores * indicator)^2) + alpha ||w_l||^2`` per
    class (Keerthi and DeCoste, JMLR 2005).  A step fits the indicator on the
    class's active set, the samples with ``indicator * scores < 1``: there the
    loss term is ``(scores - indicator)^2``, so the step is one weighted ridge
    solve.  A class whose loss rises halves its step, up to ``_HALVINGS``
    times, so no loss rises.  A class stops once a full step leaves its active
    set unchanged, which makes that step the exact minimizer, or once its
    active set is empty (a class absent from the labels ends at ``w = 0`` and
    ``b = -1``, to rounding); the fit stops when every class has, when no
    loss falls, or after ``max_iters`` steps.  ``tol`` is unused.  Raises the
    ``FloatingPointError`` of a failed ridge solve, naming the class.
    """
    represented = represent_matrix(ds.features, rep).T  # D' x n, as m_step takes it
    indicator = label_indicator(ds.labels, ds.num_classes)
    n, alpha = ds.n_samples, cfg.alpha
    columns = prepare_columns(represented)  # one per fit, shared by every Newton step

    def scores_and_loss(w, b):
        f = dgemm(1.0, w, represented) + b[:, None]
        short = np.maximum(0.0, 1.0 - indicator * f)  # how far each margin falls short of 1
        return f, (short * short).sum(axis=1) / n + alpha * (w * w).sum(axis=1)

    weights, biases = np.zeros((ds.num_classes, represented.shape[0])), np.zeros(ds.num_classes)
    scores, loss = scores_and_loss(weights, biases)
    active = indicator * scores < 1.0  # every sample, at the zero start
    moving = np.ones(ds.num_classes, dtype=bool)
    for _ in range(cfg.max_iters):
        trial_w, trial_b = weights.copy(), biases.copy()
        rows = np.flatnonzero(moving)
        try:
            trial_w[rows], trial_b[rows] = m_step(
                -1.0 * active[rows], represented, indicator[rows], alpha, columns=columns
            )
        except FloatingPointError as exc:  # m_step names the class by its row in this call
            row, reason = str(exc).split(": ", 1)
            number = rows[int(row.removeprefix("class ")) - 1] + 1
            raise FloatingPointError(f"class {number}: {reason}") from exc
        fell, halved = _descend(scores_and_loss, weights, biases, scores, loss, trial_w, trial_b)
        stepped, active = active, indicator * scores < 1.0
        moving &= fell & active.any(axis=1) & (halved | (active != stepped).any(axis=1))
        if not moving.any():
            break
    return _assemble(weights, biases, rep, ds)


def _descend(scores_and_loss, weights, biases, scores, loss, trial_w, trial_b):
    """Move each class from ``(weights, biases)`` toward its trial point, so that no loss rises.

    A class whose loss rises (a NaN loss counts as a rise) halves its step,
    up to ``_HALVINGS`` times.  ``weights``, ``biases``, ``scores`` and
    ``loss`` take the new values of the classes whose loss fell; a class
    still rising after the last halving keeps its iterate.  Returns the mask
    of those classes and the mask of the classes whose step was halved.
    """
    halved = np.zeros(loss.shape, dtype=bool)
    for _ in range(_HALVINGS):
        trial_scores, trial = scores_and_loss(trial_w, trial_b)
        rose = ~(trial <= loss)
        if not rose.any():
            break
        halved |= rose
        trial_w[rose] = (trial_w[rose] + weights[rose]) / 2.0
        trial_b[rose] = (trial_b[rose] + biases[rose]) / 2.0
    fell = trial < loss
    weights[fell], biases[fell] = trial_w[fell], trial_b[fell]
    scores[fell], loss[fell] = trial_scores[fell], trial[fell]
    return fell, halved


def train_logistic(ds: Dataset, rep: Representation, cfg: BaselineConfig) -> Model:
    """Damped Newton steps (IRLS) on the logistic loss, each one :func:`m_step` call.

    Minimizes ``mean(log(1 + exp(-scores * indicator))) + alpha ||w_l||^2``
    per class.  A step fits the working responses ``f + y / expit(y f)``
    (scores ``f``, indicator ``y``; finite where the weights underflow) with
    the weights ``h = expit(f) expit(-f)``.  A class whose loss rises halves
    its step, up to ``_HALVINGS`` times, so no loss rises.  Stops after
    ``max_iters`` steps, once every class's gradient norm is at most
    ``tol * (1 + |loss|)``, or when no loss falls.
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
        fell, _ = _descend(scores_and_loss, weights, biases, scores, loss, trial_w, trial_b)
        if not fell.any():
            break
    return _assemble(weights, biases, rep, ds)
