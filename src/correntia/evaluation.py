"""Metrics and significance testing: accuracy, ROC/PR curves, AUC, paired t-test.

Threshold sweeps group tied scores at a single threshold, which makes the
curves order-independent and makes trapezoid AUC coincide exactly with the
tie-corrected pairwise ranking probability (the Mann-Whitney statistic).
Truth vectors are boolean masks (any nonzero value counts as positive).
The curves, AUC and the paired t statistic are computed here; only the
Student-t tail comes from a library, as ``scipy.special.betainc``.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConfusionCounts",
    "Curve",
    "DegenerateDifferencesError",
    "accuracy",
    "confusion_counts",
    "roc_curve",
    "auc",
    "pr_curve",
    "paired_ttest",
    "student_t_sf",
    "multiclass_binary_scores",
]


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True, eq=False)
class Curve:
    """A swept ROC (x=FPR, y=TPR) or PR (x=recall, y=precision) curve.

    Three equal-length read-only float64 arrays, one entry per threshold,
    from the ``inf`` start down the distinct scores.  Two curves are equal
    when all three arrays are exactly equal.
    """

    threshold: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            array = np.array(getattr(self, f.name), dtype=np.float64)
            array.setflags(write=False)
            object.__setattr__(self, f.name, array)
        if not (self.x.ndim == 1 and self.threshold.shape == self.x.shape == self.y.shape):
            shapes = (self.threshold.shape, self.x.shape, self.y.shape)
            raise ValueError(f"curve arrays must be equal-length vectors, got shapes {shapes}")

    def __eq__(self, other):
        return isinstance(other, Curve) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


class DegenerateDifferencesError(ValueError):
    """Paired differences have zero variance; the t statistic is undefined."""


def accuracy(pred, truth) -> float:
    """Fraction of exact matches between two equal-length label vectors."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("cannot compute accuracy of empty vectors")
    return float(np.mean(pred == truth))


def _scores_and_truth(scores, truth):
    """``scores`` as float64 and ``truth`` as a boolean mask of the same shape."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if scores.shape != truth.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {truth.shape}")
    return scores, truth


def confusion_counts(scores, truth, threshold: float) -> ConfusionCounts:
    """Counts at one threshold; a sample is predicted positive iff score >= threshold."""
    scores, truth = _scores_and_truth(scores, truth)
    predicted = scores >= threshold
    tp = int(np.sum(predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    tn = int(np.sum(~predicted & ~truth))
    fn = int(np.sum(~predicted & truth))
    return ConfusionCounts(tp, fp, tn, fn)


def _sweep(scores, truth):
    """Thresholds and cumulative (tp, fp) counts, starting at ``(inf, 0, 0)``.

    After the start comes one entry per distinct score, descending, so the
    last entry holds the numbers of positives and of negatives.
    """
    scores, truth = _scores_and_truth(scores, truth)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    # last index of each tied group; the appended NaN closes the last one
    group_ends = np.flatnonzero(np.diff(sorted_scores, append=np.nan))
    thresholds = np.concatenate(([math.inf], sorted_scores[group_ends]))
    tp_cum = np.concatenate(([0], np.cumsum(sorted_truth)[group_ends]))
    fp_cum = np.concatenate(([0], np.cumsum(~sorted_truth)[group_ends]))
    return thresholds, tp_cum, fp_cum


def roc_curve(scores, truth) -> Curve:
    """ROC curve (x=FPR, y=TPR) swept over distinct score thresholds, descending.

    Tied scores are grouped at one threshold.  The curve starts at (0, 0)
    and ends at (1, 1); both coordinates are non-decreasing along it.
    Requires at least one positive and one negative sample.
    """
    thresholds, tp, fp = _sweep(scores, truth)
    if tp[-1] == 0 or fp[-1] == 0:
        raise ValueError("ROC needs at least one positive and one negative sample")
    return Curve(thresholds, fp / fp[-1], tp / tp[-1])


def auc(curve: Curve) -> float:
    """Trapezoid-rule area under a curve from :func:`roc_curve`."""
    if curve.x.size < 2:
        raise ValueError("need at least 2 curve points")
    return float(np.sum((curve.y[1:] + curve.y[:-1]) * np.diff(curve.x)) / 2.0)


def pr_curve(scores, truth) -> Curve:
    """Precision-recall curve (x=recall, y=precision) over the same threshold sweep.

    By convention the zero-predicted-positives point has precision 1.
    Requires at least one positive sample.
    """
    thresholds, tp, fp = _sweep(scores, truth)
    if tp[-1] == 0:
        raise ValueError("PR curve needs at least one positive sample")
    predicted = tp + fp
    precision = np.divide(tp, predicted, out=np.ones(tp.size), where=predicted > 0)
    return Curve(thresholds, tp / tp[-1], precision)


def student_t_sf(t: float, df: int) -> float:
    """Two-sided Student-t tail probability ``P(|T| >= |t|)`` with ``df`` degrees."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    # Local import: scipy.special adds ~0.07 s to start-up; only the t-test uses it here.
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def paired_ttest(a, b) -> tuple[float, float]:
    """Two-sided paired t-test on matched samples; returns ``(t, p)``.

    ``t = mean(d) / (sd(d) / sqrt(n))`` over the differences ``d = a - b``
    with ``n - 1`` degrees of freedom.  Raises
    :class:`DegenerateDifferencesError` when the differences are all
    identical (zero variance), rather than reporting a meaningless p = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"need two equal-length vectors, got {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 paired samples, got {n}")
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise DegenerateDifferencesError(
            "paired differences are all identical; t statistic undefined"
        )
    t = float(np.mean(d)) / (sd / math.sqrt(n))
    return t, student_t_sf(t, n - 1)


def multiclass_binary_scores(scores, labels, positive_class: int):
    """One-vs-rest binarization of an ``n x L`` score matrix for one class.

    Returns ``(column, truth)`` where ``column`` holds the scores of
    ``positive_class`` (``1..L``) and ``truth`` marks the samples whose label
    equals it.  The pair feeds :func:`roc_curve` / :func:`pr_curve`.
    """
    scores = np.asarray(scores)
    num_classes = scores.shape[1]
    if not 1 <= positive_class <= num_classes:
        raise ValueError(f"positive_class {positive_class} out of range 1..{num_classes}")
    return scores[:, positive_class - 1], np.asarray(labels) == positive_class
