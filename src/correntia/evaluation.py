"""Metrics and significance testing: accuracy, ROC/PR curves, AUC, paired t-test.

Threshold sweeps group tied scores at a single threshold, which makes the
curves order-independent and makes trapezoid AUC coincide exactly with the
tie-corrected pairwise ranking probability (the Mann-Whitney statistic).
Truth vectors are boolean masks (any nonzero value counts as positive).
The curves, AUC and the paired t statistic are computed here; only the
Student-t tail comes from a library, as ``scipy.special.betainc``.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "ConfusionCounts",
    "CurvePoint",
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


class CurvePoint(NamedTuple):
    """One swept point of a ROC (x=FPR, y=TPR) or PR (x=recall, y=precision) curve."""

    x: float
    y: float
    threshold: float


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


def _as_binary(truth) -> np.ndarray:
    truth = np.asarray(truth)
    out = truth.astype(bool)
    return out


def confusion_counts(scores, truth, threshold: float) -> ConfusionCounts:
    """Counts at one threshold; a sample is predicted positive iff score >= threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = _as_binary(truth)
    if scores.shape != truth.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {truth.shape}")
    predicted = scores >= threshold
    tp = int(np.sum(predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    tn = int(np.sum(~predicted & ~truth))
    fn = int(np.sum(~predicted & truth))
    return ConfusionCounts(tp, fp, tn, fn)


def _sweep(scores, truth):
    """Cumulative (tp, fp) after each distinct descending threshold."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    # last index of each tied group
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    group_ends = np.concatenate([distinct, [scores.size - 1]])
    tp_cum = np.cumsum(sorted_truth)[group_ends]
    fp_cum = np.cumsum(~sorted_truth)[group_ends]
    thresholds = sorted_scores[group_ends]
    return thresholds, tp_cum, fp_cum


def roc_curve(scores, truth) -> list[CurvePoint]:
    """ROC points (FPR, TPR) swept over distinct score thresholds, descending.

    Tied scores are grouped at one threshold.  The curve starts at (0, 0)
    and ends at (1, 1); both coordinates are non-decreasing along it.
    Requires at least one positive and one negative sample.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = _as_binary(truth)
    if scores.shape != truth.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {truth.shape}")
    pos = int(np.sum(truth))
    neg = truth.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs at least one positive and one negative sample")
    thresholds, tp_cum, fp_cum = _sweep(scores, truth)
    points = [CurvePoint(0.0, 0.0, math.inf)]
    for thr, tp, fp in zip(thresholds, tp_cum, fp_cum):
        points.append(CurvePoint(float(fp / neg), float(tp / pos), float(thr)))
    return points


def auc(curve: list[CurvePoint]) -> float:
    """Trapezoid-rule area under a curve from :func:`roc_curve`."""
    if len(curve) < 2:
        raise ValueError("need at least 2 curve points")
    xs = np.array([p.x for p in curve])
    ys = np.array([p.y for p in curve])
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(xs)) / 2.0)


def pr_curve(scores, truth) -> list[CurvePoint]:
    """Precision-recall points (recall, precision) over the same threshold sweep.

    By convention the zero-predicted-positives point has precision 1.
    Requires at least one positive sample.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = _as_binary(truth)
    if scores.shape != truth.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {truth.shape}")
    pos = int(np.sum(truth))
    if pos == 0:
        raise ValueError("PR curve needs at least one positive sample")
    thresholds, tp_cum, fp_cum = _sweep(scores, truth)
    points = [CurvePoint(0.0, 1.0, math.inf)]
    for thr, tp, fp in zip(thresholds, tp_cum, fp_cum):
        points.append(CurvePoint(float(tp / pos), float(tp / (tp + fp)), float(thr)))
    return points


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
