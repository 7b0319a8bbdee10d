"""Correntropy primitives: Gaussian similarity, sample estimator, objective.

Correntropy compares two variables by averaging a Gaussian kernel of their
differences; it is bounded in (0, 1] and saturates for large residuals,
which is what makes it robust to outlying labels.  The combined training
objective rewards correntropy between scores and indicator targets while
penalizing predictor weight norms.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SigmaPolicy",
    "g_sigma",
    "correntropy_estimate",
    "sigma_heuristic",
    "objective",
]

DEFAULT_SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class SigmaPolicy:
    """How the Gaussian kernel width is chosen during training.

    ``fixed`` uses the given sigma for every iteration (the setting under
    which the trainer's ascent guarantee holds); ``adaptive`` recomputes
    sigma from the current residuals before each auxiliary-weight update.
    The floor guards against sigma collapsing to zero when residuals vanish.
    """

    mode: str
    sigma: float | None = None
    floor: float = DEFAULT_SIGMA_FLOOR

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")
        if self.mode == "fixed":
            _check_width("fixed sigma", self.sigma)
        _check_width("sigma floor", self.floor)

    @classmethod
    def fixed(cls, sigma: float, floor: float = DEFAULT_SIGMA_FLOOR) -> "SigmaPolicy":
        return cls(mode="fixed", sigma=sigma, floor=floor)

    @classmethod
    def adaptive(cls, floor: float = DEFAULT_SIGMA_FLOOR) -> "SigmaPolicy":
        return cls(mode="adaptive", floor=floor)


def _check_width(name: str, value) -> None:
    """Reject a kernel width that is not > 0 (NaN and None included) or whose ``2 value^2`` is 0."""
    if value is None or not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not 2.0 * value * value > 0:
        raise ValueError(f"{name} {value} is too small: 2 * {value}**2 underflows to 0")


def g_sigma(x, sigma: float):
    """Gaussian similarity ``exp(-x^2 / (2 sigma^2))``; even, in [0, 1].

    Accepts scalars or arrays and evaluates elementwise.  A quotient that
    overflows to -inf gives the exact limit 0, without a warning.
    """
    _check_width("sigma", sigma)
    with np.errstate(over="ignore"):
        return np.exp(-np.square(x) / (2.0 * sigma * sigma))


def correntropy_estimate(a, b, sigma: float) -> float:
    """Sample correntropy between two equal-length vectors: mean of g_sigma(a - b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("correntropy of empty vectors is undefined")
    return float(np.mean(g_sigma(a - b, sigma)))


def sigma_heuristic(scores: np.ndarray, indicator: np.ndarray, floor: float = DEFAULT_SIGMA_FLOOR) -> float:
    """Kernel width from residuals: half the mean squared score-indicator gap.

    Computes ``sum((scores - indicator)^2) / (2 L N)`` over the ``L x N``
    matrices and floors the result.  Note the mean squared residual is
    assigned to sigma itself, not sigma squared; that convention is kept
    deliberately (see the module docs on heuristics).
    """
    scores = np.asarray(scores, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if scores.shape != indicator.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {indicator.shape}")
    value = float(np.sum((scores - indicator) ** 2)) / (2.0 * scores.shape[0] * scores.shape[1])
    return max(value, floor)


def objective(scores, indicator, weights, sigma: float, alpha: float) -> float:
    """Regularized correntropy objective (to be maximized).

    ``mean(g_sigma(scores - indicator)) - (alpha / L) * sum_l ||w_l||^2``
    over the ``L x N`` score/indicator matrices and the ``L`` weight vectors.
    The correntropy term lies in (0, 1], so the value is at most 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if scores.shape != indicator.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {indicator.shape}")
    num_classes = scores.shape[0]
    if len(weights) != num_classes:
        raise ValueError(f"expected {num_classes} weight vectors, got {len(weights)}")
    fit = float(np.mean(g_sigma(scores - indicator, sigma)))
    penalty = sum(float(np.sum(np.square(w))) for w in weights)
    return fit - alpha / num_classes * penalty
