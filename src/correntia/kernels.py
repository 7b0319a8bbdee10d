"""Sample representation: identity (linear) or kernel vector against anchors.

In kernel mode a sample ``x`` is represented by its kernel evaluations
``[K(a_1, x), ..., K(a_N, x)]`` against the ``N`` training anchors, so the
downstream predictor dimension becomes ``N`` instead of ``D`` (and the ridge
identity in the trainer becomes ``N x N``).  Everything here is a pure
function of immutable inputs.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .correntropy import _check_width

__all__ = [
    "KernelSpec",
    "Representation",
    "gram",
    "represent_matrix",
    "median_bandwidth",
    "linear_representation",
    "kernel_representation",
]

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function: ``linear`` (dot product) or ``rbf`` with a float bandwidth.

    An rbf bandwidth must be finite and > 0, and ``2 * bandwidth**2`` must
    not underflow to 0 (the same check as a correntropy sigma).
    """

    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.bandwidth is not None:
            if isinstance(self.bandwidth, bool) or not isinstance(self.bandwidth, numbers.Real):
                raise ValueError(f"kernel needs a numeric bandwidth, got {self.bandwidth!r}")
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        if self.kind == "rbf" and (self.bandwidth is None or not self.bandwidth > 0):
            raise ValueError(f"rbf kernel needs bandwidth > 0, got {self.bandwidth}")
        if self.kind == "rbf":
            _check_width("rbf kernel bandwidth", self.bandwidth)


@dataclass(frozen=True)
class Representation:
    """How samples are fed to predictors: raw features or kernel vectors.

    Kernel mode requires ``anchors`` (the training feature matrix, as a
    non-empty, finite matrix) and a :class:`KernelSpec`; linear mode takes
    neither.
    """

    mode: str
    anchors: np.ndarray | None = None
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.mode == "linear":
            if self.anchors is not None or self.kernel is not None:
                raise ValueError("linear mode takes no anchors and no kernel")
        elif self.mode == "kernel":
            anchors = np.ascontiguousarray(self.anchors, dtype=np.float64)  # None: 1-D, rejected
            if anchors.ndim != 2 or anchors.size == 0:
                raise ValueError("kernel mode requires non-empty anchors, one row per anchor")
            if not np.all(np.isfinite(anchors)):  # a NaN anchor makes every score NaN, inf 0
                raise ValueError("kernel anchors must be finite")
            if not isinstance(self.kernel, KernelSpec):
                raise ValueError(f"kernel mode requires a KernelSpec, got {self.kernel!r}")
            anchors.setflags(write=False)
            object.__setattr__(self, "anchors", anchors)
        else:
            raise ValueError(f"unknown representation mode {self.mode!r}")


def linear_representation() -> Representation:
    return Representation(mode="linear")


def kernel_representation(anchors: np.ndarray, kernel: KernelSpec) -> Representation:
    return Representation(mode="kernel", anchors=anchors, kernel=kernel)


def gram(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Kernel matrix ``K[i, j] = K(rows[i], cols[j])`` for two sample matrices.

    A linear kernel whose dot products overflow raises ``ValueError`` naming
    the first such row of ``rows``.  An rbf kernel cannot overflow.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    if spec.kind == "linear":
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by row
            product = rows @ cols.T
        finite = np.isfinite(product)
        if not finite.all():
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise ValueError(f"row {row}: the linear kernel overflows; rescale the features")
        return product
    # Local import: scipy.spatial adds ~0.1 s to start-up; only kernel mode uses it.
    from scipy.spatial.distance import cdist

    # exp(-d / (2 b^2)), each step written into cdist's own output: fresh
    # temporaries of this size cost more in page faults than in arithmetic
    kernel = cdist(rows, cols, metric="sqeuclidean")
    # d / (-2 b^2) has the bits of -d / (2 b^2): IEEE division is sign-symmetric
    with np.errstate(over="ignore"):  # a quotient of -inf gives the exact limit 0
        np.divide(kernel, -2.0 * spec.bandwidth**2, out=kernel)
        return np.exp(kernel, out=kernel)


def represent_matrix(X: np.ndarray, rep: Representation) -> np.ndarray:
    """Represent samples (one row each, or a single 1-D sample) as an ``n x D'`` matrix.

    Kernel mode rejects non-finite samples with a ``ValueError`` naming the
    first such row: an rbf kernel would map them to an all-zero row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if rep.mode == "linear":
        return X
    if X.shape[1] != rep.anchors.shape[1]:
        raise ValueError(
            f"sample dimension {X.shape[1]} does not match anchor dimension {rep.anchors.shape[1]}"
        )
    _check_finite_rows(X)
    return gram(rep.kernel, X, rep.anchors)


def _check_finite_rows(X: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first row of ``X`` with a non-finite value."""
    finite = np.isfinite(X)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(f"row {row}: non-finite sample value")


def median_bandwidth(features: np.ndarray) -> float:
    """Median pairwise Euclidean distance over all sample pairs (1.0 if degenerate).

    The bandwidth heuristic used when no explicit rbf bandwidth is given.
    A non-finite feature raises ``ValueError`` naming its row, as in
    :func:`represent_matrix`: its distances would make the median NaN.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] < 2:
        raise ValueError("median bandwidth needs at least 2 samples")
    _check_finite_rows(features)
    from scipy.spatial.distance import pdist

    med = float(np.median(pdist(features)))
    return med if med > 0 else 1.0
