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
    """A kernel function: ``linear`` (dot product) or ``rbf`` with a float bandwidth."""

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


@dataclass(frozen=True)
class Representation:
    """How samples are fed to predictors: raw features or kernel vectors.

    Kernel mode requires ``anchors`` (the training feature matrix, as a
    non-empty matrix) and a :class:`KernelSpec`; linear mode takes neither.
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
    """Kernel matrix ``K[i, j] = K(rows[i], cols[j])`` for two sample matrices."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
    if spec.kind == "linear":
        return rows @ cols.T
    # Local import: scipy.spatial adds ~0.1 s to start-up; only kernel mode uses it.
    from scipy.spatial.distance import cdist

    sq = cdist(rows, cols, metric="sqeuclidean")
    return np.exp(-sq / (2.0 * spec.bandwidth**2))


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
    finite = np.isfinite(X)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(f"row {row}: non-finite sample value")
    return gram(rep.kernel, X, rep.anchors)


def median_bandwidth(features: np.ndarray) -> float:
    """Median pairwise Euclidean distance over all sample pairs (1.0 if degenerate).

    The bandwidth heuristic used when no explicit rbf bandwidth is given.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] < 2:
        raise ValueError("median bandwidth needs at least 2 samples")
    from scipy.spatial.distance import pdist

    med = float(np.median(pdist(features)))
    return med if med > 0 else 1.0
