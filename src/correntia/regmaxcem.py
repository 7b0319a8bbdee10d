"""Correntropy-maximizing one-vs-all trainer (alternating auxiliary/ridge updates).

Training alternates two closed-form steps for ``T`` rounds, starting from
uniform auxiliary weights:

* the weight update (``m_step``) solves, for every class, a weighted ridge
  regression of the +-1 indicator targets on the represented samples, with
  per-sample weights supplied by the auxiliary matrix;
* the auxiliary update (``e_step``) sets each auxiliary entry to the
  negative Gaussian similarity of the current residual, so samples whose
  indicator is badly predicted (e.g. mislabeled ones) get their influence
  suppressed in the next round.

With a fixed kernel width the sequence of objective values is
non-decreasing: the auxiliary update is the exact maximizer of the
conjugate-augmented objective, provided the ridge term handed to the
weight update is rescaled by ``2 sigma^2`` (the conjugate maximizer is
``-g_sigma(r) / (2 sigma^2)``; keeping the auxiliary matrix itself as
``-g_sigma(r)`` and moving the ``2 sigma^2`` onto the ridge term is the
equivalent formulation used here).  The very first weight update sees the
uniform auxiliary matrix and uses the plain ridge parameter, which makes
it coincide with the closed-form square-loss baseline.

Training is deterministic: the per-class ridge solves are independent and
run one after another, and reruns with the same BLAS thread count give
identical models.  Every matrix product of training and scoring large
enough for BLAS to thread runs on the BLAS that scipy links (``dgemm``,
``dgemv``, ``dsyrk``, the Cholesky factor and solve), not through numpy's
``@``; only per-class dot products and the ``alpha = 0`` least-squares
solve stay on numpy.  The numpy and scipy wheels each bundle their own
OpenBLAS, each with its own thread pool, and OpenBLAS workers keep
spinning for a while after a call: switching libraries within a round
left one pool's idle workers taking the CPUs from the other's busy ones,
which made kernel training at two threads about twice as slow as at one.
Each product still uses the BLAS threads (``OPENBLAS_NUM_THREADS``), and a
different thread count can move the last bits of the parameters (a few
1e-12 on a 660-anchor kernel model).
Trained models are immutable and safe to share across threads.
"""

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# Kept at module level: deferred into m_step, its ~0.25 s import would land
# inside the first train() call instead of at `import correntia`.
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dgemm, dgemv, dsyrk

from .correntropy import SigmaPolicy, g_sigma, objective, sigma_heuristic
from .dataset import Dataset, label_indicator
from .kernels import KernelSpec, Representation, linear_representation, represent_matrix

__all__ = [
    "DegenerateClassError",
    "Model",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "e_step",
    "m_step",
    "train",
    "score_matrix",
    "predict_labels",
    "save_model",
    "load_model",
]

# L x N auxiliary matrix; entries are -g_sigma(residual), i.e. in [-1, 0).
AuxMatrix = np.ndarray

DEGENERATE_WEIGHT_SUM = 1e-12


class DegenerateClassError(RuntimeError):
    """Raised when every auxiliary weight of one class underflows to zero."""

    def __init__(self, class_index: int):
        self.class_index = class_index
        super().__init__(
            f"class {class_index}: all auxiliary weights are numerically zero; "
            f"cannot solve the weighted ridge step"
        )


@dataclass(frozen=True)
class Model:
    """A trained one-vs-all predictor bundle; construction checks every field.

    ``weights`` is a non-empty, finite ``L x D'`` matrix (``D' = D`` linear,
    the anchor count in kernel mode), ``biases`` has ``L`` finite entries and
    ``class_map`` is a list or tuple of ``L`` strings; class ``l`` scores a
    represented sample ``z`` as ``weights[l - 1] @ z + biases[l - 1]``.
    ``sigma_final`` is a number, stored as a float.  Else ``ValueError``.
    """

    weights: np.ndarray
    biases: np.ndarray
    representation: Representation
    sigma_final: float
    class_map: tuple[str, ...]

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        biases = np.asarray(self.biases, dtype=np.float64)
        if weights.ndim != 2 or weights.size == 0:
            raise ValueError(f"weights must be a non-empty matrix, got shape {weights.shape}")
        num_classes, dim = weights.shape
        if biases.shape != (num_classes,):
            raise ValueError(f"biases has shape {biases.shape} for {num_classes} weight rows")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise ValueError("model parameters must be finite")
        if not (
            isinstance(self.class_map, (list, tuple))
            and len(self.class_map) == num_classes
            and all(isinstance(name, str) for name in self.class_map)
        ):
            raise ValueError(f"class_map must list {num_classes} class names, one per weight row")
        if isinstance(self.sigma_final, bool) or not isinstance(self.sigma_final, numbers.Real):
            raise ValueError(f"sigma_final must be a number, got {self.sigma_final!r}")
        rep = self.representation
        if rep.mode == "kernel" and len(rep.anchors) != dim:
            raise ValueError(f"weights have {dim} columns for {len(rep.anchors)} kernel anchors")
        weights.setflags(write=False)
        biases.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "sigma_final", float(self.sigma_final))
        object.__setattr__(self, "class_map", tuple(self.class_map))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings.

    ``alpha`` is the regularization tradeoff, ``max_iters`` the round count
    ``T``, and ``tol`` stops early once the largest absolute parameter
    change in a round falls below it.  ``trace=True`` records per-round
    (objective, sigma, max parameter change).
    """

    alpha: float = 0.01
    max_iters: int = 20
    tol: float = 1e-6
    sigma_policy: SigmaPolicy = field(default_factory=SigmaPolicy.adaptive)
    representation: Representation = field(default_factory=linear_representation)
    trace: bool = False

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class TraceRecord:
    objective: float
    sigma: float
    max_param_change: float


@dataclass(frozen=True)
class TrainTrace:
    """Per-iteration training records (empty unless tracing was enabled)."""

    records: tuple[TraceRecord, ...] = ()

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]


def e_step(scores: np.ndarray, indicator: np.ndarray, sigma: float) -> AuxMatrix:
    """Auxiliary update: entrywise ``-g_sigma(scores - indicator)``.

    Entries lie in [-1, 0); an entry is exactly -1 where the residual is 0,
    and approaches 0 for large residuals (the sample is down-weighted).
    """
    scores = np.asarray(scores, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if scores.shape != indicator.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {indicator.shape}")
    return -g_sigma(scores - indicator, sigma)


def m_step(aux: AuxMatrix, represented: np.ndarray, indicator: np.ndarray, alpha: float):
    """Per-class weighted ridge solve given auxiliary weights.

    For every class ``l``, with ``u_i^2 = -aux[l, i] / N``, returns the
    unique stationary point of

        ``sum_i u_i^2 (w @ x_i + b - y_i)^2 + alpha ||w||^2``

    over represented columns ``x_i`` and indicator targets ``y_i``.
    Centering uses the ``u^2``-weighted means of samples and targets, which
    is what makes the bias gradient vanish exactly.  The ``D' x D'`` system
    is built, lower triangle only, by one symmetric rank-k update of the
    centered columns scaled by ``u``.  With ``alpha > 0`` it is symmetric
    positive definite in exact arithmetic and solved by Cholesky; with
    ``alpha = 0`` a least-squares solve is used instead (no definiteness
    guarantee).  The inputs are never modified.

    Parameters
    ----------
    aux : ndarray of shape (L, N)
        Auxiliary matrix with entries in [-1, 0).
    represented : ndarray of shape (D', N)
        Represented training samples, one column per sample.
    indicator : ndarray of shape (L, N)
        +-1 indicator targets.
    alpha : float
        Ridge parameter (>= 0).

    Returns
    -------
    (weights, biases) : ndarrays of shapes (L, D') and (L,)

    Raises
    ------
    ValueError
        If ``alpha < 0`` or the shapes disagree.
    DegenerateClassError
        If a class's auxiliary weights sum below 1e-12 (every sample
        down-weighted to numerical zero); the first such class is named.
    FloatingPointError
        If a system with ``alpha > 0`` is numerically not positive definite
        (near-singular data with a tiny ``alpha``); the class is named.
    """
    aux = np.asarray(aux, dtype=np.float64)
    # One memory order for every caller (``train`` already passes Fortran
    # order): BLAS rounds differently per layout, and dsyrk then reads the
    # centered columns in place.
    represented = np.asfortranarray(represented, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    num_classes, n = indicator.shape
    if aux.shape != indicator.shape:
        raise ValueError(f"aux shape {aux.shape} does not match indicator shape {indicator.shape}")
    if represented.shape[1] != n:
        raise ValueError(f"represented has {represented.shape[1]} columns, expected {n}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    dim = represented.shape[0]

    u_sq = -aux / n
    u = np.sqrt(u_sq)
    degenerate = np.flatnonzero(u.sum(axis=1) < DEGENERATE_WEIGHT_SUM)
    if degenerate.size:
        raise DegenerateClassError(int(degenerate[0]) + 1)
    totals = u_sq.sum(axis=1)
    # Built C-ordered (D' x L): the bias dot below then reads its columns with
    # a stride, and a contiguous read would round the biases differently.
    x_means = dgemm(1.0, u_sq.T, represented, trans_a=1, trans_b=1).T / totals
    # Row-wise dot products as a batched matmul round like a per-row dot;
    # the near-tied biases of a collapsed model depend on those last bits.
    y_means = (indicator[:, None, :] @ u_sq[:, :, None]).ravel() / totals

    weights = np.empty((num_classes, dim))
    biases = np.empty(num_classes)
    diagonal = np.diag_indices(dim)
    for l in range(num_classes):
        scaled = represented - x_means[:, l, None]
        scaled *= u[l]
        rhs = dgemv(1.0, scaled, u[l] * (indicator[l] - y_means[l]))
        system = dsyrk(1.0, scaled, lower=1)  # scaled @ scaled.T, lower triangle only
        if alpha > 0:
            system[diagonal] += alpha
            try:
                factor = cho_factor(system, lower=True, overwrite_a=True)
            except np.linalg.LinAlgError as exc:
                raise FloatingPointError(
                    f"class {l + 1}: the weighted ridge system is not positive definite; "
                    f"alpha={alpha!r} is too small for near-singular data, use a larger alpha"
                ) from exc
            w = cho_solve(factor, rhs)
        else:
            system = np.tril(system) + np.tril(system, -1).T
            w, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        weights[l] = w
        biases[l] = y_means[l] - w @ x_means[:, l]
    return weights, biases


def train(ds: Dataset, cfg: TrainConfig) -> tuple[Model, TrainTrace]:
    """Run the alternating trainer on ``ds`` and return (model, trace).

    Each round does the weight update first (using the auxiliary matrix
    from the previous round; the initial matrix is all -1, i.e. uniform
    weights) and the auxiliary update second.  Under the adaptive sigma
    policy the kernel width is recomputed from the current residuals
    immediately before each auxiliary update.  Stops after ``max_iters``
    rounds or as soon as the largest absolute parameter change in a round
    drops below ``tol``.
    """
    rep = cfg.representation
    represented = represent_matrix(ds.features, rep).T  # D' x N
    indicator = label_indicator(ds.labels, ds.num_classes)
    n = ds.n_samples

    policy = cfg.sigma_policy
    sigma = policy.sigma if policy.mode == "fixed" else None
    aux = -np.ones((ds.num_classes, n))
    ridge = cfg.alpha  # plain on the uniform first round, 2 sigma^2 alpha afterwards
    prev_w = np.zeros((ds.num_classes, represented.shape[0]))
    prev_b = np.zeros(ds.num_classes)
    records = []

    for _ in range(cfg.max_iters):
        weights, biases = m_step(aux, represented, indicator, ridge)
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise FloatingPointError(
                "non-finite parameters in the weight update; "
                "alpha is likely too small for near-singular data"
            )
        # weights @ represented, as the transpose of an F-ordered N x L product
        scores = dgemm(1.0, represented, weights.T, trans_a=1).T + biases[:, None]
        if policy.mode == "adaptive":
            sigma = sigma_heuristic(scores, indicator, policy.floor)
        aux = e_step(scores, indicator, sigma)
        ridge = 2.0 * sigma * sigma * cfg.alpha
        delta = max(
            float(np.max(np.abs(weights - prev_w))), float(np.max(np.abs(biases - prev_b)))
        )
        if cfg.trace:
            value = objective(scores, indicator, weights, sigma, cfg.alpha)
            if not np.isfinite(value):
                raise FloatingPointError("non-finite training objective")
            records.append(TraceRecord(value, sigma, delta))
        prev_w, prev_b = weights, biases
        if delta < cfg.tol:
            break

    model = Model(
        weights=prev_w,
        biases=prev_b,
        representation=rep,
        sigma_final=float(sigma),
        class_map=ds.label_names,
    )
    return model, TrainTrace(tuple(records))


def score_matrix(model: Model, X) -> np.ndarray:
    """Class scores ``w_l @ z + b_l`` for each represented row ``z`` of ``X``, shape ``(n, L)``.

    A single 1-D sample is scored as a batch of one.  Raises ``ValueError``
    naming the first row whose scores are not finite, so a non-finite
    feature never yields a silent prediction.
    """
    Z = represent_matrix(X, model.representation)
    if Z.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"represented dimension {Z.shape[1]} does not match model dimension "
            f"{model.weights.shape[1]}"
        )
    if Z.shape[0] == 1:  # by gemv, so that a lone sample rounds as ``z @ W.T`` does
        scores = dgemv(1.0, model.weights.T, Z[0], trans=1)[None, :] + model.biases
    else:
        scores = dgemm(1.0, model.weights.T, Z.T, trans_a=1).T + model.biases
    finite = np.isfinite(scores)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ValueError(f"row {row}: non-finite scores from non-finite or overflowing features")
    return scores


def predict_labels(model: Model, X) -> np.ndarray:
    """Argmax class index in ``1..L`` for each row of ``X``; ties go to the smallest index."""
    return np.argmax(score_matrix(model, X), axis=1) + 1


_MODEL_FORMAT = "correntia-model"
_MODEL_KEYS = [f.name for f in fields(Representation) + fields(Model) if f.name != "representation"]


def save_model(model: Model, path) -> None:
    """Write a model to a self-describing JSON file.

    The keys are the fields of ``Model`` and of its ``Representation``, plus
    ``format`` and ``version``.  Floats round-trip exactly through their
    shortest decimal repr, so a loaded model reproduces predictions
    bit-identically on the same platform.
    """
    payload = asdict(model)
    payload.update(payload.pop("representation"), format=_MODEL_FORMAT, version=1)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=np.ndarray.tolist)
        handle.write("\n")


def load_model(path) -> Model:
    """Load a model written by :func:`save_model`.

    Raises ``ValueError`` starting with ``path`` when the file is not JSON,
    not a version-1 correntia model, lacks a key, or holds values that
    :class:`Model`, :class:`~correntia.kernels.Representation` or
    :class:`~correntia.kernels.KernelSpec` reject.  (In linear mode ``D'``
    is checked against the data when it is scored.)
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _model_from_payload(json.load(handle))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _numbers(value, key: str, ndim: int) -> np.ndarray:
    try:
        array = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        array = np.empty(0)
    if array.ndim != ndim or array.size == 0:
        shape = "matrix" if ndim == 2 else "list"
        raise ValueError(f"{key} must be a non-empty {shape} of numbers")
    return array


def _model_from_payload(payload) -> Model:
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise ValueError("not a correntia model file")
    version = payload.get("version")
    if version != 1 or isinstance(version, bool):
        raise ValueError(f"unsupported model file version {version!r}, expected 1")
    missing = [key for key in _MODEL_KEYS if key not in payload]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    kernel, anchors = payload["kernel"], payload["anchors"]
    if not (kernel is None or isinstance(kernel, dict) and kernel.keys() == {"kind", "bandwidth"}):
        raise ValueError("kernel must be null or an object with just the keys kind and bandwidth")
    return Model(
        weights=_numbers(payload["weights"], "weights", 2),
        biases=_numbers(payload["biases"], "biases", 1),
        representation=Representation(
            mode=payload["mode"],
            anchors=None if anchors is None else _numbers(anchors, "anchors", 2),
            kernel=None if kernel is None else KernelSpec(**kernel),
        ),
        sigma_final=payload["sigma_final"],
        class_map=payload["class_map"],
    )
