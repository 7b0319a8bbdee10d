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

The represented columns stay the same for a whole fit, and in a sweep for
every fit on one split, so they are prepared once (``prepare_columns``):
checked, shifted by their unweighted mean and kept only as coordinates in
an orthonormal basis of their numerical range, ``r`` wide: the identity
when there are fewer represented dimensions ``D'`` than samples ``N``, else
found by a pivoted Cholesky for a kernel Gram, O(N^2 r) (105 to 108 of
660 columns kept on an rbf kernel fit), or by a column-pivoted QR, O(N^3).
Every round's weight update factors one ``r x r`` system per class from
the coordinates, by Cholesky through LAPACK's ``dpotrf`` and ``dpotrs``,
and every trainer, here and in the baselines, scores its rounds from them
(``PreparedColumns.scores``), O(r N L).  A kernel fit thus costs one
reduction, O(N^2 r), then O(L r^2 N) per round.

Training is deterministic: the per-class ridge solves are independent and
run one after another, and reruns with the same BLAS thread count give
identical models.  Every matrix product of training and scoring large
enough for BLAS to thread runs on the BLAS that scipy links (``dgemm``,
``dgemv``, ``dsyrk``, ``dsyr``, and the pivoted Cholesky, the QRs and the
Cholesky factor and solve on its LAPACK), not through numpy's ``@``; only
per-class dot products and the ``alpha = 0`` least-squares solve stay on
numpy.  The numpy and scipy wheels each bundle their own OpenBLAS, each
with its own thread pool, and OpenBLAS workers keep spinning for a while
after a call: switching libraries within a round left one pool's idle
workers taking the CPUs from the other's busy ones, which made kernel
training at two threads about twice as slow as at one.  Each product
still uses the BLAS threads (``OPENBLAS_NUM_THREADS``), and a different
thread count can move the last bits of the parameters (about 2e-13 of the
largest weight on a 660-anchor kernel model).  Trained models are
immutable and safe to share across threads.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

# Kept at module level: deferred into m_step, its ~0.25 s import would land
# inside the first train() call instead of at `import correntia`.
from scipy.linalg.blas import dgemm, dgemv, dsyr, dsyrk
from scipy.linalg.lapack import dgemqrt, dgeqp3, dgeqrt, dorgqr, dpotrf, dpotrs, dpstrf

from .correntropy import SigmaPolicy, g_sigma, objective, sigma_heuristic
from .dataset import Dataset, _check_distinct, label_indicator
from .kernels import KernelSpec, Representation, linear_representation, represent_matrix

__all__ = [
    "DegenerateClassError",
    "Model",
    "PreparedColumns",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "e_step",
    "m_step",
    "prepare_columns",
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
    ``class_map`` is a list or tuple of ``L`` distinct strings; class ``l``
    scores a represented sample ``z`` as ``weights[l - 1] @ z + biases[l - 1]``.
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
        _check_distinct(self.class_map, "class_map name")
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

    ``alpha`` is the regularization tradeoff (finite, >= 0), ``max_iters``
    the round count ``T`` (an integer >= 1), and ``tol`` stops early once
    the largest absolute parameter change in a round falls below it.
    ``trace=True`` records per-round (objective, sigma, max parameter
    change).  A value out of range raises ``ValueError``.
    """

    alpha: float = 0.01
    max_iters: int = 20
    tol: float = 1e-6
    sigma_policy: SigmaPolicy = field(default_factory=SigmaPolicy.adaptive)
    representation: Representation = field(default_factory=linear_representation)
    trace: bool = False

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_max_iters(self.max_iters)
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


def _check_alpha(alpha) -> None:
    """Raise ``ValueError`` unless ``alpha`` is a finite number >= 0."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def _check_max_iters(max_iters) -> None:
    """Raise ``ValueError`` unless ``max_iters`` is an integer >= 1 (a bool is not)."""
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral):
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}")


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


@dataclass(frozen=True)
class PreparedColumns:
    """The represented columns of one training set, in the form every fit on them reads.

    The ``D' x N`` columns, shifted by their unweighted mean, are held as
    ``coords`` (``r x N``, Fortran order) in the orthonormal ``basis``
    (``D' x r``) of their numerical range, and ``offset`` is that mean in
    the same basis (length ``r``).  When ``D' < N``, ``basis`` is ``None``:
    the basis is the identity, so ``coords`` are the shifted columns and
    ``offset`` the mean.  The columns themselves are not kept.  Built by
    :func:`prepare_columns`; the arrays are read-only.
    """

    offset: np.ndarray
    coords: np.ndarray
    basis: np.ndarray | None

    @property
    def shape(self) -> tuple[int, int]:
        """``(D', N)``, the shape of the prepared columns."""
        return (len(self.coords if self.basis is None else self.basis), self.coords.shape[1])

    def scores(self, weights: np.ndarray, biases: np.ndarray) -> np.ndarray:
        """The ``L x N`` scores ``w x_i + b`` of the columns, O(r N L): with ``v = weights
        basis`` (``weights`` when ``basis`` is ``None``), ``w x_i + b = v c_i + (v offset
        + b)`` on the coordinates ``c_i``, less the directions below the rank cut."""
        v_t = weights.T if self.basis is None else dgemm(1.0, self.basis, weights.T, trans_a=1)
        shift = dgemv(1.0, v_t, self.offset, trans=1) + biases  # v_t is r x L
        return dgemm(1.0, self.coords, v_t, trans_a=1).T + shift[:, None]


def prepare_columns(represented: np.ndarray) -> PreparedColumns:
    """Check and shift the columns of ``represented`` once, and reduce them when ``D' >= N``.

    Every fit reads its columns through this value; the harness prepares
    each split once for all its fits.  No reference to ``represented`` is
    kept: a caller that drops its own (as :func:`train` does) frees it, in
    kernel mode the ``N x N`` Gram, once this returns.  The shifted columns
    are Fortran ordered for every caller: BLAS rounds differently per
    layout, and ``dsyrk`` reads them in place.  When ``D' >= N`` they are
    reduced once to an orthonormal basis of their numerical range:

    * an exactly symmetric ``represented`` (every kernel Gram) is given to
      a pivoted Cholesky (LAPACK's ``dpstrf``, stopping at its default
      ``N eps`` times the largest diagonal entry), and the basis is the QR
      of the ``r`` columns it picks, which hold the shifted ones too: a
      compact-WY QR (``dgeqrt``, in blocks of up to 32 columns, mostly
      level-3 BLAS), whose ``Q`` is applied to the first ``r`` columns of
      the identity (``dgemqrt``); the coordinates are ``basis^T`` times
      the shifted columns.  This is kept when no shifted column lies farther
      from the basis than ``max(D', N) eps`` times the largest shifted
      column norm, the same cut as the QR's below;
    * otherwise (a non-square or non-symmetric matrix, or a symmetric one
      whose picked columns miss that cut, as an indefinite one's do) the
      shifted columns are factored by a column-pivoted QR (``dgeqp3``,
      then ``dorgqr`` for the basis), which keeps the ``r`` leading
      columns with ``|R_kk| > max(D', N) eps |R_11|``, numpy's
      ``matrix_rank`` rule; the coordinates are those rows of ``R`` with
      the pivots undone.

    Raises ``ValueError`` if ``represented`` is not finite.
    """
    represented = np.asfortranarray(represented, dtype=np.float64)
    if not np.all(np.isfinite(represented)):
        raise ValueError("represented must be finite")
    offset = represented.mean(axis=1)
    basis = None
    if represented.shape[0] < represented.shape[1]:
        coords = represented - offset[:, None]
    else:
        reduced = _symmetric_range(represented, offset)
        basis, coords = reduced or _numerical_range(represented - offset[:, None])
        offset = dgemv(1.0, basis, offset, trans=1)
    for array in (offset, coords, basis):
        if array is not None:
            array.setflags(write=False)
    return PreparedColumns(offset, coords, basis)


def _symmetric_range(gram: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(basis, coords)`` for the shifted columns ``gram - mean`` of a symmetric
    ``gram``, on the columns that a pivoted Cholesky picks; ``None`` when
    ``gram`` is not exactly symmetric, or when those columns miss a shifted
    column by more than the cut of :func:`_numerical_range` (an indefinite
    ``gram``, or rank 0)."""
    if not np.array_equal(gram, gram.T):
        return None
    n = len(gram)
    pivots, rank = dpstrf(gram, lower=1)[1:3]  # stops at LAPACK's n eps max(diag) default
    if rank == 0:
        return None
    picked = np.asfortranarray(gram[:, pivots[:rank] - 1])
    # compact-WY QR (blocked reflectors, mostly level-3 BLAS), then Q applied
    # to the first r columns of the identity
    qr, blocks = dgeqrt(min(32, rank), picked, overwrite_a=1)[:2]
    basis = dgemqrt(qr, blocks, np.eye(n, rank, order="F"), overwrite_c=1)[0]
    shifted = gram - mean[:, None]
    coords = dgemm(1.0, basis, shifted, trans_a=1)
    # the residual is written over the shifted columns: no second N x N array
    residual = dgemm(-1.0, basis, coords, beta=1.0, c=shifted, overwrite_c=1)
    lost = np.square(residual, out=residual).sum(axis=0)
    # the largest squared shifted column norm, as kept plus lost (orthogonal)
    cut = n * np.finfo(np.float64).eps  # max(D', N) eps, as in _numerical_range
    bound = cut * cut * (np.square(coords).sum(axis=0) + lost).max()
    # NaN, an overflowed or an underflowed bound fail this and go to the QR
    if not (lost.max() <= bound and np.finfo(np.float64).tiny <= bound < np.inf):
        return None
    return basis, coords


def _numerical_range(shifted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(basis, coords)`` with ``shifted ~= basis @ coords``, from a column-pivoted QR."""
    dim, n = shifted.shape
    # Both routines are given their optimal workspace: the wrappers' default
    # is the minimum, which runs the unblocked code.
    qr, pivots, tau, _, _ = dgeqp3(shifted, lwork=int(dgeqp3(shifted, lwork=-1)[3][0]))
    diagonal = np.abs(np.diagonal(qr))
    # At least one column, so that constant columns still fit w = 0 and a
    # factor that overflowed reaches the system's finiteness check.
    rank = max(1, np.count_nonzero(diagonal > max(dim, n) * np.finfo(np.float64).eps * diagonal[0]))
    coords = np.empty((rank, n), order="F")
    coords[:, pivots - 1] = np.triu(qr[:rank])
    leading, tau = qr[:, :rank], tau[:rank]
    basis = dorgqr(leading, tau, lwork=int(dorgqr(leading, tau, lwork=-1)[1][0]))[0]
    return basis, coords


def m_step(aux: AuxMatrix, represented, indicator: np.ndarray, alpha: float):
    """Per-class weighted ridge solve given auxiliary weights.

    For every class ``l``, with ``u_i^2 = -aux[l, i] / N``, returns the
    unique stationary point of

        ``sum_i u_i^2 (w @ x_i + b - y_i)^2 + alpha ||w||^2``

    over represented columns ``x_i`` and indicator targets ``y_i``.
    Centering uses the ``u^2``-weighted means of samples and targets, which
    is what makes the bias gradient vanish exactly.  With ``A`` the centered
    columns scaled by ``u``, the solution is ``w = (A A^T + alpha I)^-1 A t``
    for the scaled, centered targets ``t``.  It is solved on the prepared
    coordinates of the columns (see :func:`prepare_columns`): the columns
    shifted by their unweighted mean, so that large offsets do not cancel,
    and, when ``D' >= N``, written in an orthonormal basis of their
    numerical range.  That range holds ``w``, so ``w = basis v`` for the
    solution ``v`` on the coordinates.  The ``r x r`` system ``A A^T`` of a
    class is built, lower triangle only, from raw moments: one ``dsyrk`` of
    the coordinates scaled by ``u`` (into one reused buffer), centered by
    one rank-1 ``dsyr`` update.  Every class's weighted mean and right-hand side ``A t`` come
    from one ``dgemm`` each; the right-hand side is less the weighted mean
    times the rounded row sum of ``u^2 (y - y_mean)`` (zero in exact
    arithmetic), which keeps a down-weighted class's weights at their true,
    tiny size.  When ``D' >= N``, one more ``dgemm`` maps every class's
    solution ``v`` back to ``w = basis v``; the bias reads the offset in the
    same coordinates.  The directions below the cut are dropped,
    which moves ``w`` by about the cut over the ridge: 3e-13 to 5e-13 of
    the largest weight on an rbf kernel fit of 660 samples.

    With ``alpha > 0`` each system is symmetric positive definite in exact
    arithmetic and solved by Cholesky, calling LAPACK's ``dpotrf`` and
    ``dpotrs`` directly (the routines ``scipy.linalg.cho_factor`` and
    ``cho_solve`` wrap, with the same results); with ``alpha = 0`` a
    least-squares solve is used instead (no definiteness guarantee), which
    gives the minimum-norm solution.  The inputs are never modified.

    Parameters
    ----------
    aux : ndarray of shape (L, N)
        Auxiliary matrix with finite entries <= 0 (in [-1, 0) from ``e_step``;
        -1 on the active set, else 0, in the hinge baseline; minus half the
        Newton weights in the logistic baseline).
    represented : ndarray of shape (D', N), or its PreparedColumns
        Represented training samples, one column per sample; an array is
        prepared here (:func:`prepare_columns`), a fit prepares them once.
    indicator : ndarray of shape (L, N)
        Finite regression targets: the +-1 indicator targets here and in the
        square and hinge baselines, the working responses in the logistic
        baseline.
    alpha : float
        Ridge parameter (finite, >= 0).

    Returns
    -------
    (weights, biases) : ndarrays of shapes (L, D') and (L,)

    Raises
    ------
    ValueError
        If ``alpha`` is negative or not finite, the shapes disagree, an input
        is not finite (the argument is named) or an ``aux`` entry is positive.
    DegenerateClassError
        If, for a class, the sum over samples of ``sqrt(-aux / N)`` is below
        1e-12 (every sample down-weighted to numerical zero); the first
        such class is named.
    FloatingPointError
        If a system with ``alpha > 0`` is numerically not positive definite
        (near-singular data with a tiny ``alpha``), or a system overflowed
        (finite features too large to square); the class is named.
    """
    aux = np.asarray(aux, dtype=np.float64)
    if not isinstance(represented, PreparedColumns):
        represented = np.asarray(represented, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    num_classes, n = indicator.shape
    if aux.shape != indicator.shape:
        raise ValueError(f"aux shape {aux.shape} does not match indicator shape {indicator.shape}")
    if represented.shape[1] != n:
        raise ValueError(f"represented has {represented.shape[1]} columns, expected {n}")
    _check_alpha(alpha)
    for name, value in (("aux", aux), ("indicator", indicator)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if (aux > 0).any():
        l, i = np.argwhere(aux > 0)[0]
        raise ValueError(f"aux entries must be <= 0, got {float(aux[l, i])!r} in class {l + 1}")
    dim = represented.shape[0]

    u_sq = -aux / n
    u = np.sqrt(u_sq)
    degenerate = np.flatnonzero(u.sum(axis=1) < DEGENERATE_WEIGHT_SUM)
    if degenerate.size:
        raise DegenerateClassError(int(degenerate[0]) + 1)
    totals = u_sq.sum(axis=1)
    # Allocated before the large work arrays: allocated after them, the
    # returned arrays sit above their freed space on the heap and keep it
    # from being given back, which read as one N x N array more peak memory
    # from a process's second kernel fit on.
    weights = np.empty((num_classes, dim))
    biases = np.empty(num_classes)
    if not isinstance(represented, PreparedColumns):
        represented = prepare_columns(represented)
    offset, coords, basis = represented.offset, represented.coords, represented.basis
    # Weighted means of the coordinates, built C-ordered (r x L): the bias
    # dot below then reads the columns of x_means with a stride, and a
    # contiguous read would round the biases differently.
    coord_means = dgemm(1.0, u_sq.T, coords, trans_a=1, trans_b=1).T / totals
    x_means = coord_means + offset[:, None]
    # Row-wise dot products as a batched matmul round like a per-row dot;
    # the near-tied biases of a collapsed model depend on those last bits.
    y_means = (indicator[:, None, :] @ u_sq[:, :, None]).ravel() / totals
    # That mean is a few ulps off a constant row's value, which would fit a
    # class absent from the labels (all -1) with weights of about 1e-32.
    np.copyto(y_means, indicator[:, 0], where=(indicator == indicator[:, :1]).all(axis=1))

    # Every class's A t at once: C (u^2 (y - y_mean))^T minus the weighted
    # mean times the row sum.  That sum is zero in exact arithmetic, but
    # once a class is down-weighted A t is a small difference of large
    # terms, and subtracting the rounded sum carries the cancellation.
    moments = u_sq * (indicator - y_means[:, None])
    rhs = dgemm(1.0, coords, moments.T)
    rhs -= coord_means * moments.sum(axis=1)
    scaled = np.empty(coords.shape, order="F")  # one buffer, rescaled per class
    # the solutions in the coordinates: the weights themselves when D' < N
    solutions = weights if basis is None else np.empty((num_classes, len(coords)))
    for l in range(num_classes):
        # A A^T from raw moments: sum_i u_i^2 c_i c_i^T - t d d^T, lower
        # triangle only, for the coordinates c_i, their weighted mean d and
        # the weight total t
        np.multiply(coords, u[l], out=scaled)
        system = dsyrk(1.0, scaled, lower=1)
        system = dsyr(-totals[l], coord_means[:, l], lower=1, a=system, overwrite_a=1)
        w = _ridge_solve(system, rhs[:, l], alpha, l)
        solutions[l] = w
        biases[l] = y_means[l] - w @ x_means[:, l]
    if basis is not None:  # w = basis v, written C-ordered into weights
        dgemm(1.0, basis, solutions.T, c=weights.T, overwrite_c=1)
    return weights, biases


def _ridge_solve(system: np.ndarray, rhs: np.ndarray, alpha: float, l: int) -> np.ndarray:
    """Solve ``(system + alpha I) x = rhs`` for class index ``l``, given the
    lower triangle of a symmetric, Fortran-ordered ``system``, which is
    overwritten."""
    # The system is a scaled Gram matrix, so an overflow anywhere in it shows
    # on its diagonal; the factorization skips its own finiteness scan and
    # would return zeros or NaN.
    diagonal = system.ravel(order="K")[:: len(system) + 1]  # a view: system is contiguous
    if not np.isfinite(diagonal).all():
        raise FloatingPointError(
            f"class {l + 1}: the weighted ridge system overflowed; "
            f"the represented features are too large, rescale them"
        )
    if alpha > 0:
        diagonal += alpha
        factor, info = dpotrf(system, lower=1, overwrite_a=1, clean=0)
        if info != 0:
            raise FloatingPointError(
                f"class {l + 1}: the weighted ridge system is not positive definite; "
                f"alpha={alpha!r} is too small for near-singular data, use a larger alpha"
            )
        return dpotrs(factor, rhs, lower=1)[0]
    system = np.tril(system) + np.tril(system, -1).T
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


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
    columns = prepare_columns(represent_matrix(ds.features, rep).T)  # D' x N
    weights, biases, sigma, trace = _train(columns, label_indicator(ds.labels, ds.num_classes), cfg)
    return Model(weights, biases, rep, sigma, ds.label_names), trace


def _train(columns: PreparedColumns, indicator: np.ndarray, cfg: TrainConfig):
    """The rounds of :func:`train` on prepared ``columns``, whatever ``cfg.representation``
    says: ``(weights, biases, sigma_final, trace)``."""
    policy = cfg.sigma_policy
    sigma = policy.sigma if policy.mode == "fixed" else None
    aux = -np.ones(indicator.shape)
    ridge = cfg.alpha  # plain on the uniform first round, 2 sigma^2 alpha afterwards
    prev_w = np.zeros((len(indicator), columns.shape[0]))
    prev_b = np.zeros(len(indicator))
    records = []

    for _ in range(cfg.max_iters):
        weights, biases = m_step(aux, columns, indicator, ridge)
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
            raise FloatingPointError(
                "non-finite parameters in the weight update; "
                "alpha is likely too small for near-singular data"
            )
        scores = columns.scores(weights, biases)
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
    return prev_w, prev_b, float(sigma), TrainTrace(tuple(records))


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
