"""Config-driven experiment runner: method x noise-rate x split sweeps.

A run is a deterministic function of (config, seed).  For every noise
rate, label noise is injected into each training portion only (the test
portions stay pristine, and the runner asserts as much); every method then
trains on the identical noisy training sets, which is what makes the
per-split accuracies a matched sample for the pairwise paired t-tests.
Each split's representation depends only on its training features, so it
is built once, before any training, and represents both sides of the split
once (in kernel mode, kernel evaluations against the training anchors); a
split that cannot be represented raises.  Every cell is then a plain
linear problem on those represented features.  The noisy training sets of
every rate are drawn from the represented training side before any
training, since noise depends only on the labels.  Cells run one at a
time, method by method in config order.  :func:`_score_cell` is the one
place a cell is trained (through :func:`train_method`) and scored, and
:func:`_report` turns one method's cells at one rate into its report,
recording a failing cell on that report instead of aborting the sweep.
Reports come out rate by rate, in config order.
"""

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, train_hinge, train_logistic, train_square
from .correntropy import DEFAULT_SIGMA_FLOOR, SigmaPolicy
from .dataset import (
    Dataset,
    SplitSpec,
    _cell_texts,
    _write_cells,
    inject_label_noise,
    kfold,
    load_csv,
    split,
)
from .evaluation import (
    Curve,
    DegenerateDifferencesError,
    accuracy,
    auc,
    multiclass_binary_scores,
    paired_ttest,
    pr_curve,
    roc_curve,
)
from .kernels import (
    KERNEL_KINDS,
    KernelSpec,
    Representation,
    kernel_representation,
    linear_representation,
    median_bandwidth,
    represent_matrix,
)
from .regmaxcem import TrainConfig, score_matrix, train
from .seeding import child_seed, make_rng

__all__ = [
    "SyntheticSpec",
    "DataSpec",
    "RepresentationSpec",
    "MethodSpec",
    "ProtocolSpec",
    "TTestResult",
    "EvalReport",
    "ExperimentConfig",
    "generate_synthetic",
    "run_experiment",
    "emit_reports",
    "write_curve",
    "select_alpha_by_cv",
    "load_config",
    "config_from_dict",
    "config_to_dict",
]

ALPHA_GRID = tuple(float(a) for a in np.logspace(-4, 0, 9))

METHOD_NAMES = ("regmaxcem", "square", "hinge", "logistic")


def _is_number(value, kind) -> bool:
    """True for an instance of the ``numbers`` ABC ``kind`` that is not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_numbers(spec) -> None:
    """Reject a bool or a non-number in every field of ``spec`` annotated ``int`` or ``float``."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if field.type is int and not _is_number(value, numbers.Integral):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if field.type is float and not _is_number(value, numbers.Real):
            raise ValueError(f"{field.name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-blob generator: one isotropic blob per class."""

    means: tuple[tuple[float, ...], ...]
    std: float
    samples_per_class: int
    seed: int

    def __post_init__(self):
        _check_numbers(self)
        rows = self.means
        if not (isinstance(rows, (list, tuple)) and rows and all(
            isinstance(row, (list, tuple)) and len(row) == len(rows[0]) > 0
            and all(_is_number(v, numbers.Real) and np.isfinite(v) for v in row) for row in rows
        )):
            raise ValueError(f"means must be equal-length vectors of finite numbers, got {rows!r}")
        means = tuple(tuple(map(float, row)) for row in rows)
        if len(set(means)) != len(means):
            raise ValueError("class means must be pairwise distinct")
        if not self.std > 0:
            raise ValueError(f"std must be > 0, got {self.std}")
        if not np.isfinite(self.std):
            raise ValueError(f"std must be finite, got {self.std}")
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        object.__setattr__(self, "means", means)


@dataclass(frozen=True)
class DataSpec:
    """A labeled CSV dataset: its path and the name of its label column."""

    path: str
    label_column: str

    def __post_init__(self):
        if not isinstance(self.path, str) or not isinstance(self.label_column, str):
            raise ValueError(f"path and label_column must be strings, got {self!r}")


@dataclass(frozen=True)
class RepresentationSpec:
    """How each training set is represented: ``linear``, or ``kernel`` with a kernel kind."""

    mode: str = "linear"
    kernel: str = "rbf"
    bandwidth: float | str = "median"

    def __post_init__(self):
        if self.mode not in ("linear", "kernel"):
            raise ValueError(f"unknown representation {self.mode!r}")
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kernel!r}; expected one of {KERNEL_KINDS}")
        if self.bandwidth != "median" and not _is_number(self.bandwidth, numbers.Real):
            raise ValueError(f"bandwidth must be a number or 'median', got {self.bandwidth!r}")

    def build(self, train_features: np.ndarray) -> Representation:
        return build_representation(train_features, self.mode, self.kernel, self.bandwidth)


@dataclass(frozen=True)
class MethodSpec:
    """One classifier entry of an experiment: a method name plus hyperparameters.

    Every hyperparameter is checked when the entry is built: its type by its
    annotation (a bool, a non-number or a non-integer ``iters`` is rejected
    by field name), its range by the same :class:`BaselineConfig` and
    :class:`SigmaPolicy` checks that training runs.  A bad value thus fails
    once at load time instead of in every cell.
    """

    name: str
    alpha: float = 0.01
    iters: int = 20
    tol: float = 1e-6
    sigma: float | str = "adaptive"
    sigma_floor: float = DEFAULT_SIGMA_FLOOR

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; expected one of {METHOD_NAMES}")
        _check_numbers(self)
        self.baseline_config()
        self.sigma_policy()

    def sigma_policy(self) -> SigmaPolicy:
        if self.sigma == "adaptive":
            return SigmaPolicy.adaptive(self.sigma_floor)
        try:
            sigma = float(self.sigma)
        except (TypeError, ValueError):
            sigma = None
        if sigma is None or isinstance(self.sigma, bool):
            raise ValueError(f"sigma must be a number or 'adaptive', got {self.sigma!r}")
        return SigmaPolicy.fixed(sigma, self.sigma_floor)

    def baseline_config(self) -> BaselineConfig:
        """The hinge/logistic trainer settings of this entry."""
        return BaselineConfig(alpha=self.alpha, max_iters=self.iters, tol=self.tol)

    def train_config(self, rep: Representation) -> TrainConfig:
        """The regmaxcem trainer settings of this entry on representation ``rep``."""
        return TrainConfig(
            alpha=self.alpha,
            max_iters=self.iters,
            tol=self.tol,
            sigma_policy=self.sigma_policy(),
            representation=rep,
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """Evaluation protocol: repeated random splits or k-fold cross-validation."""

    kind: str
    times: int = 10
    fraction: float = 0.5
    k: int = 10

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in ("repeated-split", "kfold"):
            raise ValueError(f"unknown protocol {self.kind!r}")
        if self.kind == "repeated-split" and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")


@dataclass(frozen=True)
class TTestResult:
    other: str
    statistic: float | None
    p_value: float | None
    degenerate: bool = False


@dataclass(frozen=True)
class EvalReport:
    """Aggregated metrics for one (method, noise rate) cell of the sweep.

    ``accuracy`` is the mean of ``per_split_accuracies``; the ROC/PR curves
    and AUC are computed over the test scores pooled across splits, one-vs-
    rest for the configured positive class; they are ``None`` when no cell
    scored or the pooled test labels miss a side.  ``ttests`` holds paired
    comparisons of this method against every other method at the same rate.
    """

    method: str
    noise_rate: float
    accuracy: float
    per_split_accuracies: tuple[float, ...]
    roc: Curve | None
    pr: Curve | None
    auc: float | None
    ttests: tuple[TTestResult, ...] = ()
    errors: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see README for the JSON schema."""

    methods: tuple[MethodSpec, ...]
    protocol: ProtocolSpec
    seed: int
    noise_rates: tuple[float, ...] = (0.0,)
    data: DataSpec | None = None
    synthetic: SyntheticSpec | None = None
    representation: RepresentationSpec = RepresentationSpec()
    positive_class: int = 1

    def __post_init__(self):
        _check_numbers(self)
        if not self.methods:
            raise ValueError("method list must be nonempty")
        rates = self.noise_rates
        if not (isinstance(rates, (list, tuple)) and rates and all(
            _is_number(r, numbers.Real) and 0.0 <= r <= 1.0 for r in rates
        )):
            raise ValueError(f"noise_rates must be a nonempty list of rates in [0, 1], got {rates!r}")
        object.__setattr__(self, "noise_rates", tuple(float(r) for r in rates))
        # curve files are named by method and by rate to six significant digits
        if len({f"{r:g}" for r in self.noise_rates}) != len(rates):
            raise ValueError(f"noise_rates must be distinct, got {list(self.noise_rates)}")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"methods must have distinct names, got {names}")
        if (self.data is None) == (self.synthetic is None):
            raise ValueError("exactly one of data and synthetic must be given")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Sample the Gaussian blobs described by ``spec``; deterministic per seed."""
    rng = make_rng(spec.seed)
    means = np.asarray(spec.means, dtype=np.float64)
    num_classes, dim = means.shape
    blocks = [
        means[l] + spec.std * rng.standard_normal((spec.samples_per_class, dim))
        for l in range(num_classes)
    ]
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(1, num_classes + 1), spec.samples_per_class)
    return Dataset(features, labels, num_classes)


def build_representation(
    train_features: np.ndarray, mode: str, kernel_kind: str, bandwidth: float | str
) -> Representation:
    """Concrete representation for one training set (anchors in kernel mode)."""
    if mode == "linear":
        return linear_representation()
    if kernel_kind == "rbf":
        width = median_bandwidth(train_features) if bandwidth == "median" else float(bandwidth)
        return kernel_representation(train_features, KernelSpec("rbf", width))
    return kernel_representation(train_features, KernelSpec(kernel_kind))


def train_method(method: MethodSpec, ds: Dataset, rep: Representation):
    """Train one method on one (already noisy) training set."""
    if method.name == "regmaxcem":
        model, _ = train(ds, method.train_config(rep))
        return model
    if method.name == "square":
        return train_square(ds, rep, method.alpha)
    trainer = train_hinge if method.name == "hinge" else train_logistic
    return trainer(ds, rep, method.baseline_config())


def _represent_splits(
    pairs: list[tuple[Dataset, Dataset]], representation: RepresentationSpec
) -> list[tuple[Dataset, Dataset]]:
    """Each ``(train, test)`` pair with both sides represented by the train side's representation.

    In linear mode the features are returned as they are, without a copy.
    """
    represented = []
    for train_set, test in pairs:
        rep = representation.build(train_set.features)
        represented.append(
            tuple(replace(d, features=represent_matrix(d.features, rep)) for d in (train_set, test))
        )
    return represented


def _score_cell(method: MethodSpec, train_set: Dataset, test: Dataset) -> tuple[np.ndarray, float]:
    """Train ``method`` on one cell and score its test side: the score matrix and its accuracy.

    Both sides hold their split's already represented features (see
    :func:`_represent_splits`), so the cell fits under the linear
    representation.  A failure in training or scoring propagates.
    """
    scores = score_matrix(train_method(method, train_set, linear_representation()), test.features)
    return scores, accuracy(np.argmax(scores, axis=1) + 1, test.labels)


def _report(
    method: MethodSpec, rate: float, cells: list[tuple[Dataset, Dataset]], positive_class: int
) -> EvalReport:
    """The report of ``method`` at noise ``rate``, from its ``(train, test)`` cells, one per split.

    Each cell trains and scores through :func:`_score_cell`, in split order.
    A cell that fails is recorded in ``errors`` and the others still run.
    """
    per_split: list[float] = []
    pooled: list[tuple[np.ndarray, np.ndarray]] = []  # one-vs-rest (scores, truth)
    errors: list[str] = []
    for s, (train_set, test) in enumerate(cells):
        try:
            scores, acc = _score_cell(method, train_set, test)
            per_split.append(acc)
            pooled.append(multiclass_binary_scores(scores, test.labels, positive_class))
        except Exception as exc:  # cell isolation: record, keep sweeping
            errors.append(f"method={method.name} noise={rate} split={s}: {exc}")
    roc, pr, area = None, None, None
    if pooled:
        all_scores, all_truth = map(np.concatenate, zip(*pooled))
        try:
            roc = roc_curve(all_scores, all_truth)
            pr = pr_curve(all_scores, all_truth)
            area = auc(roc)
        except ValueError as exc:
            errors.append(f"method={method.name} noise={rate} curves: {exc}")
    return EvalReport(
        method=method.name,
        noise_rate=float(rate),
        accuracy=float(np.mean(per_split)) if per_split else float("nan"),
        per_split_accuracies=tuple(per_split),
        roc=roc,
        pr=pr,
        auc=area,
        errors=tuple(errors),
    )


def select_alpha_by_cv(
    method: MethodSpec,
    ds: Dataset,
    representation: RepresentationSpec = RepresentationSpec(),
    folds: int = 5,
    seed: int = 0,
    grid: tuple[float, ...] = ALPHA_GRID,
) -> float:
    """Pick the tradeoff parameter by inner cross-validated accuracy.

    Evaluates ``method`` at every alpha in ``grid`` (default nine log-spaced
    values in [1e-4, 1]) over a k-fold split of ``ds`` and returns the alpha
    with the best mean accuracy; ties go to the smallest alpha.
    """
    pairs = _represent_splits(kfold(ds, min(folds, ds.n_samples), child_seed(seed, 3)),
                              representation)
    best_alpha, best_score = None, -np.inf
    for alpha in grid:
        candidate = replace(method, alpha=float(alpha))
        scores = [_score_cell(candidate, tr, test)[1] for tr, test in pairs]
        mean_score = float(np.mean(scores))
        if mean_score > best_score:
            best_alpha, best_score = float(alpha), mean_score
    return best_alpha


def run_experiment(cfg: ExperimentConfig) -> list[EvalReport]:
    """Run the full sweep and return reports in config order.

    Order: for each noise rate (config order), one report per method
    (config order).  When two or more methods are present, each report
    carries pairwise paired t-tests on the per-split accuracies.  Raises
    ``ValueError`` before any training when ``positive_class`` is outside
    ``1..L`` or a split cannot be represented.
    """
    if cfg.data is None:
        ds = generate_synthetic(cfg.synthetic)
    else:
        ds = load_csv(cfg.data.path, cfg.data.label_column)
    if not 1 <= cfg.positive_class <= ds.num_classes:
        raise ValueError(f"positive_class {cfg.positive_class} out of range 1..{ds.num_classes}")
    protocol = cfg.protocol
    if protocol.kind == "kfold":
        folds = kfold(ds, protocol.k, child_seed(cfg.seed, 1, 0))
    else:
        seeds = (child_seed(cfg.seed, 1, s) for s in range(protocol.times))
        folds = [split(ds, SplitSpec(protocol.fraction, seed)) for seed in seeds]
    folds = _represent_splits(folds, cfg.representation)
    # pristine test labels, used to assert noise never leaks into test data
    test_fingerprints = [test.labels.tobytes() for _, test in folds]

    # noise is seeded per (rate, split), so every method sees the same noisy sets
    cells = [
        [(inject_label_noise(tr, rate, child_seed(cfg.seed, 2, r_idx, s)), test)
         for s, (tr, test) in enumerate(folds)]
        for r_idx, rate in enumerate(cfg.noise_rates)
    ]
    # cells train method by method; the reports come out rate by rate
    by_method = [
        [_report(method, rate, rate_cells, cfg.positive_class)
         for rate, rate_cells in zip(cfg.noise_rates, cells)]
        for method in cfg.methods
    ]
    assert [test.labels.tobytes() for _, test in folds] == test_fingerprints, \
        "test labels were mutated"
    return [report for rate_reports in zip(*by_method) for report in _attach_ttests(rate_reports)]


def _attach_ttests(rate_reports: tuple[EvalReport, ...]) -> list[EvalReport]:
    out = []
    for i, report in enumerate(rate_reports):
        comparisons = []
        for j, other in enumerate(rate_reports):
            if j == i:
                continue
            a, b = report.per_split_accuracies, other.per_split_accuracies
            if len(a) != len(b) or len(a) < 2:
                continue
            try:
                t, p = paired_ttest(np.array(a), np.array(b))
                comparisons.append(TTestResult(other.method, t, p))
            except DegenerateDifferencesError:
                comparisons.append(TTestResult(other.method, None, None, degenerate=True))
        out.append(replace(report, ttests=tuple(comparisons)))
    return out


def write_curve(path, curve: Curve) -> None:
    """Write a ROC/PR curve as a ``threshold,x,y`` CSV, one row per threshold.

    The bytes are those :func:`~correntia.dataset.write_csv` writes for the
    columns ``threshold``, ``x`` and ``y``.  :func:`emit_reports` and
    ``correntia eval`` write their curves through the same code, a batch
    at a time.
    """
    _write_curves([(path, curve)])


def _write_curves(files) -> None:
    """Write each ``(path, curve)`` of ``files``, in order, as :func:`write_curve` does.

    A threshold column whose bits equal the previous file's (a ROC curve
    followed by the PR curve of the same scores) reuses that file's texts,
    and so does an x column whose bits equal the previous file's y column
    (the PR recall is the ROC true-positive rate).  The other x and y
    columns go through one memo keyed on the float64 bit pattern, which
    lasts for this call only: count ratios with shared denominators repeat
    across the curves of one sweep.  So each distinct x/y value is
    formatted once per call, and each threshold column once per run of
    equal columns.
    """
    header = ["threshold", "x", "y"]  # plain words: their own cell texts
    memo = {}
    previous = thresholds = last_y = y_texts = None
    for path, curve in files:
        if not _same_bits(curve.threshold, previous):
            previous, thresholds = curve.threshold, _cell_texts(curve.threshold)
        x_texts = y_texts if _same_bits(curve.x, last_y) else _cell_texts(curve.x, memo)
        last_y, y_texts = curve.y, _cell_texts(curve.y, memo)
        _write_cells(path, header, [thresholds, x_texts, y_texts])


def _same_bits(values: np.ndarray, other: np.ndarray | None) -> bool:
    """Whether two float64 arrays hold the same bits (``-0.0`` is not ``0.0``)."""
    return other is not None and np.array_equal(values.view(np.int64), other.view(np.int64))


def emit_reports(reports: list[EvalReport], out_dir) -> list[str]:
    """Write one JSON summary plus per-report ROC/PR CSVs into ``out_dir``.

    File names are deterministic functions of method and noise rate, and
    identical inputs always produce byte-identical files.  Each curve file
    holds the bytes :func:`write_curve` writes; the curves of one call are
    written as one batch, which formats each distinct x/y value of the call
    once and a report's thresholds once for both its ROC and PR files.
    Returns the written paths (summary first).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "reports": [
            {
                **{f.name: getattr(r, f.name) for f in fields(r) if f.name not in ("roc", "pr")},
                # a method whose every cell failed has no accuracy, not NaN
                "accuracy": None if np.isnan(r.accuracy) else r.accuracy,
                "ttests": [asdict(t) for t in r.ttests],
            }
            for r in reports
        ]
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    curves = [
        (out / f"{report.method}_noise{report.noise_rate:g}_{which}.csv", curve)
        for report in reports
        for which, curve in (("roc", report.roc), ("pr", report.pr))
        if curve is not None
    ]
    _write_curves(curves)
    return [str(p) for p in (summary_path, *(path for path, _ in curves))]


def _from_json(cls, raw, where: str):
    """Build dataclass ``cls`` from the JSON object ``raw``, naming any unknown or missing key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
    return cls(**raw)


_NESTED = {"protocol": ProtocolSpec, "data": DataSpec, "synthetic": SyntheticSpec,
           "representation": RepresentationSpec}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed JSON (see README schema)."""
    if not isinstance(raw, dict):
        raise ValueError(f"config: expected an object, got {type(raw).__name__}")
    raw = {k: _from_json(_NESTED[k], v, k) if k in _NESTED else v for k, v in raw.items()}
    if "methods" in raw:
        if not isinstance(raw["methods"], (list, tuple)):
            raise ValueError(f"methods: expected a list, got {type(raw['methods']).__name__}")
        raw["methods"] = tuple(
            _from_json(MethodSpec, m, f"methods[{i}]") for i, m in enumerate(raw["methods"])
        )
    return _from_json(ExperimentConfig, raw, "config")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON form of ``cfg``: :func:`config_from_dict` inverts it."""
    return {k: v for k, v in asdict(cfg).items() if v is not None}


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))
