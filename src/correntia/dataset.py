"""Data model: CSV ingestion, label encoding, splitting, folds, label noise.

A :class:`Dataset` holds an ``N x D`` feature matrix and a length-``N``
vector of class indices in ``1..L``.  Labels read from files may be
arbitrary strings; they are remapped to contiguous indices and the
mapping is kept on the dataset so reports can show the original names.
All datasets are immutable after construction and safe to share between
threads; every operation here is a pure function of (input, seed).
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import child_seed, make_rng

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_csv",
    "load_features",
    "write_csv",
    "label_indicator",
    "split",
    "kfold",
    "inject_label_noise",
]

# L x N matrix with +1 marking each sample's class and -1 elsewhere.
IndicatorMatrix = np.ndarray


@dataclass(frozen=True)
class Dataset:
    """An immutable classification dataset.

    Attributes
    ----------
    features : ndarray of shape (N, D)
        Real-valued feature matrix; all entries finite.
    labels : ndarray of shape (N,)
        Integer class indices in ``1..num_classes``.
    num_classes : int
        The class count ``L``.
    label_names : tuple of str
        Original label of each class index (``label_names[l - 1]`` is the
        name of class ``l``), all distinct.  Defaults to ``"1".."L"``.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    label_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one sample and one feature, got shape {features.shape}")
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if labels.min() < 1 or labels.max() > self.num_classes:
            raise ValueError(
                f"labels must lie in 1..{self.num_classes}, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        names = tuple(self.label_names) or tuple(str(l) for l in range(1, self.num_classes + 1))
        if len(names) != self.num_classes:
            raise ValueError(f"expected {self.num_classes} label names, got {len(names)}")
        _check_distinct(names, "label name")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Subset by sample indices, keeping class count and names."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes, self.label_names)


def _check_distinct(names, what: str) -> None:
    """Raise ``ValueError`` naming the first of ``names`` that repeats an earlier one."""
    if len(set(names)) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise ValueError(f"{what} {repeated!r} appears more than once")


@dataclass(frozen=True)
class SplitSpec:
    """Random train/test split: fraction of samples used for training, plus seed."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _read_csv(path, label_column, require_label: bool):
    """Parse a headed CSV into ``(features, raw_labels)``.

    Every column except ``label_column`` is a decimal float feature.
    ``raw_labels`` holds the stripped label cells, or is ``None`` when the
    file has no such column (an error if ``require_label``, as is then an
    empty label cell).  A column named twice in the header raises
    ``ValueError`` naming it; ragged rows, unparseable and non-finite cells
    raise one naming the first bad row (1-based, header excluded) and, for
    a cell, its column.  A UTF-8 byte order mark before the header is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty file: {path}") from None
        _check_distinct(header, "header column")
        label_idx = header.index(label_column) if label_column in header else None
        if label_idx is None and require_label:
            raise ValueError(f"label column {label_column!r} not found in header {header}")
        keep = [i for i in range(len(header)) if i != label_idx]
        if not keep:
            raise ValueError("no feature columns besides the label column")

        rows = []
        raw_labels = []
        try:
            for row_no, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ValueError(f"row {row_no}: expected {len(header)} cells, got {len(row)}")
                try:
                    rows.append([float(row[i]) for i in keep])
                except ValueError:
                    for i in keep:
                        try:
                            float(row[i])
                        except ValueError:
                            raise ValueError(
                                f"row {row_no}, column {header[i]!r}: "
                                f"cannot parse {row[i]!r} as a number"
                            ) from None
                if label_idx is not None:
                    label = row[label_idx].strip()
                    if require_label and not label:
                        raise ValueError(f"row {row_no}: empty label in column {label_column!r}")
                    raw_labels.append(label)
        except ValueError:
            _finite_features(rows, header, keep)  # a non-finite cell in an earlier row comes first
            raise

    if not rows:
        raise ValueError(f"no data rows in {path}")
    return _finite_features(rows, header, keep), None if label_idx is None else raw_labels


def _finite_features(rows, header, keep) -> np.ndarray:
    """``rows`` as a float array; ``ValueError`` naming the first non-finite cell."""
    features = np.array(rows, dtype=np.float64)
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"row {row + 1}, column {header[keep[col]]!r}: "
            f"non-finite value {float(features[row, col])}"
        )
    return features


def write_csv(path, header, columns) -> None:
    """Write a headed UTF-8 CSV with LF endings from equal-length columns.

    The bytes are those ``csv.writer(handle, lineterminator="\\n")`` writes
    for ``header`` and then the rows ``zip(*columns)``, with an array column
    read as its ``tolist()``: floats keep their exact shortest repr, ``None``
    is an empty cell and text gets the csv module's minimal quoting.  A
    float64 array column is formatted once per distinct bit pattern (so
    ``-0.0``, ``nan`` and ``inf`` keep their own text), and the file is
    written with one join.
    """
    _write_cells(path, _cell_texts(header), [_cell_texts(column) for column in columns])


def _write_cells(path, header, columns) -> None:
    """Write a header and columns of cell texts, each from :func:`_cell_texts`,
    as :func:`write_csv` writes the values they came from."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    lines = [",".join(header), *map(",".join, zip(*columns))]
    # csv.writer quotes a row that is one empty field
    if len(header) == 1 and lines[0] == "":
        lines[0] = '""'
    if len(columns) == 1:
        lines[1:] = ['""' if line == "" else line for line in lines[1:]]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _cell_texts(values, memo=None):
    """Each value as ``csv.writer`` writes it in a row of several fields.

    A float64 array is formatted once per distinct bit pattern.  ``memo``,
    a dict from a float64 bit pattern (as an int) to its text, carries
    those texts from one call to the next.  Without one, the texts come
    from a plain ``repr`` map: filling a throwaway dict instead cost 22 % more
    CPU time in ``write_csv`` of a 5,000-row file of 4 score columns.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        floats = distinct.view(np.float64).tolist()
        if memo is None:
            texts = list(map(repr, floats))
        else:
            texts = [
                memo[key] if key in memo else memo.setdefault(key, repr(value))
                for key, value in zip(distinct.tolist(), floats)
            ]
        return np.array(texts, dtype=object)[inverse]  # a repr never needs quoting
    if isinstance(values, np.ndarray):
        values = values.tolist()
    texts = list(map(_text, values))
    quoted = {text: _quote(text) for text in set(texts)}
    return [quoted[text] for text in texts]


def _text(value) -> str:
    """A cell's text before quoting, as ``csv.writer`` makes it."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _quote(text: str) -> str:
    """``text`` quoted as the csv module quotes a field (only where needed)."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, None))
    return buffer.getvalue()[: -len(",\n")]


def load_csv(path, label_column: str) -> Dataset:
    """Load a dataset from a headed UTF-8 CSV file.

    One column (``label_column``) holds class labels; every other column is
    parsed as a decimal float.  String labels are mapped to ``1..L`` in
    first-appearance order, except that labels which are literally the
    integers ``1..L`` keep their own values (identity mapping).  A label
    cell that is empty or only whitespace raises ``ValueError`` naming its
    row.
    """
    features, raw_labels = _read_csv(path, label_column, require_label=True)
    names = list(dict.fromkeys(raw_labels))  # first-appearance order
    if set(names) == {str(k) for k in range(1, len(names) + 1)}:
        names = [str(k) for k in range(1, len(names) + 1)]
    mapping = {name: k for k, name in enumerate(names, start=1)}
    labels = np.array([mapping[raw] for raw in raw_labels], dtype=np.int64)
    return Dataset(features, labels, len(names), tuple(names))


def load_features(path, label_column: str | None = None) -> np.ndarray:
    """Load the ``N x D`` feature matrix of a headed UTF-8 CSV file.

    Parsed as by :func:`load_csv`, except that ``label_column`` is optional:
    it is skipped when the header has it, and otherwise every column is a
    feature.
    """
    features, _ = _read_csv(path, label_column, require_label=False)
    return features


def label_indicator(labels, num_classes: int) -> IndicatorMatrix:
    """Build the ``L x N`` indicator matrix: +1 where ``labels[i] == l``, -1 elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a nonempty vector, got shape {labels.shape}")
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")
    indicator = -np.ones((num_classes, labels.size))
    indicator[labels - 1, np.arange(labels.size)] = 1.0
    return indicator


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Randomly partition ``ds`` into disjoint, exhaustive train/test subsets.

    The shuffle is uniform (unstratified).  If either partition misses a
    class, the split is retried with a derived seed, up to 100 attempts.
    Deterministic for a fixed ``spec``.
    """
    n = ds.n_samples
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty partition for N={n}"
        )
    all_classes = set(range(1, ds.num_classes + 1))
    for attempt in range(100):
        rng = make_rng(child_seed(spec.seed, attempt))
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        if set(ds.labels[train_idx]) == all_classes and set(ds.labels[test_idx]) == all_classes:
            return ds.take(train_idx), ds.take(test_idx)
    raise ValueError(
        f"a class was absent from the training partition after 100 reseeded attempts "
        f"(N={n}, L={ds.num_classes}, train_fraction={spec.train_fraction})"
    )


def kfold(ds: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Deterministic k-fold split: k non-overlapping test folds covering all samples.

    Fold sizes differ by at most one sample.  The first assignment shuffles
    with ``seed`` itself; if a training fold then misses a class, the
    assignment is retried with a derived seed, up to 100 attempts.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > ds.n_samples:
        raise ValueError(f"k={k} exceeds the number of samples N={ds.n_samples}")
    classes = np.arange(1, ds.num_classes + 1)
    for attempt in range(100):
        rng = make_rng(child_seed(seed, attempt) if attempt else seed)
        folds = np.array_split(rng.permutation(ds.n_samples), k)
        train_sets = [np.concatenate(folds[:i] + folds[i + 1 :]) for i in range(k)]
        absent = np.concatenate([np.setdiff1d(classes, ds.labels[idx]) for idx in train_sets])
        if not absent.size:
            return [(ds.take(tr), ds.take(te)) for tr, te in zip(train_sets, folds)]
    raise ValueError(
        f"class {absent.min()} was absent from a training fold after 100 reseeded attempts (k={k})"
    )


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Replace the labels of ``floor(rate * N)`` samples with a different class.

    Victims are chosen uniformly without replacement; each new label is drawn
    uniformly from the other ``L - 1`` classes.  Features are untouched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    if ds.num_classes < 2:
        raise ValueError("label noise needs at least 2 classes")
    n_flip = math.floor(rate * ds.n_samples)
    labels = ds.labels.copy()
    if n_flip > 0:
        rng = make_rng(seed)
        victims = rng.choice(ds.n_samples, size=n_flip, replace=False)
        # old + offset mod L, offset in 1..L-1: uniform over the other classes
        offsets = rng.integers(1, ds.num_classes, size=n_flip)
        labels[victims] = (labels[victims] - 1 + offsets) % ds.num_classes + 1
    return Dataset(ds.features, labels, ds.num_classes, ds.label_names)
