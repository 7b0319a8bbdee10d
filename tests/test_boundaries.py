"""Property tests at boundaries: a malformed input works or fails with one error line, and
the CSV writers write what the csv module would."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from correntia import (
    Curve,
    KernelSpec,
    Model,
    kernel_representation,
    load_model,
    save_model,
    write_csv,
)
from correntia.cli import main
from correntia.harness import _write_curves


def _valid_model_text() -> str:
    anchors = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]])
    rep = kernel_representation(anchors, KernelSpec("rbf", 1.5))
    model = Model([[0.5, -1.0, 0.25], [-0.5, 1.0, 0.0]], [0.1, -0.2], rep, 0.7, ("a", "b"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return path.read_text(encoding="utf-8")


VALID_MODEL = _valid_model_text()
# Stands for the JSON number 1e400, which parses to inf; json.dumps cannot write it.
HUGE = "<1e400>"
VALUES = [None, True, "x", math.nan, HUGE, [], {}, [[1.0], [1.0, 2.0]]]
KEY_PATHS = [(key,) for key in json.loads(VALID_MODEL)] + [("kernel", "kind"),
                                                            ("kernel", "bandwidth")]

model_mutations = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(KEY_PATHS)),
    st.tuples(st.just("set"), st.sampled_from(KEY_PATHS), st.sampled_from(VALUES)),
    st.tuples(st.just("truncate"), st.integers(0, len(VALID_MODEL) - 1)),
)


def _mutated_model_text(mutation) -> str:
    kind, *args = mutation
    if kind == "truncate":
        return VALID_MODEL[: args[0]]
    payload = json.loads(VALID_MODEL)
    *parents, key = args[0]
    target = payload
    for parent in parents:
        target = target[parent]
    if kind == "drop":
        del target[key]
    else:
        target[key] = args[1]
    return json.dumps(payload, indent=2).replace(f'"{HUGE}"', "1e400")


@settings(max_examples=100, deadline=None)
@given(model_mutations)
@example(("truncate", len(VALID_MODEL) // 2))
@example(("set", ("kernel", "bandwidth"), 1e-300))
@example(("set", ("anchors", 0, 0), math.nan))
@example(("set", ("anchors", 1, 1), HUGE))
def test_model_file_loads_or_fails_with_one_error_line(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data, out = Path(tmp) / "model.json", Path(tmp) / "x.csv", Path(tmp) / "p.csv"
        model_path.write_text(_mutated_model_text(mutation), encoding="utf-8")
        data.write_text("f1,f2\n0.5,0.5\n-1.0,2.0\n", encoding="utf-8")
        try:
            loaded = isinstance(load_model(model_path), Model)
        except ValueError as exc:
            assert str(exc).startswith(f"{model_path}: ")
            loaded = False

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["predict", "--model", str(model_path), "--data", str(data),
                         "--out", str(out)])
        if loaded:
            assert (code, stderr.getvalue()) == (0, "")
            assert len(out.read_text(encoding="utf-8").splitlines()) == 3
        else:
            assert code == 1
            assert stderr.getvalue().startswith(f"error: {model_path}: ")
            assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
            assert not out.exists()


# write_csv against csv.writer: text cells that need quoting, awkward floats
# (repeated, so a column has fewer distinct values than cells) and every column kind.
CELL_TEXT = st.text(alphabet=[",", '"', "\n", "\r", " ", "a", "é", "ß", " "], max_size=4)
AWKWARD_FLOATS = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16,
                                  0.1 + 0.2, 1.0]) | st.floats()


def _columns(kind, rows):
    cells = {
        "float-array": AWKWARD_FLOATS,
        "floats": AWKWARD_FLOATS,
        "ints": st.integers(-(2**70), 2**70),
        "text": CELL_TEXT,
        "mixed": st.one_of(st.none(), st.booleans(), st.integers(), AWKWARD_FLOATS, CELL_TEXT),
    }[kind]
    column = st.lists(cells, min_size=rows, max_size=rows)
    return column.map(np.array) if kind == "float-array" else column


@st.composite
def csv_tables(draw):
    width, rows = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    header = draw(st.lists(CELL_TEXT, min_size=width, max_size=width))
    kinds = draw(st.lists(st.sampled_from(["float-array", "floats", "ints", "text", "mixed"]),
                          min_size=width, max_size=width))
    return header, [draw(_columns(kind, rows)) for kind in kinds]


@settings(max_examples=150, deadline=None)
@given(csv_tables())
@example((["x"], [[""]]))
@example(([""], [np.array([], dtype=float)]))
@example((["a,b", 'q"uote'], [np.array([-0.0, 0.0, -0.0, math.nan]), ["", "\r", "é\n", ""]]))
@example((["t", "x", "y"], [np.array([math.inf, 1e16, 5e-324]), np.array([0.1 + 0.2] * 3),
                            np.array([-math.inf, math.nan, math.nan])]))
def test_write_csv_bytes_match_csv_writer(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == _csv_writer_bytes(header, columns)


def _csv_writer_bytes(header, columns) -> bytes:
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    return expected.getvalue().encode("utf-8")


# The batch curve writer against csv.writer, file by file.  The curves of one
# call share awkward floats, so a memo or a threshold reuse that compared
# floats by value (-0.0 == 0.0) instead of by bits would write a wrong file.
@st.composite
def curve_batches(draw):
    def column(rows):
        return st.lists(AWKWARD_FLOATS, min_size=rows, max_size=rows).map(np.array)

    curves = []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(0, 5))
        threshold = draw(column(rows))
        curves.append(Curve(threshold, draw(column(rows)), draw(column(rows))))
        if draw(st.booleans()):  # a PR curve beside its ROC curve, as a sweep writes them
            if not draw(st.booleans()):
                rows = draw(st.integers(0, 5))
                threshold = draw(column(rows))
            curves.append(Curve(threshold, draw(column(rows)), draw(column(rows))))
    return curves


@settings(max_examples=150, deadline=None)
@given(curve_batches())
@example([Curve([math.inf, 0.0], [0.0, 0.5], [0.0, 1.0]),
          Curve([math.inf, -0.0], [-0.0, 0.5], [1.0, -0.0])])
@example([Curve([math.inf, 0.5, -0.0], [-0.0, math.nan, 5e-324], [math.inf, 0.0, 0.0]),
          Curve([math.inf, 0.5, -0.0], [0.0, -math.inf, 5e-324], [-0.0, math.nan, 1.0]),
          Curve([0.0, math.nan], [5e-324, -0.0], [0.0, math.inf])])
def test_write_curves_bytes_match_csv_writer(curves):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{i}.csv" for i in range(len(curves))]
        _write_curves(list(zip(paths, curves)))
        for path, curve in zip(paths, curves):
            columns = [curve.threshold, curve.x, curve.y]
            assert path.read_bytes() == _csv_writer_bytes(["threshold", "x", "y"], columns)


# the thresholds once, the ROC x and y, the PR y, and the PR x unless reused
@pytest.mark.parametrize(
    "pr_x, formatted", [([0.0, 0.5, 1.0], 4), ([-0.0, 0.5, 1.0], 5)], ids=["equal", "signed-zero"]
)
def test_write_curves_reuses_roc_y_texts_only_for_equal_bits(pr_x, formatted, monkeypatch):
    # A PR recall column holding the bits of the ROC true-positive rate
    # before it takes that file's texts; one that equals it only by value
    # (-0.0 == 0.0) is formatted itself.
    import correntia.harness

    calls = []
    real = correntia.harness._cell_texts

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(correntia.harness, "_cell_texts", counting)
    roc = Curve([math.inf, 0.5, 0.0], [0.0, 0.25, 1.0], [0.0, 0.5, 1.0])
    pr = Curve([math.inf, 0.5, 0.0], pr_x, [1.0, 0.75, 0.5])
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "roc.csv", Path(tmp) / "pr.csv"]
        _write_curves(list(zip(paths, (roc, pr))))
        for path, curve in zip(paths, (roc, pr)):
            columns = [curve.threshold, curve.x, curve.y]
            assert path.read_bytes() == _csv_writer_bytes(["threshold", "x", "y"], columns)
    assert len(calls) == formatted
