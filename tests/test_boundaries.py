"""Property tests at input boundaries: a malformed input works or fails with one error line."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from correntia import KernelSpec, Model, kernel_representation, load_model, save_model
from correntia.cli import main


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
