"""End-to-end CLI flows: synth, train, predict, eval, experiment."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import correntia
import correntia.cli
import correntia.harness
import correntia.regmaxcem
from correntia import (
    load_csv,
    load_model,
    multiclass_binary_scores,
    pr_curve,
    roc_curve,
    score_matrix,
)
from correntia.cli import main
from correntia.harness import write_curve

# Child interpreters import the same checkout as this one.
SRC_DIR = str(Path(correntia.__file__).resolve().parents[1])


def run_cli(args):
    return main([str(a) for a in args])


def run_python(args):
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    code = run_cli(
        ["synth", "--out", path, "--means", "3,0;-3,0", "--std", "0.6", "--per-class", "40", "--seed", "4"]
    )
    assert code == 0
    return path


class TestSynth:
    def test_writes_headed_csv(self, blob_csv):
        lines = blob_csv.read_text().splitlines()
        assert lines[0] == "f1,f2,label"
        assert len(lines) == 81

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--means", "1,1;-1,-1", "--std", "1.0", "--per-class", "10", "--seed", "2"]
        assert run_cli(["synth", "--out", a] + args) == 0
        assert run_cli(["synth", "--out", b] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_numeric_means_name_the_flag(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", tmp_path / "x.csv", "--means", "a,0;1,1"]) == 1
        assert capsys.readouterr().err == (
            "error: --means: expected numbers like '2,0;-2,0', got 'a,0;1,1'\n"
        )
        assert not (tmp_path / "x.csv").exists()


class TestTrainPredictEval:
    @pytest.mark.parametrize("method", ["regmaxcem", "square", "hinge", "logistic"])
    def test_full_flow(self, tmp_path, blob_csv, method, capsys):
        model_path = tmp_path / f"{method}.json"
        assert run_cli(
            ["train", "--data", blob_csv, "--label-col", "label", "--method", method,
             "--model-out", model_path, "--alpha", "0.01"]
        ) == 0
        assert model_path.exists()

        pred_path = tmp_path / "pred.csv"
        assert run_cli(["predict", "--model", model_path, "--data", blob_csv,
                        "--out", pred_path, "--label-col", "label"]) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "label,score_1,score_2"
        assert len(lines) == 81
        assert {line.split(",")[0] for line in lines[1:]} <= {"1", "2"}

        assert run_cli(["eval", "--model", model_path, "--data", blob_csv,
                        "--label-col", "label"]) == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines() if l.startswith("accuracy=")][0].split("=")[1])
        assert acc > 0.95

    def test_alpha_grid_selection(self, tmp_path, blob_csv, capsys):
        model_path = tmp_path / "grid.json"
        assert run_cli(
            ["train", "--data", blob_csv, "--label-col", "label", "--method", "square",
             "--model-out", model_path, "--alpha", "grid"]
        ) == 0
        out = capsys.readouterr().out
        assert "alpha selected by inner cross-validation" in out
        assert model_path.exists()

    def test_kernel_train_with_trace(self, tmp_path, blob_csv):
        model_path = tmp_path / "kernel.json"
        trace_path = tmp_path / "trace.csv"
        assert run_cli(
            ["train", "--data", blob_csv, "--label-col", "label", "--method", "regmaxcem",
             "--model-out", model_path, "--representation", "kernel", "--kernel", "rbf",
             "--bandwidth", "median", "--trace-out", trace_path]
        ) == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,objective,sigma,max_param_change"
        assert len(lines) >= 2
        # a kernel model is self-contained: predict works from the saved file alone
        pred_path = tmp_path / "kpred.csv"
        assert run_cli(["predict", "--model", model_path, "--data", blob_csv,
                        "--out", pred_path, "--label-col", "label"]) == 0
        assert len(pred_path.read_text().splitlines()) == 81

    @pytest.mark.parametrize("method", ["square", "hinge", "logistic"])
    def test_trace_out_needs_regmaxcem(self, tmp_path, blob_csv, method, capsys):
        model_path, trace_path = tmp_path / "m.json", tmp_path / "trace.csv"
        assert run_cli(
            ["train", "--data", blob_csv, "--label-col", "label", "--method", method,
             "--model-out", model_path, "--trace-out", trace_path]
        ) == 1
        assert capsys.readouterr().err == (
            f"error: --trace-out needs --method regmaxcem, got --method {method}\n"
        )
        assert not model_path.exists()
        assert not trace_path.exists()

    def test_original_label_names_survive(self, tmp_path, capsys):
        data = tmp_path / "named.csv"
        data.write_text("x,kind\n2.0,spam\n2.5,spam\n-2.0,ham\n-2.5,ham\n")
        model_path = tmp_path / "m.json"
        assert run_cli(["train", "--data", data, "--label-col", "kind", "--method", "square",
                        "--model-out", model_path]) == 0
        pred = tmp_path / "p.csv"
        assert run_cli(["predict", "--model", model_path, "--data", data,
                        "--out", pred, "--label-col", "kind"]) == 0
        body = pred.read_text().splitlines()
        assert body[0] == "label,score_spam,score_ham"
        assert [line.split(",")[0] for line in body[1:]] == ["spam", "spam", "ham", "ham"]


    def test_eval_aligns_label_order_to_model(self, tmp_path, capsys):
        # training file lists spam first; eval file lists ham first
        train_file = tmp_path / "train.csv"
        train_file.write_text("x,kind\n2.0,spam\n2.5,spam\n-2.0,ham\n-2.5,ham\n")
        eval_file = tmp_path / "eval.csv"
        eval_file.write_text("x,kind\n-2.2,ham\n2.2,spam\n-1.8,ham\n1.8,spam\n")
        model_path = tmp_path / "m.json"
        assert run_cli(["train", "--data", train_file, "--label-col", "kind",
                        "--method", "square", "--model-out", model_path]) == 0
        assert run_cli(["eval", "--model", model_path, "--data", eval_file,
                        "--label-col", "kind", "--positive-class", "spam"]) == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines() if l.startswith("accuracy=")][0].split("=")[1])
        assert acc == 1.0
        auc_line = [l for l in out.splitlines() if l.startswith("auc=")][0]
        assert float(auc_line.split("=")[1]) == 1.0

    def test_eval_writes_curves(self, tmp_path, blob_csv):
        model_path = tmp_path / "m.json"
        assert run_cli(["train", "--data", blob_csv, "--label-col", "label",
                        "--method", "square", "--model-out", model_path]) == 0
        out = tmp_path / "curves"
        assert run_cli(["eval", "--model", model_path, "--data", blob_csv,
                        "--label-col", "label", "--positive-class", "2", "--out-dir", out]) == 0
        model = load_model(model_path)
        ds = load_csv(blob_csv, "label")
        scores, truth = multiclass_binary_scores(score_matrix(model, ds.features), ds.labels, 2)
        for name, curve in (("roc.csv", roc_curve), ("pr.csv", pr_curve)):
            write_curve(tmp_path / name, curve(scores, truth))
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert (out / "roc.csv").read_text().startswith("threshold,x,y\n")

    def test_eval_scores_the_data_once(self, tmp_path, blob_csv, monkeypatch, capsys):
        model_path = tmp_path / "kernel.json"
        assert run_cli(["train", "--data", blob_csv, "--label-col", "label",
                        "--method", "regmaxcem", "--model-out", model_path,
                        "--representation", "kernel", "--iters", "3"]) == 0
        calls = []
        score_matrix = correntia.regmaxcem.score_matrix

        def counting(*args):
            calls.append(args)
            return score_matrix(*args)

        for module in (correntia.regmaxcem, correntia.harness, correntia.cli):
            monkeypatch.setattr(module, "score_matrix", counting)
        capsys.readouterr()
        assert run_cli(["eval", "--model", model_path, "--data", blob_csv,
                        "--label-col", "label", "--out-dir", tmp_path / "curves"]) == 0
        assert len(calls) == 1
        assert [line.split("=")[0] for line in capsys.readouterr().out.splitlines()] == [
            "accuracy", "auc", f"curves written to {tmp_path / 'curves'}"
        ]

    def test_eval_rejects_unknown_label(self, tmp_path, capsys):
        train_file = tmp_path / "train.csv"
        train_file.write_text("x,kind\n2.0,a\n-2.0,b\n")
        eval_file = tmp_path / "eval.csv"
        eval_file.write_text("x,kind\n1.0,c\n-1.0,a\n")
        model_path = tmp_path / "m.json"
        assert run_cli(["train", "--data", train_file, "--label-col", "kind",
                        "--method", "square", "--model-out", model_path]) == 0
        assert run_cli(["eval", "--model", model_path, "--data", eval_file,
                        "--label-col", "kind"]) == 1
        assert "unknown to the model" in capsys.readouterr().err


class TestErrors:
    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        code = run_cli(["train", "--data", tmp_path / "nope.csv", "--label-col", "y",
                        "--method", "square", "--model-out", tmp_path / "m.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_near_singular_train_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "collinear.csv"
        x = [0.37 * i - 7.1 for i in range(40)]
        data.write_text("a,b,c,label\n" + "".join(
            f"{v!r},{2 * v!r},{v!r},{1 + i % 2}\n" for i, v in enumerate(x)
        ))
        code = run_cli(["train", "--data", data, "--label-col", "label", "--method", "regmaxcem",
                        "--model-out", tmp_path / "m.json", "--alpha", "1e-20"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "leading minor" not in err
        assert not (tmp_path / "m.json").exists()

    def test_empty_label_is_one_line_error(self, tmp_path, capsys):
        data = tmp_path / "blank.csv"
        data.write_text("f1,f2,label\n1,2,a\n2,3,b\n3,1,\n4,4,a\n0,1,b\n")
        code = run_cli(["train", "--data", data, "--label-col", "label", "--method", "square",
                        "--model-out", tmp_path / "m.json"])
        assert code == 1
        assert capsys.readouterr().err == "error: row 3: empty label in column 'label'\n"
        assert not (tmp_path / "m.json").exists()

    def test_column_named_twice_is_one_line_error(self, tmp_path, capsys):
        # the second "label" column would be trained on as a feature
        data = tmp_path / "twice.csv"
        data.write_text("label,f1,label\na,1,a\nb,2,b\na,1.5,a\nb,2.5,b\n")
        code = run_cli(["train", "--data", data, "--label-col", "label", "--method", "square",
                        "--model-out", tmp_path / "m.json"])
        assert code == 1
        assert capsys.readouterr().err == "error: header column 'label' appears more than once\n"
        assert not (tmp_path / "m.json").exists()

    def test_negative_alpha_is_one_line_error(self, tmp_path, blob_csv, capsys):
        code = run_cli(["train", "--data", blob_csv, "--label-col", "label", "--method", "square",
                        "--model-out", tmp_path / "m.json", "--alpha", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: alpha must be >= 0, got -1.0\n"
        assert not (tmp_path / "m.json").exists()

    def test_removed_step_size_flag_is_one_line_error(self, tmp_path, blob_csv, capsys):
        # hinge takes Newton steps and no step size since 0.9.0
        code = run_cli(["train", "--data", blob_csv, "--label-col", "label", "--method", "hinge",
                        "--model-out", tmp_path / "m.json", "--step-size", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: correntia: unrecognized arguments: --step-size 0.5\n"
        )
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method", ["regmaxcem", "square", "hinge", "logistic"])
    def test_infinite_alpha_is_one_line_error(self, tmp_path, blob_csv, method, capsys):
        # an infinite ridge zeroes the linear-system methods and breaks the iterative ones
        code = run_cli(["train", "--data", blob_csv, "--label-col", "label", "--method", method,
                        "--model-out", tmp_path / "m.json", "--alpha", "inf"])
        assert code == 1
        assert capsys.readouterr().err == "error: alpha must be finite, got inf\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("method", ["regmaxcem", "hinge"])
    def test_overflowing_linear_kernel_is_one_line_error(self, tmp_path, method):
        # a child interpreter, so numpy warnings reach stderr as they would for a user
        data = tmp_path / "huge.csv"
        data.write_text("a,b,label\n" + "".join(
            f"{(i % 7 + 1) * 1e160!r},{(-1) ** i * 3e159!r},{1 + i % 2}\n" for i in range(20)
        ))
        result = run_python(["-m", "correntia", "train", "--data", data, "--label-col", "label",
                             "--method", method, "--model-out", tmp_path / "m.json",
                             "--representation", "kernel", "--kernel", "linear"])
        assert result.returncode == 1
        assert result.stderr == "error: row 0: the linear kernel overflows; rescale the features\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "nan"], "alpha must be >= 0, got nan"),
            (["--sigma", "nan"], "fixed sigma must be > 0, got nan"),
            (["--representation", "kernel", "--bandwidth", "nan"],
             "rbf kernel needs bandwidth > 0, got nan"),
            (["--sigma", "1e-300"],
             "fixed sigma 1e-300 is too small: 2 * 1e-300**2 underflows to 0"),
            (["--sigma-floor", "1e-300"],
             "sigma floor 1e-300 is too small: 2 * 1e-300**2 underflows to 0"),
            (["--representation", "kernel", "--bandwidth", "1e-300"],
             "rbf kernel bandwidth 1e-300 is too small: 2 * 1e-300**2 underflows to 0"),
            (["--sigma", "inf"], "fixed sigma must be finite, got inf"),
            (["--sigma-floor", "inf"], "sigma floor must be finite, got inf"),
            (["--representation", "kernel", "--bandwidth", "inf"],
             "rbf kernel bandwidth must be finite, got inf"),
            (["--sigma", "1e200"], "fixed sigma 1e+200 is too large: 2 * 1e+200**2 overflows"),
            (["--sigma-floor", "1e200"],
             "sigma floor 1e+200 is too large: 2 * 1e+200**2 overflows"),
            (["--representation", "kernel", "--bandwidth", "1e200"],
             "rbf kernel bandwidth 1e+200 is too large: 2 * 1e+200**2 overflows"),
        ],
    )
    def test_nan_hyperparameter_is_one_line_error(self, tmp_path, blob_csv, flags, message, capsys):
        code = run_cli(["train", "--data", blob_csv, "--label-col", "label", "--method",
                        "regmaxcem", "--model-out", tmp_path / "m.json", *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--iters", "2.5"], "correntia train: argument --iters: invalid int value: '2.5'"),
            (["--alpha", "x"],
             "correntia train: argument --alpha: expected a number or 'grid', got 'x'"),
            (["--tol", "abc"], "correntia train: argument --tol: invalid float value: 'abc'"),
            (None, "correntia: argument command: invalid choice: 'frobnicate'"),
        ],
    )
    def test_usage_error_is_one_line_error(self, tmp_path, argv, message, capsys):
        if argv is None:
            argv = ["frobnicate"]
        else:
            argv = ["train", "--data", tmp_path / "d.csv", "--label-col", "label",
                    "--method", "square", "--model-out", tmp_path / "m.json", *argv]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_subcommand_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["train", "--help"])
        assert info.value.code == 0
        assert "--iters" in capsys.readouterr().out

    @pytest.fixture
    def square_model(self, tmp_path, blob_csv):
        path = tmp_path / "m.json"
        assert run_cli(["train", "--data", blob_csv, "--label-col", "label",
                        "--method", "square", "--model-out", path]) == 0
        return path

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_predict_rejects_non_finite_cell(self, tmp_path, square_model, cell, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(f"f1,f2\n0.5,1.0\n{cell},0\n")
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run_cli(["predict", "--model", square_model, "--data", data, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "row 2, column 'f1'" in err and "non-finite" in err
        assert "np.float64" not in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.5,1.0,1,7", "0.5"])
    def test_predict_rejects_ragged_row(self, tmp_path, square_model, row, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text(f"f1,f2,label\n0.1,0.2,1\n{row}\n")
        capsys.readouterr()
        assert run_cli(["predict", "--model", square_model, "--data", data,
                        "--out", tmp_path / "p.csv", "--label-col", "label"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: row 2: expected 3 cells, got {len(row.split(','))}" in err

    def test_predict_without_label_column(self, tmp_path, blob_csv, square_model):
        labeled, unlabeled = tmp_path / "labeled.csv", tmp_path / "unlabeled.csv"
        features = tmp_path / "features.csv"
        features.write_text("".join(
            line.rsplit(",", 1)[0] + "\n" for line in blob_csv.read_text().splitlines()
        ))
        assert run_cli(["predict", "--model", square_model, "--data", blob_csv,
                        "--out", labeled, "--label-col", "label"]) == 0
        assert run_cli(["predict", "--model", square_model, "--data", features,
                        "--out", unlabeled, "--label-col", "label"]) == 0
        assert labeled.read_bytes() == unlabeled.read_bytes()
        assert len(unlabeled.read_text().splitlines()) == 81

    def test_predict_rejects_inconsistent_model_file(self, tmp_path, blob_csv, square_model, capsys):
        payload = json.loads(square_model.read_text())
        payload["class_map"] = payload["class_map"][:1]
        square_model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["predict", "--model", square_model, "--data", blob_csv,
                        "--out", tmp_path / "p.csv", "--label-col", "label"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {square_model}: class_map must list 2 class names, one per weight row\n"

    def test_predict_rejects_non_finite_kernel_anchor(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "kernel.json"
        assert run_cli(["train", "--data", blob_csv, "--label-col", "label", "--method", "square",
                        "--model-out", model, "--representation", "kernel", "--kernel", "rbf",
                        "--bandwidth", "1.0"]) == 0
        payload = json.loads(model.read_text())
        payload["anchors"][0][0] = math.nan
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(["predict", "--model", model, "--data", blob_csv,
                        "--out", tmp_path / "p.csv", "--label-col", "label"]) == 1
        assert capsys.readouterr().err == f"error: {model}: kernel anchors must be finite\n"

    def test_bad_config_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "methods": [], "protocol": {"kind": "kfold"}}))
        assert run_cli(["experiment", "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    # Output destinations are checked before any input is read: the inputs
    # named here do not exist, so reading one first would fail differently.
    @pytest.mark.parametrize("argv, flag, bad, reason", [
        (["train", "--method", "regmaxcem", "--model-out", "{missing}/m.json",
          "--trace-out", "{tmp}/t.csv"],
         "--model-out", "{missing}/m.json", "directory {missing} does not exist"),
        (["train", "--method", "regmaxcem", "--model-out", "{tmp}/m.json",
          "--trace-out", "{missing}/t.csv"],
         "--trace-out", "{missing}/t.csv", "directory {missing} does not exist"),
        (["train", "--method", "square", "--model-out", "{tmp}"],
         "--model-out", "{tmp}", "is a directory"),
        (["predict", "--model", "{tmp}/absent.json", "--out", "{tmp}"],
         "--out", "{tmp}", "is a directory"),
        (["predict", "--model", "{tmp}/absent.json", "--out", "{file}/p.csv"],
         "--out", "{file}/p.csv", "{file} is not a directory"),
        (["eval", "--model", "{tmp}/absent.json", "--out-dir", "{file}"],
         "--out-dir", "{file}", "{file} is not a directory"),
        (["eval", "--model", "{tmp}/absent.json", "--out-dir", "{file}/curves/new"],
         "--out-dir", "{file}/curves/new", "{file} is not a directory"),
        (["experiment", "--config", "{tmp}/absent.json", "--out", "{file}"],
         "--out", "{file}", "{file} is not a directory"),
        (["synth", "--means", "1,0;-1,0", "--out", "{tmp}"],
         "--out", "{tmp}", "is a directory"),
    ], ids=["train-model-dir", "train-trace-dir", "train-model-is-dir", "predict-out-is-dir",
            "predict-out-under-file", "eval-out-dir-is-file", "eval-out-dir-under-file",
            "experiment-out-is-file", "synth-out-is-dir"])
    def test_unwritable_output_fails_first_naming_the_flag(self, tmp_path, capsys, argv, flag,
                                                           bad, reason):
        places = {"tmp": tmp_path, "missing": tmp_path / "missing", "file": tmp_path / "file.txt"}
        places["file"].write_text("not a directory\n")

        def fill(text):
            return text.format(**places)

        inputs = {"train": ["--data", tmp_path / "absent.csv", "--label-col", "label"],
                  "predict": ["--data", tmp_path / "absent.csv"],
                  "eval": ["--data", tmp_path / "absent.csv", "--label-col", "label"]}
        code = run_cli([*map(fill, argv), *inputs.get(argv[0], [])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {flag} {fill(bad)}: {fill(reason)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


class TestExperiment:
    def _config(self, tmp_path):
        # overlapping blobs: per-fold accuracies genuinely depend on the seed
        cfg = {
            "seed": 11,
            "synthetic": {"means": [[1.0, 0.0], [-1.0, 0.0]], "std": 1.0,
                          "samples_per_class": 25, "seed": 6},
            "methods": [{"name": "regmaxcem", "alpha": 0.01}, {"name": "square", "alpha": 0.01}],
            "protocol": {"kind": "kfold", "k": 3},
            "noise_rates": [0.0, 0.1],
        }
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_writes_summary_and_curves(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["experiment", "--config", self._config(tmp_path), "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["reports"]) == 4
        for report in summary["reports"]:
            assert len(report["ttests"]) == 1
        assert (out / "regmaxcem_noise0.1_roc.csv").exists()

    def test_positive_class_out_of_range_is_one_line_error(self, tmp_path, capsys):
        config = self._config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "positive_class": 3}))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: positive_class 3 out of range 1..2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", -1, "alpha must be >= 0, got -1"),
            ("iters", 0, "max_iters must be >= 1, got 0"),
            ("step_size", 0.5, "methods[0]: unknown key(s) step_size"),
            ("tol", -1, "tol must be >= 0, got -1"),
            ("sigma", 0, "fixed sigma must be > 0, got 0.0"),
            ("sigma", "x", "sigma must be a number or 'adaptive', got 'x'"),
            ("alpha", float("nan"), "alpha must be >= 0, got nan"),
            ("tol", float("nan"), "tol must be >= 0, got nan"),
            ("sigma", float("nan"), "fixed sigma must be > 0, got nan"),
            ("sigma_floor", float("nan"), "sigma floor must be > 0, got nan"),
            ("sigma_floor", 1e-300,
             "sigma floor 1e-300 is too small: 2 * 1e-300**2 underflows to 0"),
            ("alpha", "x", "alpha must be a number, got 'x'"),
            ("iters", "5", "iters must be an integer, got '5'"),
            ("iters", 2.5, "iters must be an integer, got 2.5"),
        ],
    )
    def test_bad_hyperparameter_fails_at_load(self, tmp_path, capsys, field, value, message):
        config = self._config(tmp_path)
        raw = json.loads(config.read_text())
        raw["methods"] = [{"name": "hinge", field: value}, {"name": "square"}]
        config.write_text(json.dumps(raw))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_regmaxcem_sigma_whose_square_underflows_fails_at_load(self, tmp_path, capsys):
        # 2 * sigma**2 is 0, so every cell would fail with DegenerateClassError and exit 0
        config = self._config(tmp_path)
        raw = json.loads(config.read_text())
        raw["methods"] = [{"name": "regmaxcem", "sigma": 1e-300}]
        config.write_text(json.dumps(raw))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: fixed sigma 1e-300 is too small: 2 * 1e-300**2 underflows to 0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: {k: v for k, v in raw.items() if k != "seed"},
             "config: missing key(s) seed"),
            (lambda raw: {**raw, "methods": [{"name": "square", "alph": 0.1}]},
             "methods[0]: unknown key(s) alph"),
            (lambda raw: {**raw, "methods": {"name": "square"}},
             "methods: expected a list, got dict"),
            (lambda raw: [raw], "config: expected an object, got list"),
            (lambda raw: {**{k: v for k, v in raw.items() if k != "synthetic"},
                          "data": {"path": "x.csv"}},
             "data: missing key(s) label_column"),
            (lambda raw: {**{k: v for k, v in raw.items() if k != "synthetic"},
                          "data": {"path": 3, "label_column": "y"}},
             "path and label_column must be strings, got DataSpec(path=3, label_column='y')"),
            (lambda raw: {**raw, "positive_class": "x"},
             "positive_class must be an integer, got 'x'"),
            (lambda raw: {**raw, "protocol": {"kind": "kfold", "k": "3"}},
             "k must be an integer, got '3'"),
            (lambda raw: {**raw, "protocol": {"kind": "kfold", "times": 2.5}},
             "times must be an integer, got 2.5"),
            (lambda raw: {**raw, "synthetic": {**raw["synthetic"], "samples_per_class": 2.5}},
             "samples_per_class must be an integer, got 2.5"),
            (lambda raw: {**raw, "noise_rate": [0.4]}, "config: unknown key(s) noise_rate"),
            (lambda raw: {**raw, "representation": {"bandwith": 0.5}},
             "representation: unknown key(s) bandwith"),
            (lambda raw: {**raw, "representation": {"kernel": "poly"}},
             "unknown kernel kind 'poly'; expected one of ('linear', 'rbf')"),
            (lambda raw: {**raw, "seed": 1.5}, "seed must be an integer, got 1.5"),
            (lambda raw: {**raw, "noise_rates": []},
             "noise_rates must be a nonempty list of rates in [0, 1], got []"),
            (lambda raw: {**raw, "noise_rates": [0.2, 0.2]},
             "noise_rates must be distinct, got [0.2, 0.2]"),
            (lambda raw: {**raw, "methods": [{"name": "square"}, {"name": "square", "alpha": 1}]},
             "methods must have distinct names, got ['square', 'square']"),
            (lambda raw: {**raw, "synthetic": {**raw["synthetic"], "means": "ab"}},
             "means must be equal-length vectors of finite numbers, got 'ab'"),
            (lambda raw: {**raw, "synthetic": {**raw["synthetic"], "means": [["1.5"], [2]]}},
             "means must be equal-length vectors of finite numbers, got [['1.5'], [2]]"),
            (lambda raw: {**raw, "protocol": {"kind": "repeated-split", "fraction": 2.0}},
             "fraction must be in (0, 1), got 2.0"),
            (lambda raw: {**raw, "protocol": {"kind": "repeated-split", "fraction": float("nan")}},
             "fraction must be in (0, 1), got nan"),
        ],
        ids=[
            "missing-seed", "unknown-method-key", "methods-object", "top-level-list",
            "data-without-label-column", "integer-data-path", "string-positive-class", "string-k", "float-times",
            "float-samples-per-class", "unknown-top-level-key", "unknown-representation-key",
            "unknown-kernel", "float-seed", "empty-noise-rates", "repeated-noise-rate",
            "repeated-method-name", "string-means", "numeric-string-mean", "fraction-above-one",
            "nan-fraction",
        ],
    )
    def test_malformed_config_fails_at_load(self, tmp_path, capsys, edit, message):
        config = self._config(tmp_path)
        config.write_text(json.dumps(edit(json.loads(config.read_text()))))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_nan_bandwidth_fails_before_training(self, tmp_path, capsys):
        config = self._config(tmp_path)
        raw = json.loads(config.read_text())
        raw["representation"] = {"mode": "kernel", "bandwidth": float("nan")}
        config.write_text(json.dumps(raw))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: rbf kernel needs bandwidth > 0, got nan\n"
        assert not (tmp_path / "out").exists()

    def test_nan_std_fails_at_load(self, tmp_path, capsys):
        config = self._config(tmp_path)
        raw = json.loads(config.read_text())
        raw["synthetic"]["std"] = float("nan")
        config.write_text(json.dumps(raw))
        assert run_cli(["experiment", "--config", config, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == "error: std must be > 0, got nan\n"
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_results(self, tmp_path):
        config = self._config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["experiment", "--config", config, "--out", out_a]) == 0
        assert run_cli(["experiment", "--config", config, "--out", out_b, "--seed", "99"]) == 0
        assert (out_a / "summary.json").read_bytes() != (out_b / "summary.json").read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        result = run_python(["-m", "correntia", "--help"])
        assert result.returncode == 0
        for sub in ("train", "predict", "eval", "experiment", "synth"):
            assert sub in result.stdout


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(tmp_path, demo):
    # run a copy: demos that write files write them next to themselves
    copy = tmp_path / demo.name
    copy.write_bytes(demo.read_bytes())
    result = run_python([copy])
    assert result.returncode == 0, result.stderr


STARTUP_PROBE = """
import json, sys

def scipy_modules():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.startswith("scipy.")})

import correntia
from correntia.cli import main
seen = {"import": scipy_modules()}
model, data, out = sys.argv[1:]
assert main(["predict", "--model", model, "--data", data, "--out", out + "/p.csv",
             "--label-col", "label"]) == 0
assert main(["eval", "--model", model, "--data", data, "--label-col", "label"]) == 0
seen["predict+eval"] = scipy_modules()
assert main(["train", "--data", data, "--label-col", "label", "--method", "regmaxcem",
             "--model-out", out + "/m.json"]) == 0
seen["train"] = scipy_modules()
print(json.dumps(seen))
"""


class TestStartup:
    """Only the weight update's scipy.linalg is imported with the package.

    scipy.special and scipy.spatial each add ~0.1 s to start-up, so only the
    functions that call them import them: linear-mode commands load neither.
    """

    def test_scipy_loads_only_where_used(self, tmp_path, blob_csv):
        model_path = tmp_path / "linear.json"
        assert run_cli(["train", "--data", blob_csv, "--label-col", "label",
                        "--method", "regmaxcem", "--model-out", model_path]) == 0
        result = run_python(["-c", STARTUP_PROBE, model_path, blob_csv, tmp_path])
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        for step in ("import", "predict+eval", "train"):
            assert "scipy.linalg" in seen[step]
            assert "scipy.special" not in seen[step] and "scipy.spatial" not in seen[step]
