"""Synthetic generation, the experiment sweep, and report emission."""

import csv
import gc
import io
import json
import math
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from correntia import harness, kernels, regmaxcem
from correntia import (
    BaselineConfig,
    DataSpec,
    DegenerateClassError,
    ExperimentConfig,
    MethodSpec,
    ProtocolSpec,
    RepresentationSpec,
    SigmaPolicy,
    SplitSpec,
    SyntheticSpec,
    TrainConfig,
    accuracy,
    auc,
    child_seed,
    emit_reports,
    generate_synthetic,
    inject_label_noise,
    kfold,
    linear_representation,
    pr_curve,
    predict_labels,
    roc_curve,
    run_experiment,
    split,
    train_square,
)
from correntia.harness import (
    ALPHA_GRID,
    config_from_dict,
    config_to_dict,
    load_config,
    select_alpha_by_cv,
)


def blob_config(**overrides):
    base = dict(
        methods=(MethodSpec("regmaxcem"), MethodSpec("square")),
        protocol=ProtocolSpec("repeated-split", times=4, fraction=0.5),
        noise_rates=(0.0, 0.2),
        seed=5,
        synthetic=SyntheticSpec(((3.0, 0.0), (-3.0, 0.0)), 0.5, 30, seed=1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` made through any correntia module that binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, bound in list(sys.modules.items()):
        if key.split(".")[0] == "correntia" and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


class TestGenerateSynthetic:
    def test_tiny_std_collapses_to_means(self):
        spec = SyntheticSpec(((1.0, 2.0), (-4.0, 0.5)), 1e-9, 5, seed=0)
        ds = generate_synthetic(spec)
        means = np.array(spec.means)
        for l in (1, 2):
            block = ds.features[ds.labels == l]
            np.testing.assert_allclose(block, np.tile(means[l - 1], (5, 1)), atol=1e-6)

    def test_deterministic(self):
        spec = SyntheticSpec(((0.0,), (5.0,)), 1.0, 20, seed=9)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_separated_blobs_are_nearly_perfectly_classifiable(self):
        spec = SyntheticSpec(((5.0, 0.0), (-5.0, 0.0)), 0.5, 100, seed=2)
        ds = generate_synthetic(spec)
        train_ds, test_ds = split(ds, SplitSpec(0.5, seed=3))
        model = train_square(train_ds, linear_representation(), 0.01)
        assert accuracy(predict_labels(model, test_ds.features), test_ds.labels) > 0.99

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            SyntheticSpec(((1.0,), (1.0,)), 1.0, 5, seed=0)
        with pytest.raises(ValueError, match="std"):
            SyntheticSpec(((1.0,), (2.0,)), 0.0, 5, seed=0)
        with pytest.raises(ValueError, match="std must be > 0, got nan"):
            SyntheticSpec(((1.0,), (2.0,)), math.nan, 5, seed=0)

    def test_infinite_std_is_rejected_when_built(self):
        # used to pass and fail in run_experiment as "features contain non-finite values"
        with pytest.raises(ValueError, match="^std must be finite, got inf$"):
            SyntheticSpec(((1.0,), (2.0,)), math.inf, 5, seed=0)

    @pytest.mark.parametrize(
        "means",
        ["ab", (("1.5",), (2.0,)), ((1.0,), (True,)), ((math.nan,), (1.0,)), ((1.0,), (2.0, 0.0)),
         (), ((), ()), (1.0, 2.0)],
        ids=["string", "numeric-string", "bool", "nan", "ragged", "empty", "empty-rows", "flat"],
    )
    def test_bad_means_name_the_field(self, means):
        with pytest.raises(ValueError, match="^means must be equal-length vectors"):
            SyntheticSpec(means, 1.0, 5, seed=0)


class TestRunExperiment:
    def test_clean_separable_kfold_is_nearly_perfect(self):
        cfg = ExperimentConfig(
            methods=(MethodSpec("square"),),
            protocol=ProtocolSpec("kfold", k=5),
            noise_rates=(0.0,),
            seed=2,
            synthetic=SyntheticSpec(((4.0, 0.0), (-4.0, 0.0)), 0.5, 40, seed=7),
        )
        reports = run_experiment(cfg)
        assert len(reports) == 1
        report = reports[0]
        assert len(report.per_split_accuracies) == 5
        assert report.accuracy > 0.99
        assert report.auc is not None and report.auc > 0.99
        assert report.auc == pytest.approx(auc(report.roc), abs=1e-12)
        assert not report.errors

    def test_identical_methods_yield_degenerate_ttest(self):
        # one regmaxcem round is the square-loss solve, so every split's accuracy matches
        cfg = blob_config(
            methods=(MethodSpec("square"), MethodSpec("regmaxcem", iters=1)),
            noise_rates=(0.0,),
        )
        reports = run_experiment(cfg)
        assert len(reports) == 2
        for report in reports:
            assert len(report.ttests) == 1
            assert report.ttests[0].degenerate
            assert report.ttests[0].p_value is None

    def test_noise_counts_match_contract(self):
        cfg = blob_config(noise_rates=(0.0, 0.2), methods=(MethodSpec("square"),))
        run_experiment(cfg)  # must not raise; now replicate its noise stream
        ds = generate_synthetic(cfg.synthetic)
        for s in range(cfg.protocol.times):
            train_ds, _ = split(ds, SplitSpec(0.5, child_seed(cfg.seed, 1, s)))
            clean = inject_label_noise(train_ds, 0.0, child_seed(cfg.seed, 2, 0, s))
            noisy = inject_label_noise(train_ds, 0.2, child_seed(cfg.seed, 2, 1, s))
            assert int(np.sum(clean.labels != train_ds.labels)) == 0
            assert int(np.sum(noisy.labels != train_ds.labels)) == math.floor(0.2 * train_ds.n_samples)

    def test_report_order_follows_config(self):
        cfg = blob_config()
        reports = run_experiment(cfg)
        expected = [
            (rate, m.name) for rate in cfg.noise_rates for m in cfg.methods
        ]
        assert [(r.noise_rate, r.method) for r in reports] == expected

    def test_cell_failures_are_isolated(self):
        # a fixed sigma of 1e-8 underflows every auxiliary weight after round 1
        cfg = blob_config(
            methods=(MethodSpec("regmaxcem", sigma=1e-8), MethodSpec("square")),
            noise_rates=(0.0,),
            protocol=ProtocolSpec("repeated-split", times=2, fraction=0.5),
        )
        reports = run_experiment(cfg)
        broken, healthy = reports
        assert broken.method == "regmaxcem"
        assert len(broken.errors) == 2 and "auxiliary weights" in broken.errors[0]
        assert not broken.per_split_accuracies
        assert healthy.method == "square"
        assert not healthy.errors
        assert len(healthy.per_split_accuracies) == 2

    def test_rbf_hinge_keeps_up_with_square(self):
        # three rbf blobs on a radius-2 circle; the hinge baseline used to fall
        # to chance (0.333) at noise 0.4, where square reads 0.898
        means = tuple((2.0 * math.cos(2.0 * math.pi * k / 3), 2.0 * math.sin(2.0 * math.pi * k / 3))
                      for k in range(3))
        cfg = ExperimentConfig(
            methods=(MethodSpec("square"), MethodSpec("hinge")),
            protocol=ProtocolSpec("kfold", k=3),
            noise_rates=(0.0, 0.2, 0.4),
            seed=7,
            synthetic=SyntheticSpec(means, 1.0, 200, seed=11),
            representation=RepresentationSpec("kernel"),
        )
        reports = run_experiment(cfg)
        assert not any(r.errors for r in reports)
        for square, hinge in zip(reports[::2], reports[1::2]):
            assert (square.method, hinge.method) == ("square", "hinge")
            assert abs(hinge.accuracy - square.accuracy) <= 0.05, hinge.noise_rate

    def test_separable_logistic_cell_is_a_cell_error(self):
        # blobs 12 standard deviations apart are separable in every training half
        diverging = MethodSpec("logistic", alpha=0.0, tol=0.0, iters=500)
        failure = "separable at alpha=0.0, so its logistic weights diverge; use a larger alpha or tol"
        cfg = blob_config(methods=(diverging, MethodSpec("square")), noise_rates=(0.0,))
        logistic, square = run_experiment(cfg)
        assert len(logistic.errors) == 4 and all(failure in e for e in logistic.errors)
        assert not square.errors
        stopping = replace(diverging, tol=1e-6)
        (logistic,) = run_experiment(replace(cfg, methods=(stopping,)))
        assert not logistic.errors and logistic.per_split_accuracies == (1.0,) * 4

    def test_pipeline_is_deterministic(self):
        cfg = blob_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_kernel_representation_runs(self):
        cfg = blob_config(
            representation=RepresentationSpec("kernel", "rbf", "median"),
            protocol=ProtocolSpec("repeated-split", times=2, fraction=0.5),
            noise_rates=(0.0,),
        )
        reports = run_experiment(cfg)
        assert all(r.accuracy > 0.9 for r in reports)

    def test_one_representation_per_split_and_one_score_per_cell(self, monkeypatch):
        scores = count_calls(monkeypatch, regmaxcem, "score_matrix")
        builds = count_calls(monkeypatch, harness, "build_representation")
        grams = count_calls(monkeypatch, kernels, "gram")
        prepared = count_calls(monkeypatch, regmaxcem, "prepare_columns")
        cfg = blob_config(
            methods=(MethodSpec("regmaxcem"), MethodSpec("square"), MethodSpec("hinge", iters=50)),
            protocol=ProtocolSpec("kfold", k=3),
            noise_rates=(0.0, 0.2),
            representation=RepresentationSpec("kernel"),
        )
        trained = count_calls(monkeypatch, harness, "train_method")
        reports = run_experiment(cfg)
        assert [len(r.per_split_accuracies) for r in reports] == [3] * 6
        assert len(scores) == 18
        assert len(builds) == 3
        # each split's train and test features are represented once, by 2 kernel evaluations
        assert len(grams) == 6
        # and each split's training columns are prepared (the Gram reduced) once for its 6 cells
        assert len(prepared) == 3
        # every cell of every method trains on its own
        assert len(trained) == 18
        assert [args[0].name for args in trained] == ["regmaxcem"] * 6 + ["square"] * 6 + ["hinge"] * 6

    def test_cells_hold_no_represented_training_matrix(self, monkeypatch):
        # each split's training side is represented (here its N x N Gram) only
        # to be prepared: the cell keeps the split as loaded, the represented
        # test side and the columns, and no Gram per split outlives the sweep setup
        original, given = regmaxcem.prepare_columns, []

        def recording(represented):
            given.append([weakref.ref(represented)])
            if represented.base is not None:
                given[-1].append(weakref.ref(represented.base))
            return original(represented)

        monkeypatch.setattr(harness, "prepare_columns", recording)
        ds = generate_synthetic(SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 25, seed=4))
        folds = kfold(ds, 5, 7)
        cells = harness._represent_splits(folds, RepresentationSpec("kernel"))
        gc.collect()
        assert len(given) == 5
        assert not [ref for refs in given for ref in refs if ref() is not None]
        for (train_set, test), (cell_train, cell_test, columns) in zip(folds, cells):
            assert cell_train is train_set
            assert cell_test.features.shape == (test.n_samples, train_set.n_samples)
            assert columns.shape == (train_set.n_samples, train_set.n_samples)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"representation": RepresentationSpec("kernel", bandwidth=-1.0)}, "bandwidth > 0"),
            ({"positive_class": 3}, "positive_class 3 out of range 1..2"),
            (
                {
                    "synthetic": SyntheticSpec(((1e160, 0.0), (-1e160, 0.0)), 0.5, 30, seed=1),
                    "representation": RepresentationSpec("kernel", "linear"),
                },
                "row 0: the linear kernel overflows; rescale the features",
            ),
            (
                {"representation": RepresentationSpec("kernel", bandwidth=math.inf)},
                "rbf kernel bandwidth must be finite, got inf",
            ),
            (
                {"representation": RepresentationSpec("kernel", bandwidth=1e200)},
                r"rbf kernel bandwidth 1e\+200 is too large: 2 \* 1e\+200\*\*2 overflows",
            ),
        ],
    )
    def test_bad_setup_raises_before_training(self, monkeypatch, overrides, message):
        trained = count_calls(monkeypatch, harness, "train_method")
        with pytest.raises(ValueError, match=message):
            run_experiment(blob_config(**overrides))
        assert not trained


def test_build_representation_rejects_unknown_kernel_kind():
    # an unknown kind used to fall back to the linear kernel
    with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
        harness.build_representation(np.eye(3), "kernel", "poly", "median")


class TestSelectAlphaByCv:
    def test_returns_grid_member_deterministically(self):
        ds = generate_synthetic(SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 25, seed=4))
        picked = select_alpha_by_cv(MethodSpec("square"), ds)
        assert picked in ALPHA_GRID
        assert picked == select_alpha_by_cv(MethodSpec("square"), ds)

    def test_ties_go_to_smallest_alpha(self):
        # fully separable: every alpha scores 1.0, so the grid's head wins
        ds = generate_synthetic(SyntheticSpec(((8.0,), (-8.0,)), 0.2, 20, seed=5))
        assert select_alpha_by_cv(MethodSpec("square"), ds) == ALPHA_GRID[0]

    def test_one_representation_per_fold(self, monkeypatch):
        builds = count_calls(monkeypatch, harness, "build_representation")
        grams = count_calls(monkeypatch, kernels, "gram")
        prepared = count_calls(monkeypatch, regmaxcem, "prepare_columns")
        trained = count_calls(monkeypatch, harness, "train_method")
        ds = generate_synthetic(SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 25, seed=4))
        select_alpha_by_cv(MethodSpec("hinge"), ds, RepresentationSpec("kernel"), folds=5)
        assert len(builds) == 5
        # each fold's train and test features once, not once per alpha
        assert len(grams) == 10
        # each fold's training columns are prepared once for the 9-value grid's 45 fits
        assert len(prepared) == 5
        assert len(trained) == 5 * len(ALPHA_GRID) == 45

    def test_fold_training_failure_propagates(self):
        # a fixed sigma of 1e-8 underflows every auxiliary weight after round 1
        ds = generate_synthetic(SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 25, seed=4))
        with pytest.raises(DegenerateClassError, match="class 1: all auxiliary weights"):
            select_alpha_by_cv(MethodSpec("regmaxcem", sigma=1e-8), ds)


class TestEmitReports:
    def test_empty_reports(self, tmp_path):
        paths = emit_reports([], tmp_path)
        assert len(paths) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"reports": []}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]

    def test_two_by_two_file_count(self, tmp_path):
        reports = run_experiment(blob_config())
        paths = emit_reports(reports, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len([n for n in names if n.endswith("_roc.csv")]) == 4
        assert len([n for n in names if n.endswith("_pr.csv")]) == 4
        assert names.count("summary.json") == 1
        assert len(paths) == 9

    def test_rerun_is_byte_identical(self, tmp_path):
        reports = run_experiment(blob_config())
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        emit_reports(reports, dir_a)
        emit_reports(run_experiment(blob_config()), dir_b)
        for path_a in sorted(dir_a.iterdir()):
            path_b = dir_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_failed_method_serializes_as_null_accuracy(self, tmp_path):
        cfg = blob_config(
            methods=(MethodSpec("regmaxcem", sigma=1e-8),),
            noise_rates=(0.0,),
            protocol=ProtocolSpec("repeated-split", times=2, fraction=0.5),
        )
        emit_reports(run_experiment(cfg), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        entry = summary["reports"][0]
        assert entry["accuracy"] is None
        assert entry["per_split_accuracies"] == []
        assert len(entry["errors"]) == 2

    def test_curve_csv_shape(self, tmp_path):
        reports = run_experiment(blob_config(noise_rates=(0.0,), methods=(MethodSpec("square"),)))
        emit_reports(reports, tmp_path)
        lines = (tmp_path / "square_noise0_roc.csv").read_text().splitlines()
        assert lines[0] == "threshold,x,y"
        assert len(lines) == reports[0].roc.x.size + 1

    def test_files_match_csv_writer_and_json_dump(self, tmp_path):
        reports = run_experiment(blob_config())
        paths = emit_reports(reports, tmp_path)
        summary = io.StringIO()
        json.dump(
            {
                "reports": [
                    {
                        "method": r.method,
                        "noise_rate": r.noise_rate,
                        "accuracy": r.accuracy,
                        "per_split_accuracies": list(r.per_split_accuracies),
                        "auc": r.auc,
                        "ttests": [vars(t) for t in r.ttests],
                        "errors": list(r.errors),
                    }
                    for r in reports
                ]
            },
            summary,
            indent=2,
            sort_keys=True,
        )
        expected = {"summary.json": summary.getvalue() + "\n"}
        for r in reports:
            for which, curve in (("roc", r.roc), ("pr", r.pr)):
                text = io.StringIO()
                writer = csv.writer(text, lineterminator="\n")
                writer.writerow(["threshold", "x", "y"])
                writer.writerows(zip(curve.threshold.tolist(), curve.x.tolist(), curve.y.tolist()))
                expected[f"{r.method}_noise{r.noise_rate:g}_{which}.csv"] = text.getvalue()
        assert [Path(path).name for path in paths] == list(expected)
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")

    def test_write_curve_golden_bytes(self, tmp_path):
        # thresholds inf, 0.9, 0.6, 0.4; cumulative tp 0, 1, 1, 2 of 2 and fp 0, 0, 1, 1 of 1
        scores, truth = [0.6, 0.9, 0.4], [False, True, True]
        harness.write_curve(tmp_path / "roc.csv", roc_curve(scores, truth))
        harness.write_curve(tmp_path / "pr.csv", pr_curve(scores, truth))
        assert (tmp_path / "roc.csv").read_bytes() == (
            b"threshold,x,y\ninf,0.0,0.0\n0.9,0.0,0.5\n0.6,1.0,0.5\n0.4,1.0,1.0\n"
        )
        assert (tmp_path / "pr.csv").read_bytes() == (
            b"threshold,x,y\ninf,0.0,1.0\n0.9,0.5,1.0\n0.6,0.5,0.5\n0.4,1.0,0.6666666666666666\n"
        )


class TestMethodSpec:
    def test_train_config(self):
        rep = linear_representation()
        method = MethodSpec("regmaxcem", alpha=0.3, iters=7, tol=1e-3, sigma=0.5, sigma_floor=1e-6)
        assert method.train_config(rep) == TrainConfig(
            alpha=0.3,
            max_iters=7,
            tol=1e-3,
            sigma_policy=SigmaPolicy.fixed(0.5, 1e-6),
            representation=rep,
        )

    def test_baseline_config(self):
        method = MethodSpec("hinge", alpha=0.3, iters=7, tol=1e-3)
        assert method.baseline_config() == BaselineConfig(alpha=0.3, max_iters=7, tol=1e-3)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"alpha": -1.0}, "alpha must be >= 0"),
            ({"iters": 0}, "max_iters must be >= 1"),
            ({"alpha": math.inf}, "alpha must be finite, got inf"),
            ({"tol": -1.0}, "tol must be >= 0"),
            ({"sigma": 0.0}, "fixed sigma must be > 0"),
            ({"sigma": "x"}, "sigma must be a number or 'adaptive'"),
            ({"sigma": None}, "sigma must be a number or 'adaptive'"),
            ({"sigma_floor": 0.0}, "sigma floor must be > 0"),
            ({"alpha": float("nan")}, "alpha must be >= 0, got nan"),
            ({"tol": float("nan")}, "tol must be >= 0, got nan"),
            ({"iters": -1}, "max_iters must be >= 1, got -1"),
            ({"sigma": float("nan")}, "fixed sigma must be > 0, got nan"),
            ({"sigma_floor": float("nan")}, "sigma floor must be > 0, got nan"),
            ({"alpha": "0.1"}, "alpha must be a number, got '0.1'"),
            ({"alpha": True}, "alpha must be a number, got True"),
            ({"tol": None}, "tol must be a number, got None"),
            ({"alpha": [1.0]}, r"alpha must be a number, got \[1.0\]"),
            ({"sigma_floor": "x"}, "sigma_floor must be a number, got 'x'"),
            ({"iters": "5"}, "iters must be an integer, got '5'"),
            ({"iters": 2.5}, "iters must be an integer, got 2.5"),
            ({"iters": True}, "iters must be an integer, got True"),
            ({"sigma": True}, "sigma must be a number or 'adaptive', got True"),
            ({"sigma": math.inf}, "fixed sigma must be finite, got inf"),
            ({"sigma_floor": math.inf}, "sigma floor must be finite, got inf"),
            ({"sigma": 1e200}, r"fixed sigma 1e\+200 is too large: 2 \* 1e\+200\*\*2 overflows"),
            ({"sigma_floor": 1e200},
             r"sigma floor 1e\+200 is too large: 2 \* 1e\+200\*\*2 overflows"),
        ],
    )
    def test_bad_hyperparameters_raise_when_built(self, overrides, message):
        # checked for every method, including those that do not use the value
        with pytest.raises(ValueError, match=message):
            MethodSpec("square", **overrides)

    def test_numeric_string_sigma_still_loads(self):
        assert MethodSpec("regmaxcem", sigma="0.5").sigma_policy() == SigmaPolicy.fixed(0.5)


class TestConfigIO:
    def test_dict_roundtrip(self):
        cfg = blob_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_csv_source_roundtrip(self, tmp_path):
        raw = {
            "seed": 3,
            "data": {"path": "some.csv", "label_column": "y"},
            "methods": [{"name": "hinge", "tol": 0.5}],
            "protocol": {"kind": "kfold", "k": 3},
            "noise_rates": [0.1],
        }
        cfg = config_from_dict(raw)
        assert cfg.data == DataSpec("some.csv", "y")
        assert cfg.methods[0].tol == 0.5
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_removed_step_size_is_an_unknown_key(self):
        # hinge takes Newton steps and no step size since 0.9.0
        raw = {
            "seed": 3,
            "synthetic": {"means": [[1.0], [-1.0]], "std": 1.0, "samples_per_class": 5, "seed": 0},
            "methods": [{"name": "hinge", "step_size": 0.5}],
            "protocol": {"kind": "kfold", "k": 3},
        }
        with pytest.raises(ValueError, match=r"^methods\[0\]: unknown key\(s\) step_size$"):
            config_from_dict(raw)

    def test_readme_schema_loads_and_roundtrips(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Experiment config schema", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(block))
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_load_config_file(self, tmp_path):
        cfg = blob_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            blob_config(methods=())
        with pytest.raises(ValueError, match="exactly one"):
            blob_config(data=DataSpec("x.csv", "y"))
        with pytest.raises(ValueError, match="unknown method"):
            MethodSpec("perceptron")
        with pytest.raises(ValueError, match="unknown protocol"):
            ProtocolSpec("bootstrap")
        for fraction in (0.0, 1.0, 2.0, math.nan):
            with pytest.raises(ValueError, match="^fraction must be in \\(0, 1\\)"):
                ProtocolSpec("repeated-split", fraction=fraction)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"noise_rates": (0.2, 0.2)}, r"noise_rates must be distinct, got \[0.2, 0.2\]"),
            # these two would share the curve file name square_noise0.2_roc.csv
            ({"noise_rates": (0.2, 0.2 + 1e-9)}, "noise_rates must be distinct"),
            ({"methods": (MethodSpec("square"), MethodSpec("square", alpha=0.1))},
             r"methods must have distinct names, got \['square', 'square'\]"),
        ],
        ids=["repeated-rate", "rates-equal-in-file-names", "repeated-method"],
    )
    def test_duplicates_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            blob_config(**overrides)
