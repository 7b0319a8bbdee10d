"""Command-line interface: train, predict, eval, experiment, synth.

Exit code is 0 on success; on failure a single machine-parsable line
``error: <message>`` goes to stderr and the exit code is 1.  Each output
destination is checked before any input is read.  Output CSVs use ``.``
decimals and LF line endings.
"""

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, load_csv, load_features, write_csv
from .evaluation import accuracy, auc, multiclass_binary_scores, pr_curve, roc_curve
from .harness import (
    METHOD_NAMES,
    MethodSpec,
    RepresentationSpec,
    SyntheticSpec,
    _write_curves,
    emit_reports,
    generate_synthetic,
    load_config,
    run_experiment,
    select_alpha_by_cv,
    train_method,
)
from .kernels import represent_matrix
from .regmaxcem import TraceRecord, load_model, prepare_columns, save_model, score_matrix, train

__all__ = ["main"]


def _number_or(word: str):
    """Argument type: a float, or the literal ``word``."""

    def parse(text: str):
        if text == word:
            return word
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number or {word!r}, got {text!r}") from None

    return parse


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error, so ``main`` reports it as one ``error:`` line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="correntia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train one method on a CSV dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--label-col", required=True)
    t.add_argument("--method", required=True, choices=METHOD_NAMES)
    t.add_argument("--model-out", required=True)
    t.add_argument("--representation", default="linear", choices=("linear", "kernel"))
    t.add_argument("--kernel", default="rbf", choices=("linear", "rbf"))
    t.add_argument("--bandwidth", default="median", type=_number_or("median"))
    # hyperparameter flags default to MethodSpec's own defaults: only given flags reach it
    t.add_argument("--alpha", default=argparse.SUPPRESS, type=_number_or("grid"),
                   help="tradeoff parameter, or 'grid' for inner-CV selection over 1e-4..1")
    t.add_argument("--iters", default=argparse.SUPPRESS, type=int)
    t.add_argument("--tol", default=argparse.SUPPRESS, type=float)
    t.add_argument("--sigma", default=argparse.SUPPRESS, type=_number_or("adaptive"))
    t.add_argument("--sigma-floor", default=argparse.SUPPRESS, type=float)
    t.add_argument("--trace-out", default=None,
                   help="write a per-round objective/sigma/param-change CSV (--method regmaxcem)")

    p = sub.add_parser("predict", help="predict labels for a CSV of features")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-col", default=None, help="column to ignore if present")

    e = sub.add_parser("eval", help="evaluate a saved model on a labeled CSV")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--label-col", required=True)
    e.add_argument("--positive-class", default="1",
                   help="class index (1..L) or original class name for the ROC/PR curves")
    e.add_argument("--out-dir", default=None)

    x = sub.add_parser("experiment", help="run a config-driven experiment sweep")
    x.add_argument("--config", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--seed", default=None, type=int, help="override the config seed")

    s = sub.add_parser("synth", help="generate a synthetic Gaussian-blob CSV")
    s.add_argument("--out", required=True)
    s.add_argument("--means", required=True, help="per-class means, e.g. '2,0;-2,0'")
    s.add_argument("--std", default=1.0, type=float)
    s.add_argument("--per-class", default=100, type=int)
    s.add_argument("--seed", default=0, type=int)
    s.add_argument("--label-col", default="label")
    return parser


def _check_output_file(flag: str, path) -> None:
    """Fail, naming ``flag``, unless ``path`` is no directory and lies in an existing one."""
    parent = Path(path).parent
    if Path(path).is_dir():
        raise ValueError(f"{flag} {path}: is a directory")
    if not parent.exists():
        raise ValueError(f"{flag} {path}: directory {parent} does not exist")
    if not parent.is_dir():
        raise ValueError(f"{flag} {path}: {parent} is not a directory")


def _check_output_dir(flag: str, path) -> None:
    """Fail, naming ``flag``, unless ``path`` is a directory or can be made one with its parents."""
    existing = Path(path)
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise ValueError(f"{flag} {path}: {existing} is not a directory")


def _cmd_train(args) -> int:
    if args.trace_out and args.method != "regmaxcem":
        raise ValueError(f"--trace-out needs --method regmaxcem, got --method {args.method}")
    _check_output_file("--model-out", args.model_out)
    if args.trace_out:
        _check_output_file("--trace-out", args.trace_out)
    ds = load_csv(args.data, args.label_col)
    representation = RepresentationSpec(args.representation, args.kernel, args.bandwidth)
    rep = representation.build(ds.features)
    given = {f.name: vars(args)[f.name] for f in fields(MethodSpec) if f.name in vars(args)}
    grid = given.get("alpha") == "grid"
    if grid:
        del given["alpha"]
    method = MethodSpec(name=args.method, **given)
    if grid:
        selected = select_alpha_by_cv(method, ds, representation)
        method = replace(method, alpha=selected)
        print(f"alpha selected by inner cross-validation: {selected!r}")
    if args.trace_out:
        model, trace = train(ds, replace(method.train_config(rep), trace=True))
        names = [f.name for f in fields(TraceRecord)]
        write_csv(args.trace_out, ["iteration", *names],
                  [range(1, len(trace.records) + 1),
                   *([getattr(record, name) for record in trace.records] for name in names)])
    else:
        model = train_method(method, ds, rep, prepare_columns(represent_matrix(ds.features, rep).T))
    save_model(model, args.model_out)
    print(f"model written to {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    _check_output_file("--out", args.out)
    model = load_model(args.model)
    features = load_features(args.data, args.label_col)
    scores = score_matrix(model, features)
    labels = np.argmax(scores, axis=1)
    write_csv(args.out, ["label"] + [f"score_{name}" for name in model.class_map],
              [[model.class_map[k] for k in labels.tolist()], *scores.T])
    print(f"predictions written to {args.out}")
    return 0


def _resolve_class(model, text: str) -> int:
    if text in model.class_map:
        return model.class_map.index(text) + 1
    try:
        index = int(text)
    except ValueError:
        raise ValueError(
            f"positive class {text!r} is neither a class name {model.class_map} nor an index"
        ) from None
    if not 1 <= index <= model.num_classes:
        raise ValueError(f"positive class index {index} out of range 1..{model.num_classes}")
    return index


def _align_to_model(ds, model):
    """Remap a freshly loaded dataset into the model's class-index space.

    Label files list classes in their own first-appearance order; the model's
    class map is authoritative at evaluation time.
    """
    if ds.label_names == model.class_map:
        return ds
    mapping = {}
    for k, name in enumerate(ds.label_names, start=1):
        if name not in model.class_map:
            raise ValueError(f"label {name!r} in the data is unknown to the model {model.class_map}")
        mapping[k] = model.class_map.index(name) + 1
    labels = np.array([mapping[int(l)] for l in ds.labels], dtype=np.int64)
    return Dataset(ds.features, labels, model.num_classes, model.class_map)


def _cmd_eval(args) -> int:
    if args.out_dir:
        _check_output_dir("--out-dir", args.out_dir)
    model = load_model(args.model)
    ds = _align_to_model(load_csv(args.data, args.label_col), model)
    positive = _resolve_class(model, args.positive_class)
    scores = score_matrix(model, ds.features)  # one pass feeds the accuracy and the curves
    acc = accuracy(np.argmax(scores, axis=1) + 1, ds.labels)
    print(f"accuracy={acc!r}")
    try:
        column, truth = multiclass_binary_scores(scores, ds.labels, positive)
        roc = roc_curve(column, truth)
        pr = pr_curve(column, truth)
        print(f"auc={auc(roc)!r}")
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_curves([(out / "roc.csv", roc), (out / "pr.csv", pr)])
            print(f"curves written to {out}")
    except ValueError as exc:
        print(f"curves skipped: {exc}")
    return 0


def _cmd_experiment(args) -> int:
    _check_output_dir("--out", args.out)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    reports = run_experiment(cfg)
    paths = emit_reports(reports, args.out)
    print(f"{len(reports)} reports; {len(paths)} files written to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    _check_output_file("--out", args.out)
    try:
        means = tuple(tuple(map(float, row.split(","))) for row in args.means.split(";") if row)
    except ValueError:
        raise ValueError(f"--means: expected numbers like '2,0;-2,0', got {args.means!r}") from None
    ds = generate_synthetic(SyntheticSpec(means, args.std, args.per_class, args.seed))
    write_csv(args.out, [f"f{j + 1}" for j in range(ds.n_features)] + [args.label_col],
              [*ds.features.T, [ds.label_names[label - 1] for label in ds.labels.tolist()]])
    print(f"{ds.n_samples} samples written to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
