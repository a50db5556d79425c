"""Command-line interface.

Subcommands:
  generate         write a synthetic long-tailed feature file (optionally a
                   matched balanced test file from the same mixture)
  fit              fit a classifier from a feature file, write classifier JSON
  eval             score a classifier JSON on a feature file, with optional
                   test-time prior/kappa adjustment
  compare          run the full multi-method experiment from a JSON config
  dump-embeddings  re-encode a feature file as CSV for external tooling

Exit codes: 0 success, 1 validation error (bad flags or parameter domains)
or out of memory, 2 I/O error (missing, malformed, or truncated files).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from .baselines import _linear_norms, linear_from_json, linear_to_json
from .classifier import AdjustmentPolicy, ClassPriors, adjust, from_json, to_json
from .datagen import (
    FeatureFileError,
    LongTailSpec,
    _check_row_total,
    generate,
    read_features,
    sample_dataset,
    write_features,
)
from .harness import (
    _KINDS,
    _ROWS,
    ExperimentConfig,
    _check_prior_frame,
    _failure,
    _fit_bape,
    _fit_linear,
    _is_real,
    _predictions,
    _rows_of,
    _training_counts,
    emit_report,
    run_experiment,
    split_accuracy,
)
from .vmf import _unit_norms

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _flag_type(row):
    """The argparse type of a setting's flag: its text read as a value of the
    row's kind (a pair as 'lo,hi'), in a list of one for a key that holds a
    list. A rejection is argparse's error, which names the flag."""
    tests, convert = _KINDS[row.kind]
    read = float if row.kind == "pair" else convert

    def parse(text: str):
        try:
            value = [read(part) for part in text.split(",")] if row.kind == "pair" else read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {read.__name__} value: {text!r}") from None
        if failed := _failure(tests, value):
            raise argparse.ArgumentTypeError(failed)
        return (convert(value),) if row.many else convert(value)

    return parse


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of `command` that set ExperimentConfig keys, each with its
    key's default, kind and choices."""
    for key, row in _ROWS.items():
        flag = getattr(row, command)
        if flag is None:
            continue
        if row.kind == "bool":
            parser.add_argument(flag, dest=key, action="store_true", default=row.default, help=row.help)
        else:
            # The help names a value as argparse would for a dest named after the flag.
            parser.add_argument(flag, dest=key, type=_flag_type(row), default=row.default, help=row.help,
                                choices=row.choices or None,
                                metavar=None if row.choices else flag[2:].replace("-", "_").upper())


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later `main`
    call in the process: building it costs far more than a parse."""
    parser = _Parser(prog="spherebayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic long-tailed feature file")
    _add_settings(gen, "generate")
    gen.add_argument("--out", required=True, help="feature file path (.csv for CSV)")
    gen.add_argument("--test-out", help="also write a balanced test file from the same mixture")

    fit_p = sub.add_parser("fit", help="fit a classifier from a feature file")
    fit_p.add_argument("--model", choices=("bape", "softmax", "logit_adjusted"), default="bape")
    _add_settings(fit_p, "fit")
    fit_p.add_argument("--train", required=True, help="training feature file")
    fit_p.add_argument("--out", required=True, help="classifier JSON path")

    ev = sub.add_parser("eval", help="score a classifier JSON on a feature file")
    ev.add_argument("--classifier", required=True, help="classifier JSON path")
    ev.add_argument("--data", required=True, help="evaluation feature file")
    ev.add_argument(
        "--adjust-priors",
        help="replace priors before scoring: uniform | file:<json> | imbalance:<gamma>",
    )
    ev.add_argument(
        "--kappa-mode",
        default="keep",
        help="concentration policy when adjusting: keep | shared-mean | fixed:<v>",
    )
    ev.add_argument("--split-counts-from", help="feature file whose class counts define many/medium/few splits")
    ev.add_argument("--out", help="write the score JSON here instead of stdout")

    cmp_p = sub.add_parser("compare", help="run the multi-method experiment from a config")
    cmp_p.add_argument("--config", required=True, help="ExperimentConfig JSON path")
    cmp_p.add_argument("--format", choices=("json", "csv"), default="json")
    cmp_p.add_argument("--out", help="report path (stdout when omitted)")

    dump = sub.add_parser("dump-embeddings", help="re-encode a feature file as CSV")
    dump.add_argument("--data", required=True, help="input feature file")
    dump.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_generate(args) -> int:
    # The draw checks the kappa range and the long-tail profile itself.
    per_class, dim = _ROWS["test_per_class"], _ROWS["dim"]
    if args.test_out:
        per_class.check(per_class.generate, args.test_per_class)
        names = f"{_ROWS['n_classes'].generate} and {per_class.generate}"
        _check_row_total(args.n_classes * args.test_per_class, names)
    dim.check(dim.generate, args.dim)
    spec = LongTailSpec(args.n_classes, args.head_size, args.gamma)
    seed = args.seeds[0]
    train_ds, truth = generate(spec, args.dim, args.kappa_range, args.center_mode, seed)
    # Both sets are drawn before either is written: a test set too large to
    # allocate leaves no training file behind.
    counts = np.full(args.n_classes, args.test_per_class)
    test_ds = sample_dataset(truth, counts, seed, stream=3) if args.test_out else None
    write_features(args.out, train_ds)
    if args.test_out:
        write_features(args.test_out, test_ds)
    return 0


def _cmd_fit(args) -> int:
    ds = read_features(args.train)
    settings = {key: getattr(args, key) for key, row in _ROWS.items() if row.fit}
    config = ExperimentConfig(methods=(args.model,), **settings)
    seed = config.seeds[0]
    if args.model == "bape":
        _check_prior_frame(ds, config.beta_hat, _ROWS["beta_hat"].fit)
        text = to_json(_fit_bape(ds, config, seed))
    else:
        text = linear_to_json(_fit_linear(ds, config, (args.model,), seed)[args.model], config.normalize)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    return 0


def _real_in(text: str, flag: str) -> float:
    """text as a float, or a ValueError naming the flag it was given to."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag} needs a real number, got {text!r}") from None


def _parse_adjustment(args, n_classes: int) -> AdjustmentPolicy | None:
    mode_text = args.kappa_mode
    if mode_text == "keep" and not args.adjust_priors:
        return None
    if mode_text == "shared-mean":
        kappa_mode, fixed = "shared_mean", None
    elif mode_text.startswith("fixed:"):
        kappa_mode, fixed = "fixed", _real_in(mode_text.split(":", 1)[1], "--kappa-mode fixed:<v>")
    elif mode_text == "keep":
        kappa_mode, fixed = "keep", None
    else:
        raise ValueError(f"unknown kappa mode {mode_text!r}")
    target = ClassPriors.uniform(n_classes)
    spec = args.adjust_priors or "uniform"
    if spec == "uniform":
        pass
    elif spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        with open(path) as fh:
            values = json.load(fh)
        if not (isinstance(values, list) and all(map(_is_real, values))):
            raise ValueError(f"prior file {path} must hold a JSON list of numbers")
        target = ClassPriors(np.asarray(values, dtype=float))
    elif spec.startswith("imbalance:"):
        gamma = _real_in(spec.split(":", 1)[1], "--adjust-priors imbalance:<gamma>")
        if not 1.0 <= gamma < np.inf:
            raise ValueError(f"imbalance factor must be >= 1 and finite, got {gamma}")
        weights = gamma ** (-np.arange(n_classes) / (n_classes - 1))
        target = ClassPriors(weights / weights.sum())
    else:
        raise ValueError(f"unknown prior adjustment {spec!r}")
    return AdjustmentPolicy(target_priors=target, kappa_mode=kappa_mode, fixed_kappa=fixed)


def _cmd_eval(args) -> int:
    with open(args.classifier) as fh:
        text = fh.read()
    ds = read_features(args.data)
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("malformed classifier document: expected a JSON object")
    if "classes" in doc:
        clf = from_json(text)
        policy = _parse_adjustment(args, clf.n_classes)
        if policy is not None:
            clf = adjust(clf, policy)
        method, norms = "bape", None  # unit norms: checked after the labels, so errors keep their order
    else:
        if args.adjust_priors or args.kappa_mode != "keep":
            raise ValueError("adjustment flags only apply to bape classifier documents")
        clf = linear_from_json(text)
        normalize = doc.get("normalize", False)
        if not isinstance(normalize, bool):
            raise ValueError(f"malformed classifier document: normalize must be true or false, got {normalize!r}")
        # The rows the head was trained on: projected onto the sphere under `fit --normalize`.
        method, norms = "softmax", _linear_norms(ds.features, normalize)
    if ds.dim != clf.dim:
        raise ValueError(f"dimension mismatch: expected {clf.dim}, got {ds.dim}")
    if ds.labels.size and ds.labels.max() >= clf.n_classes:
        raise ValueError(f"evaluation labels span {ds.labels.max() + 1} classes, the classifier {clf.n_classes}")
    built = {method: clf, _rows_of(method): _unit_norms(ds.features) if norms is None else norms}
    counts = read_features(args.split_counts_from).class_counts if args.split_counts_from else ds.class_counts
    _training_counts(ds.labels, counts)  # the split check, before any row is scored
    with ThreadPoolExecutor(max_workers=1) as pool:  # compare's pass; only an ensemble reads the temperature
        preds, _ = _predictions(built, (method,), 1.0, ds.features, nullcontext, pool)
    result = split_accuracy(preds[method], ds.labels, counts)
    text_out = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text_out)
    else:
        print(text_out, end="")
    return 0


def _cmd_compare(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_json(fh.read())
    report = emit_report(run_experiment(config), fmt=args.format, path=args.out)
    if not args.out:
        print(report, end="")
    return 0


def _cmd_dump(args) -> int:
    ds = read_features(args.data)
    if not args.out.endswith(".csv"):
        raise ValueError("dump-embeddings writes CSV; --out must end in .csv")
    write_features(args.out, ds)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "dump-embeddings": _cmd_dump,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FeatureFileError, OSError) as exc:
        return _fail(str(exc), code=2)
    except MemoryError as exc:  # before RuntimeError: a method's is an ExperimentError as well
        return _fail(f"out of memory: {exc}")
    except (ValueError, KeyError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
