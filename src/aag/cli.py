"""Command-line front end for subspace discovery, training, and scoring.
Exit codes: 0 success, 1 a flag the parser refuses, 2 input a command
cannot use, 3 internal invariant violation.

The parser checks every flag value, so a command that starts has valid
parameters and any failure it raises comes from its input: an
``AagError``, an ``OSError``, or a ``ValueError`` the library raises when
a table cannot be used (too few rows or attributes, an empty table).
Each exits 2.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import ANOMALY, EnsembleModel, classify_table, fit_ensemble, split_indices
from .errors import AagError, SchemaError
from .evaluation import f1_score, generate_setting1, generate_setting3, stability_index
from .grouping import SubspaceSet, run_aag
from .preprocess import DEFAULT_MISSING, apply_preprocessor, code_csv, fit_preprocessor, load_csv

log = logging.getLogger("aag")

USAGE_ERROR = 1
DATA_ERROR = 2
INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _timed(phase: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    log.info("%s: %.3fs", phase, time.perf_counter() - start)
    return result


def _checked(convert, ok, rule):
    """argparse type that converts a flag value and rejects it unless ``ok``."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_FRACTION = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_SHARE = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_DELIMITER = _checked(str, lambda v: len(v) == 1, "one character")


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"at least {low}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aag", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"aag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, model=False):
        p.add_argument("--input", required=True, help="input CSV file")
        p.add_argument("--output", required=True, help="output file")
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--delimiter", type=_DELIMITER, default=",")
        p.add_argument("--missing-marker", action="append", default=None,
                       help="missing-value marker (repeatable; default: empty and '?')")

    def add_fit_params(p):
        p.add_argument("--alpha", type=_FRACTION, default=0.05)
        p.add_argument("--bins", type=_at_least(2), default=10)
        p.add_argument("--cap", type=int, choices=(2, 3), default=3)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--val-fraction", type=_FRACTION, default=0.3)
        p.add_argument("--include-singletons", action="store_true")

    p = sub.add_parser("subspaces", help="discover correlated attribute subspaces")
    add_io(p)
    add_fit_params(p)

    p = sub.add_parser("train", help="train an anomaly-detection ensemble")
    add_io(p)
    add_fit_params(p)

    p = sub.add_parser("score", help="score rows with a trained ensemble")
    add_io(p, model=True)

    p = sub.add_parser("bench", help="run a benchmark setting end to end")
    add_io(p)
    add_fit_params(p)
    p.add_argument("--class-column", required=True)
    p.add_argument("--setting", type=int, choices=(1, 3), required=True)
    p.add_argument("--fraction", type=_SHARE, default=0.1,
                   help="fraction of attributes perturbed (setting 1)")
    p.add_argument("--minority-fraction", type=_SHARE, default=0.1,
                   help="fraction of minority rows used as novelties (setting 3)")
    p.add_argument("--repeats", type=_at_least(1), default=20)

    p = sub.add_parser("stability", help="stability index over repeated resampled runs")
    add_io(p)
    add_fit_params(p)
    p.add_argument("--repeats", type=_at_least(2), default=20)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing keeps no state."""
    return build_parser()


def _markers(args):
    return tuple(args.missing_marker) if args.missing_marker else DEFAULT_MISSING


def _load(args):
    return _timed("load", load_csv, args.input, delimiter=args.delimiter,
                  missing_markers=_markers(args))


def _discover(table, args) -> SubspaceSet:
    return _timed("aag", run_aag, table, cap=args.cap,
                  include_singletons=args.include_singletons)


def _train_model(raw, args) -> EnsembleModel:
    pp = _timed("preprocess", fit_preprocessor, raw, bins=args.bins)
    coded = apply_preprocessor(pp, raw)
    fit_idx, _ = split_indices(coded.n_rows, args.val_fraction, args.seed)
    result = _discover(coded.take_rows(np.sort(fit_idx)), args)
    subspaces = result.attr_sets()
    if not subspaces:
        subspaces = [tuple(range(coded.n_attrs))]
    return _timed("ensemble-fit", fit_ensemble, coded, subspaces, alpha=args.alpha,
                  val_fraction=args.val_fraction, seed=args.seed, preprocess=pp)


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def cmd_subspaces(args) -> int:
    raw = _load(args)
    pp = _timed("preprocess", fit_preprocessor, raw, bins=args.bins)
    table = apply_preprocessor(pp, raw)
    result = _discover(table, args)
    _write(args.output, result.to_json())
    return 0


def cmd_train(args) -> int:
    raw = _load(args)
    model = _train_model(raw, args)
    _write(args.output, model.to_json())
    return 0


def cmd_score(args) -> int:
    try:
        text = Path(args.model).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{args.model}: model file is not UTF-8 text") from exc
    model = EnsembleModel.from_json(text)
    if model.preprocess is None:
        raise AagError("model file carries no preprocessing parameters")
    coded = _timed("load", code_csv, model.preprocess, args.input, delimiter=args.delimiter,
                   missing_markers=_markers(args))
    scores, labels = _timed("score", classify_table, model, coded)
    _write(args.output, _scores_csv(scores, labels))
    return 0


def _scores_csv(scores: np.ndarray, labels: list[str]) -> str:
    """The text of scores.csv: a header, then ``row,score,label`` per row.

    A score is a sum of a few weights, so rows share few distinct scores:
    each distinct score (by its bits) is formatted once, with the label
    of its first row, and every row of that score reuses the line's tail.
    """
    bits, first, inverse = np.unique(scores.view(np.int64), return_index=True,
                                     return_inverse=True)
    tails = [f",{s:.6f},{labels[i]}\n"
             for s, i in zip(bits.view(np.float64).tolist(), first.tolist())]
    return "row_index,score,label\n" + "".join(
        map(str.__add__, map(str, range(len(scores))), map(tails.__getitem__, inverse.tolist())))


def cmd_bench(args) -> int:
    raw = _load(args)
    lines = ["repeat,seed,tp,fp,fn,tn,f1"]
    f1_values = []
    for rep in range(args.repeats):
        seed = args.seed + rep
        if args.setting == 1:
            split = generate_setting1(raw, args.class_column, args.fraction, seed)
        else:
            split = generate_setting3(raw, args.class_column, args.minority_fraction, seed)
        rep_args = argparse.Namespace(**{**vars(args), "seed": seed})
        model = _train_model(split.train, rep_args)
        coded = apply_preprocessor(model.preprocess, split.test)
        _, labels = classify_table(model, coded)
        predictions = [1 if label == ANOMALY else 0 for label in labels]
        report = f1_score(split.test_labels, predictions)
        f1_values.append(report.f1)
        lines.append(f"{rep},{seed},{report.csv_line()}")
        log.info("bench repeat %d: f1=%.4f", rep, report.f1)
    mean = sum(f1_values) / len(f1_values)
    lines.append(f"mean,,,,,,{mean:.6f}")
    _write(args.output, "\n".join(lines) + "\n")
    print(f"setting={args.setting},repeats={args.repeats},mean_f1={mean:.6f}")
    return 0


def cmd_stability(args) -> int:
    raw = _load(args)
    runs = []
    for rep in range(args.repeats):
        rng = np.random.default_rng(args.seed + rep)
        keep = np.sort(rng.permutation(raw.n_rows)[: max(2, int(round(0.7 * raw.n_rows)))])
        sample = raw.take_rows(keep)
        pp = fit_preprocessor(sample, bins=args.bins)
        table = apply_preprocessor(pp, sample)
        runs.append(run_aag(table, cap=args.cap, include_singletons=args.include_singletons))
    report = _timed("stability", stability_index, runs)
    _write(args.output, report.to_json())
    print(f"runs={report.run_count},si={report.si:.6f}")
    return 0


COMMANDS = {
    "subspaces": cmd_subspaces,
    "train": cmd_train,
    "score": cmd_score,
    "bench": cmd_bench,
    "stability": cmd_stability,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s %(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (AagError, OSError, ValueError) as exc:
        # The parser has checked every flag, so a ValueError here is the
        # library saying that the input cannot be used.
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # invariant violation; report and flag as internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
