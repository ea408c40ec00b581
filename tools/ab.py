"""Compare two checkouts of aag in one process: outputs, phase times, collector work.

    python3 tools/ab.py --parent ../parent --change . --seed 0 --output BENCH_label.json
    python3 tools/ab.py --parent ../parent --change . --workload wide-search --output ab.json

Separate processes on a shared machine drift by about 20 %; timing both
checkouts call by call in one process cancels most of that. The tables
come from this checkout's ``perfbench/workloads.py`` (never changed),
under a temporary directory. Each side's ``aag`` is imported once from
``DIR/src``, ``sys.modules`` purged in between, with one BLAS thread.

On every table each side runs ``aag subspaces``, ``train`` and ``score``
with ``cli.main``; the report lists each ``<workload>/t<k>/<file>`` whose
sha256 differs between the sides, ``classify`` if one-row scores differ
on the sample, and ``model`` if the models the two sides read back from
their ``model.json`` differ in meaning: a detector's subspace, cell
masses or accepted cells, the weight bytes, rho, alpha or the
preprocessing parameters. A change to the file's layout alone lists
``model.json`` but not ``model``. Each side also writes its read-back
model again with its own ``to_json``; the report lists ``model.json
round trip`` if either side's bytes differ from the ``model.json`` its
``aag train`` wrote. Then each side builds the phases'
inputs with its own library (its model must be the bytes its ``aag
train`` wrote) and ROUNDS rounds run every phase on every table on both
sides back to back, the side that goes first alternating. The inputs
are frozen out of the collector's view, and every phase runs with the
collector on. Per workload and phase the report gives each
side's median over rounds of the seconds summed over the tables, of the
collector's seconds inside them and, per generation, of the collections
it ran there (a ``gc.callbacks`` hook), and the median and IQR of the
per-round change/parent ratio. One-row
``classify`` keeps each sampled row's fastest call; p50 and p99 are
taken per table and averaged over the tables, as the benchmark does.
Counters (subspaces, detectors, cells, model bytes) are sums over each
side's output files, read through that side's own ``aag``, so only the
library knows the model file's layout.

The report is written in any case; exits 1 if any output differs or any
command fails.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave perfbench/ and both checkouts exactly as they are
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as in the benchmark

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

ROUNDS = 5
SAMPLE = 2_000  # one-row classify rows per workload, shared out over its tables
OUTPUTS = ("subspaces.json", "model.json", "scores.csv")
SIDES = ("parent", "change")


def import_aag(src: Path):
    """The ``aag`` package under ``src``, imported afresh."""
    for name in [m for m in sys.modules if m == "aag" or m.startswith("aag.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("aag.cli")
        return sys.modules["aag"]
    finally:
        sys.path.remove(str(src))


class CollectorClock:
    """A ``gc.callbacks`` hook adding up the wall seconds of every collection
    and counting the collections of each generation."""

    def __init__(self) -> None:
        self.reset()
        self._start = 0.0

    def reset(self) -> None:
        self.seconds = 0.0
        self.collections = [0] * len(gc.get_threshold())

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.collections[info["generation"]] += 1
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start


def run_cli(aag, argv: list[str]) -> None:
    code = aag.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"aag {argv[0]} exited {code} ({' '.join(argv)})")


def prepare(aag, inputs, out: Path, k: int, n_tables: int, seed: int) -> SimpleNamespace:
    """Run the three commands into ``out``, then build the phases' inputs with the library."""
    out.mkdir()
    train_csv, score_csv = str(inputs.train_csv), str(inputs.score_csv)
    model_json = str(out / OUTPUTS[1])
    fit = ["--input", train_csv, "--bins", str(workloads.BINS), "--output"]
    t = SimpleNamespace(aag=aag, train_csv=train_csv, score_csv=score_csv, argv={
        "subspaces": ["subspaces", *fit, str(out / OUTPUTS[0])], "train": ["train", *fit, model_json],
        "score": ["score", "--input", score_csv, "--model", model_json, "--output", str(out / OUTPUTS[2])],
    })
    for argv in t.argv.values():
        run_cli(aag, argv)
    t.raw_train, t.raw_score = aag.load_csv(train_csv), aag.load_csv(score_csv)
    t.pp = aag.fit_preprocessor(t.raw_train, bins=workloads.BINS)
    t.coded, t.coded_score = (aag.apply_preprocessor(t.pp, raw) for raw in (t.raw_train, t.raw_score))
    fit_idx, _ = aag.split_indices(t.coded.n_rows, 0.3, 0)  # aag train's defaults
    t.fit_rows = t.coded.take_rows(np.sort(fit_idx))
    t.subspaces = aag.run_aag(t.fit_rows).attr_sets() or [tuple(range(t.coded.n_attrs))]
    t.text = aag.fit_ensemble(t.coded, t.subspaces, preprocess=t.pp).to_json()
    if t.text != Path(model_json).read_text(encoding="utf-8"):
        raise RuntimeError(f"{out}: the library phases do not rebuild aag train's model.json")
    # the model as aag score reads it: its detectors are immutable arrays, so
    # the meaning check and one-row calls change no path the other phases time
    t.model = aag.EnsembleModel.from_json(t.text)
    rng = np.random.default_rng([seed, 1, k])  # perfbench's classify sample
    take = SAMPLE // n_tables + (k < SAMPLE % n_tables)
    rows = rng.choice(t.coded_score.n_rows, size=min(take, t.coded_score.n_rows), replace=False)
    t.sample = [t.coded_score.codes[r].copy() for r in sorted(rows)]
    t.fastest = [float("inf")] * len(t.sample)
    return t


def meaning(model) -> tuple:
    """What a model read back from its file holds, whatever the file's layout."""
    return ([(d.subspace, d.cell_mass, d.accepted_cells) for d in model.detectors],
            model.weights.tobytes(), model.rho, model.alpha,
            model.preprocess and model.preprocess.to_json_dict())


def phases(t: SimpleNamespace) -> dict:
    """Each timed phase of one side's table, as a call."""
    aag = t.aag

    def preprocess():
        pp = aag.fit_preprocessor(t.raw_train, bins=workloads.BINS)
        aag.apply_preprocessor(pp, t.raw_train)
        aag.apply_preprocessor(pp, t.raw_score)

    def classify():
        model, call, fastest = t.model, aag.classify, t.fastest
        for i, row in enumerate(t.sample):
            start = perf_counter_ns()
            call(model, row)
            fastest[i] = min(fastest[i], (perf_counter_ns() - start) / 1000.0)

    return {
        "cli_train": lambda: run_cli(aag, t.argv["train"]),
        "cli_score": lambda: run_cli(aag, t.argv["score"]),
        "load_csv": lambda: (aag.load_csv(t.train_csv), aag.load_csv(t.score_csv)),
        "load_score": lambda: aag.load_csv(t.score_csv),
        "preprocess": preprocess,
        "apply_score": lambda: aag.apply_preprocessor(t.pp, t.raw_score),
        # what aag score does to read and code its file
        "read_score": lambda: aag.preprocess.code_csv(t.pp, t.score_csv),
        "run_aag": lambda: aag.run_aag(t.fit_rows),
        "fit_ensemble": lambda: aag.fit_ensemble(t.coded, t.subspaces, preprocess=t.pp),
        "to_json": t.model.to_json,
        "from_json": lambda: aag.EnsembleModel.from_json(t.text),
        "classify_table": lambda: aag.classify_table(t.model, t.coded_score),
        "classify": classify,
    }


def counters(aag, outs: list[Path]) -> dict:
    """Sums over a side's output files of one workload, each read by that side's ``aag``."""
    def read(out: Path, file: str) -> str:
        return (out / file).read_text(encoding="utf-8")

    models = [aag.EnsembleModel.from_json(read(out, OUTPUTS[1])) for out in outs]
    detectors = [d for m in models for d in m.detectors]
    return {
        "subspaces": sum(len(aag.SubspaceSet.from_json(read(out, OUTPUTS[0])).subspaces)
                         for out in outs),
        "detectors": len(detectors),
        "zero_weight_detectors": sum(int((m.weights == 0.0).sum()) for m in models),
        "cells": sum(len(d.cell_mass) for d in detectors),
        "accepted_cells": sum(len(d.accepted_cells) for d in detectors),
        "model_bytes": sum((out / OUTPUTS[1]).stat().st_size for out in outs),
    }


def p50_p99(fastest: list[list[float]]) -> dict:
    """Each table's median and p99 over its rows, averaged over the tables."""
    return {"p50_us": statistics.fmean(statistics.median(rows) for rows in fastest),
            "p99_us": statistics.fmean(statistics.quantiles(rows, n=100)[98] for rows in fastest)}


def time_phases(calls: list[dict], clock: CollectorClock) -> dict:
    """ROUNDS rounds of every phase on every table; per phase, each side's
    (seconds, collector seconds, collections by generation) per round,
    summed over the tables."""
    rounds = {name: {side: [] for side in SIDES} for name in calls[0]["parent"]}
    for r in range(ROUNDS):
        for name, per_side in rounds.items():
            sums = {side: [0.0, 0.0, [0] * len(clock.collections)] for side in SIDES}
            for k, table in enumerate(calls):
                for side in SIDES if (r + k) % 2 == 0 else SIDES[::-1]:
                    gc.collect()  # the other side's garbage is not collected inside this call
                    clock.reset()
                    start = perf_counter()
                    table[side][name]()
                    sums[side][0] += perf_counter() - start
                    sums[side][1] += clock.seconds
                    sums[side][2] = list(map(int.__add__, sums[side][2], clock.collections))
            for side in SIDES:
                per_side[side].append(sums[side])
    return rounds


def summary(per_side: dict) -> dict:
    ratios = [c[0] / p[0] for p, c in zip(per_side["parent"], per_side["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    # per side: the rounds' seconds, collector seconds and collections by generation
    rounds = {side: list(zip(*per_side[side])) for side in SIDES}
    return {**{f"{side}_s": statistics.median(rounds[side][0]) for side in SIDES},
            **{f"{side}_gc_s": statistics.median(rounds[side][1]) for side in SIDES},
            **{f"{side}_gc_collections": [statistics.median_low(n) for n in zip(*rounds[side][2])]
               for side in SIDES},
            "ratio": statistics.median(ratios), "ratio_iqr": q3 - q1}


def run_workload(aags: dict, workload, seed: int, tmp: Path, clock, report: dict) -> dict:
    """Outputs, phase times and counters of one workload; differences go to ``report``."""
    tables = []
    for k in range(workload.instances):
        inputs = workloads.generate(workload, seed, k, tmp / workload.name / f"t{k}")
        sides = {side: prepare(aag, inputs, inputs.train_csv.parent / side, k,
                               workload.instances, seed) for side, aag in aags.items()}
        for file in OUTPUTS:
            path = f"{workload.name}/t{k}/{file}"
            got = report["digests"][path] = {side: hashlib.sha256(
                (inputs.train_csv.parent / side / file).read_bytes()).hexdigest() for side in SIDES}
            if got["parent"] != got["change"]:
                report["differ"].append(path)
        p, c = sides.values()
        if [p.aag.classify(p.model, r) for r in p.sample] != [c.aag.classify(c.model, r) for r in c.sample]:
            report["differ"].append(f"{workload.name}/t{k}/classify")
        if any(t.model.to_json() != t.text for t in (p, c)):
            report["differ"].append(f"{workload.name}/t{k}/model.json round trip")
        if meaning(p.model) != meaning(c.model):
            report["differ"].append(f"{workload.name}/t{k}/model")
        tables.append(sides)
    calls = [{side: phases(t) for side, t in sides.items()} for sides in tables]
    gc.collect()
    gc.freeze()  # the prepared inputs stay out of every collection the phases trigger
    return {
        "phases": {name: summary(per_side) for name, per_side in time_phases(calls, clock).items()},
        "classify": {side: p50_p99([sides[side].fastest for sides in tables]) for side in SIDES},
        "counters": {side: counters(aag, [tmp / workload.name / f"t{k}" / side
                                          for k in range(workload.instances)])
                     for side, aag in aags.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--seed", type=int, default=0, help="perfbench table seed")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all",
                        help="the one workload to run (default: all)")
    parser.add_argument("--output", required=True, type=Path,
                        help="JSON report to write, e.g. BENCH_<label>.json")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)  # keeps aag's per-phase INFO lines off stderr
    aags = {side: import_aag(getattr(args, side).resolve() / "src") for side in SIDES}
    report = {"seed": args.seed, "rounds": ROUNDS, "python": platform.python_version(),
              "numpy": np.__version__, "failed": [], "differ": [],
              "digests": {}, "workloads": {}}
    clock = CollectorClock()
    gc.callbacks.append(clock)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in workloads.WORKLOADS.items():
                if args.workload not in ("all", name):
                    continue
                result = run_workload(aags, workload, args.seed, Path(tmp), clock, report)
                report["workloads"][name] = result
                for phase, row in result["phases"].items():
                    print(f"{name:<12} {phase:<15} {row['parent_s']:8.3f} {row['change_s']:8.3f}"
                          f"  ratio {row['ratio']:.3f} iqr {row['ratio_iqr']:.3f}", flush=True)
                for side, row in result["classify"].items():
                    print(f"{name:<12} classify {side:<6} p50 {row['p50_us']:.2f} us"
                          f"  p99 {row['p99_us']:.2f} us", flush=True)
    except Exception as exc:  # a failed command or phase is reported, not raised
        traceback.print_exc()
        report["failed"].append(f"{type(exc).__name__}: {exc}")
    finally:
        gc.callbacks.remove(clock)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for problem in report["failed"] + [f"differs: {path}" for path in report["differ"]]:
        print(problem, file=sys.stderr)
    return 1 if report["failed"] or report["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
