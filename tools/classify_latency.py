"""Compare one-row ``aag.classify`` latency of two checkouts in one process.

    python3 tools/classify_latency.py --parent ../parent --change . --seed 5

Runs on one machine vary by about 20 % from process to process, which
hides a gain of that size between two benchmark runs; timing both
checkouts in alternating rounds of one process cancels most of that.

The tables come from this checkout's ``perfbench/workloads.py`` (imported,
never changed), written under a temporary directory. Each side's ``aag``
package is imported from ``DIR/src`` in turn, ``sys.modules`` purged
between the two imports, with one BLAS thread. Each side trains every
table once with its own ``aag train``, reads its model back and codes a
seeded sample of ``SAMPLE`` score rows per workload. Both sides must
return the same ``(score, label)`` for every sampled row. Then ``ROUNDS``
rounds each time every sampled row once per side, the side that goes
first alternating.

One line per workload and side: p50 and p99 in microseconds of each
row's fastest call, taken per table and averaged over the tables, as the
benchmark does, and the change's figure over the parent's. Exits 1 if
any command fails or the sides disagree.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # leave perfbench/ and tools/ exactly as checked out
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as in the benchmark

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import logging  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

from output_digests import commands, workloads  # noqa: E402  (same directory)

ROUNDS = 11
SAMPLE = 2_000  # score rows per workload, shared out over its tables


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


def sample_rows(workload, seed: int, k: int, n_rows: int) -> list[int]:
    """Table k's share of the workload's SAMPLE rows, drawn with a seed of its own."""
    rng = np.random.default_rng([seed, 1, k])
    take = SAMPLE // workload.instances + (k < SAMPLE % workload.instances)
    return sorted(rng.choice(n_rows, size=min(take, n_rows), replace=False).tolist())


def prepare(aag, tables: list, workload, seed: int, side: str) -> list[tuple]:
    """Train every table with this side's aag; per table (model, coded sample rows)."""
    prepared = []
    for k, inputs in enumerate(tables):
        model_path = inputs.train_csv.parent / f"{side}.json"
        train = commands(inputs)[1]
        train[train.index("--output") + 1] = str(model_path)
        code = aag.cli.main(train)
        if code != 0:
            raise RuntimeError(f"{side}: aag train exited {code} on {workload.name}/t{k}")
        model = aag.EnsembleModel.from_json(model_path.read_text(encoding="utf-8"))
        codes = aag.apply_preprocessor(model.preprocess, aag.load_csv(inputs.score_csv)).codes
        rows = [codes[r].copy() for r in sample_rows(workload, seed, k, codes.shape[0])]
        prepared.append((model, rows))
    return prepared


def time_round(classify, prepared: list[tuple], fastest: list[list[float]]) -> None:
    """Time one call per sampled row; keep each row's fastest call in ``fastest``."""
    gc.collect()  # nothing left over is collected inside the timed calls
    for (model, rows), best in zip(prepared, fastest):
        for i, row in enumerate(rows):
            start = perf_counter_ns()
            classify(model, row)
            best[i] = min(best[i], (perf_counter_ns() - start) / 1000.0)


def p50_p99(fastest: list[list[float]]) -> tuple[float, float]:
    """Each table's median and p99 over its rows, averaged over the tables."""
    p50 = statistics.fmean(statistics.median(rows) for rows in fastest)
    p99 = statistics.fmean(statistics.quantiles(rows, n=100)[98] if len(rows) > 1 else rows[0]
                           for rows in fastest)
    return p50, p99


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)  # keeps aag's per-phase INFO lines off stderr
    sides = {"parent": args.parent, "change": args.change}
    print("workload     side    p50_us  p99_us")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in workloads.WORKLOADS.items():
                tables = [workloads.generate(workload, args.seed, k, Path(tmp, name, f"t{k}"))
                          for k in range(workload.instances)]
                runs = {}
                for side, checkout in sides.items():
                    aag = import_aag(checkout.resolve() / "src")
                    runs[side] = (aag.classify, prepare(aag, tables, workload, args.seed, side))
                (classify_a, prep_a), (classify_b, prep_b) = runs.values()
                for k, ((model_a, rows_a), (model_b, rows_b)) in enumerate(zip(prep_a, prep_b)):
                    for row_a, row_b in zip(rows_a, rows_b, strict=True):
                        if classify_a(model_a, row_a) != classify_b(model_b, row_b):
                            raise RuntimeError(f"{name}/t{k}: the sides classify a row differently")
                fastest = {side: [[float("inf")] * len(rows) for _, rows in prepared]
                           for side, (_, prepared) in runs.items()}
                for r in range(ROUNDS):
                    order = list(runs) if r % 2 == 0 else list(reversed(runs))
                    for side in order:
                        time_round(*runs[side], fastest[side])
                figures = {side: p50_p99(rows) for side, rows in fastest.items()}
                for side, (p50, p99) in figures.items():
                    print(f"{name:<12} {side:<7} {p50:6.2f}  {p99:6.2f}", flush=True)
                (p50_a, p99_a), (p50_b, p99_b) = figures.values()
                print(f"{name:<12} ratio   {p50_b / p50_a:6.3f}  {p99_b / p99_a:6.3f}", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
