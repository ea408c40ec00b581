"""Print how much of ``aag train`` and ``aag score`` goes to the cyclic garbage collector.

    python3 tools/gc_share.py --src . --seed 31 > change.txt
    python3 tools/gc_share.py --src ../parent --seed 31 > parent.txt

The tables come from this checkout's ``perfbench/workloads.py`` (imported,
never changed), written under a temporary directory. The ``aag`` package
under ``SRC/src`` runs in this process, as the benchmark runs it, with one
BLAS thread. Every table of a workload is trained and then scored, in
``ROUNDS`` rounds. Before each command ``gc.collect()`` empties the
collector, so every command starts from the same state; a ``gc.callbacks``
hook then adds up the wall time of every collection that runs inside the
command. The benchmark's tracer wraps Python functions and cannot see that
time.

One line per workload and command, each figure the median over rounds of
the sum over the workload's tables: wall seconds, seconds inside the
collector, their ratio and the number of collections. Exits 1 if any
command fails.
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
from time import perf_counter  # noqa: E402

from output_digests import commands, workloads  # noqa: E402  (same directory)

ROUNDS = 3


class CollectorClock:
    """A ``gc.callbacks`` hook: wall seconds and count of the collections it sees."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections += 1


def run_timed(main, argv: list[str], clock: CollectorClock) -> tuple[float, float, int]:
    """One in-process command: (wall seconds, collector seconds, collections)."""
    gc.collect()
    clock.seconds, clock.collections = 0.0, 0
    start = perf_counter()
    code = main(argv)
    wall = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"aag {argv[0]} exited {code}")
    return wall, clock.seconds, clock.collections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout whose src/aag runs the commands")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))
    aag_main = importlib.import_module("aag.cli").main
    logging.basicConfig(level=logging.WARNING)  # keeps aag's per-phase INFO lines off stderr
    clock = CollectorClock()
    gc.callbacks.append(clock)
    print("workload     command  wall_s  gc_s    gc_share  collections")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, workload in workloads.WORKLOADS.items():
                tables = [commands(workloads.generate(workload, args.seed, k,
                                                      Path(tmp, name, f"t{k}")))[1:]
                          for k in range(workload.instances)]
                rounds = {"train": [], "score": []}
                for _ in range(ROUNDS):
                    for step, command in enumerate(rounds):
                        runs = [run_timed(aag_main, table[step], clock) for table in tables]
                        rounds[command].append([sum(column) for column in zip(*runs)])
                for command, totals in rounds.items():
                    wall, in_gc, count = (statistics.median(column) for column in zip(*totals))
                    print(f"{name:<12} {command:<8} {wall:6.3f}  {in_gc:6.3f}  "
                          f"{in_gc / wall:7.1%}  {count:11.0f}", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        gc.callbacks.remove(clock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
