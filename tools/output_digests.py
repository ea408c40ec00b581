"""Print a sha256 of every output aag writes on the benchmark tables.

    python3 tools/output_digests.py --src . --seed 0 > change.txt
    python3 tools/output_digests.py --src ../parent --seed 0 > parent.txt
    diff parent.txt change.txt

The tables come from this checkout's ``perfbench/workloads.py`` (imported,
never changed), written under a temporary directory, so two runs with
different ``--src`` checkouts see byte-identical inputs. For each table
the ``aag`` package under ``SRC/src`` runs ``subspaces``, ``train`` and
``score`` in a child process with one BLAS thread, as the benchmark does.
One line per table and file: ``<sha256>  <workload>/t<k>/<file>``. Exits
1 if any command fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out

import workloads  # noqa: E402

OUTPUTS = ("subspaces.json", "model.json", "scores.csv")


def commands(inputs: workloads.Inputs) -> list[list[str]]:
    """The three aag commands of one table, writing beside its inputs."""
    out = inputs.train_csv.parent
    fit = ["--bins", str(workloads.BINS)]
    return [
        ["subspaces", "--input", str(inputs.train_csv), "--output", str(out / OUTPUTS[0]), *fit],
        ["train", "--input", str(inputs.train_csv), "--output", str(out / OUTPUTS[1]), *fit],
        ["score", "--input", str(inputs.score_csv), "--model", str(out / OUTPUTS[1]),
         "--output", str(out / OUTPUTS[2])],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout whose src/aag runs the commands")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve() / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for k in range(workload.instances):
                table = Path(tmp, name, f"t{k}")
                inputs = workloads.generate(workload, args.seed, k, table)
                for command in commands(inputs):
                    proc = subprocess.run([sys.executable, "-m", "aag.cli", *command],
                                          env=env, capture_output=True, text=True)
                    if proc.returncode != 0:
                        print(f"{name}/t{k}: aag {command[0]} exited {proc.returncode}:\n"
                              f"{proc.stderr}", file=sys.stderr)
                        return 1
                for output in OUTPUTS:
                    digest = hashlib.sha256((table / output).read_bytes()).hexdigest()
                    print(f"{digest}  {name}/t{k}/{output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
