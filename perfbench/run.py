"""aag benchmark: train and score end to end on seeded planted-group tables.

    python3 perfbench/run.py --workload wide-search --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

One client runs a closed loop in this process with no think time. It
visits the workload's tables round and round until each has run and
``--seconds`` have passed: ``aag.cli.main(["train", ...])`` and
``aag.cli.main(["score", ...])``, each followed by a round of single-row
``aag.classify`` calls over a seeded 2 000-row sample of score rows,
shared out among the tables scored so far. Every output is checked;
a failed check counts as a failed operation. ``--trace 1`` runs the same
work with every layer wrapped from outside (see spans.py) and reports
per-layer figures instead. The last line of standard output is the JSON result; the lines before it
print each metric by name with its unit. perfbench/README.md lists the
metrics and the layer each one belongs to.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so the figures measure the
# program rather than the thread scheduler; aag's vectors are too small
# to gain from a second thread.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCES = HERE / "references"

REFERENCE_SEED = 0
SETUP_REPEATS = 3
CLASSIFY_SAMPLE = 2_000
TRAILING_ROUNDS = 8  # classify rounds after the loop, so that the tables scored last are measured too
KERNEL_REPEATS = 5
TRACED_TABLES = 2
SCORE_TOLERANCE = 1e-6
RHO_TOLERANCE = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "score_s": "s",
    "classify_row_p50_us": "us",
    "classify_row_p99_us": "us",
    "model_bytes": "B",
    "peak_rss_mb": "MiB",
    "f1": "1",
}


class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.problems.append(f"{what}: {problem}")
        return problem is None


@dataclass
class Table:
    """One generated table pair and what its first train and score produced."""

    index: int
    inputs: workloads.Inputs
    reference: dict | None
    model_sha: str | None = None
    scores_sha: str | None = None
    model_bytes: int = 0
    subspaces: list = field(default_factory=list)
    rho: float = 0.0
    scores: list[float] = field(default_factory=list)
    labels: str = ""  # "1" anomaly, "0" normal, one per score row
    model: object = None  # the EnsembleModel read back for single-row classify
    sample: list | None = None  # (coded row, score, label) rows for single-row classify

    @property
    def model_path(self) -> Path:
        return self.inputs.train_csv.with_name("model.json")

    @property
    def scores_path(self) -> Path:
        return self.inputs.train_csv.with_name("scores.csv")


# ---------------------------------------------------------------- environment

def git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def import_aag():
    """Import aag afresh from src/, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "aag" or m.startswith("aag.")]:
        del sys.modules[name]
    importlib.import_module("aag.cli")
    return sys.modules["aag"]


# ---------------------------------------------------------------- operations

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _spin() -> float:
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return perf_counter() - start


def use_fastest_cpu() -> None:
    """Move this process to the allowed CPU that runs a 1 ms loop fastest.

    On shared virtual machines a CPU can run 1.6x slower for seconds at a
    time while its neighbour is busy, and CPUs slow down independently of
    each other. Choosing before every timed operation keeps that noise out
    of the figures; the program itself is single-threaded.
    """
    if len(CPUS) < 2:
        return
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t = min(_spin(), _spin())
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def call_cli(aag, argv: list[str]) -> tuple[float, str | None]:
    """Run one in-process CLI command: (wall seconds, problem or None)."""
    use_fastest_cpu()
    start = perf_counter()
    try:
        code = aag.cli.main([str(a) for a in argv])
    except (Exception, SystemExit) as exc:  # the program must not raise past main
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return seconds, None if code == 0 else f"exit code {code}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_model(aag, table: Table) -> str | None:
    """Subspaces and rho read back through the public loader, against the reference.

    The first train of a table fixes them; later trains must write the same bytes.
    """
    digest = sha256(table.model_path)
    if table.model_sha is not None:
        return None if digest == table.model_sha else "model.json differs from the run's first train"
    try:
        model = aag.EnsembleModel.from_json(table.model_path.read_text(encoding="utf-8"))
    except Exception as exc:  # a broken model file is a failed train, not a crashed benchmark
        return f"model.json does not load: {type(exc).__name__}: {exc}"
    table.model_sha = digest
    table.model_bytes = table.model_path.stat().st_size
    table.subspaces = [list(d.subspace) for d in model.detectors]
    table.rho = model.rho
    ref = table.reference
    if ref is not None:
        if table.subspaces != ref["subspaces"]:
            return "detector subspaces differ from the reference"
        if abs(table.rho - ref["rho"]) > RHO_TOLERANCE:
            return f"rho {table.rho!r} differs from the reference {ref['rho']!r}"
    return None


def read_scores(path: Path) -> tuple[list[float], str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "row_index,score,label":
        raise ValueError("scores.csv has no row_index,score,label header")
    scores, labels = [], []
    for i, line in enumerate(lines[1:]):
        idx, score, label = line.split(",")
        if int(idx) != i or label not in ("normal", "anomaly"):
            raise ValueError(f"scores.csv row {i + 1} is malformed")
        scores.append(float(score))
        labels.append("1" if label == "anomaly" else "0")
    return scores, "".join(labels)


def check_scores(table: Table) -> str | None:
    """Labels and scores against the reference; later scores must write the same bytes."""
    digest = sha256(table.scores_path)
    if table.scores_sha is not None:
        return None if digest == table.scores_sha else "scores.csv differs from the run's first score"
    try:
        scores, labels = read_scores(table.scores_path)
    except ValueError as exc:
        return str(exc)
    if len(scores) != table.inputs.labels.size:
        return f"scores.csv has {len(scores)} rows, expected {table.inputs.labels.size}"
    ref = table.reference
    if ref is not None:
        if labels != ref["labels"]:
            return "labels differ from the reference"
        worst = max(abs(a - b) for a, b in zip(scores, ref["scores"]))
        if worst > SCORE_TOLERANCE + 1e-12:
            return f"a score differs from the reference by {worst:.3g}"
    table.scores_sha, table.scores, table.labels = digest, scores, labels
    return None


def train(aag, table: Table, ledger: Ledger, tracer=None) -> float | None:
    """One timed ``aag train``; under a tracer only the command itself is inside the span."""
    with tracer.span("cli.train") if tracer else nullcontext():
        seconds, problem = call_cli(aag, ["train", "--input", table.inputs.train_csv,
                                          "--output", table.model_path, "--bins", workloads.BINS])
    if problem is None:
        problem = check_model(aag, table)
    return seconds if ledger.record(f"train table {table.index}", problem) else None


def score(aag, table: Table, ledger: Ledger, tracer=None) -> float | None:
    with tracer.span("cli.score") if tracer else nullcontext():
        seconds, problem = call_cli(aag, ["score", "--input", table.inputs.score_csv,
                                          "--model", table.model_path, "--output", table.scores_path])
    if problem is None:
        problem = check_scores(table)
    return seconds if ledger.record(f"score table {table.index}", problem) else None


# ---------------------------------------------------------------- derived checks

def f1_of(tables: list[Table], aag, ledger: Ledger) -> float:
    """F1 with anomaly positive, pooled over the tables, cross-checked with aag.evaluation."""
    truth = np.concatenate([t.inputs.labels for t in tables])
    pred = np.array([c == "1" for t in tables for c in t.labels], dtype=np.int64)
    tp = int(np.sum((truth == 1) & (pred == 1)))
    fp = int(np.sum((truth == 0) & (pred == 1)))
    fn = int(np.sum((truth == 1) & (pred == 0)))
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    problem = None
    if abs(aag.evaluation.f1_score(truth, pred).f1 - f1) > 1e-12:
        problem = "aag.evaluation.f1_score disagrees"
    ref = tables[0].reference
    if problem is None and ref is not None and abs(ref["f1"] - f1) > 1e-12:
        problem = f"f1 {f1!r} differs from the reference {ref['f1']!r}"
    ledger.record("f1", problem)
    return f1


def output_digest(tables: list[Table]) -> str:
    """Digest of every checked output, for comparing two commits on any seed."""
    doc = [[t.subspaces, f"{t.rho:.9f}", t.labels, [f"{s:.6f}" for s in t.scores]] for t in tables]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def reference_path(workload: workloads.Workload) -> Path:
    return REFERENCES / f"{workload.name}.json.gz"


def load_reference(workload: workloads.Workload, seed: int) -> list[dict | None]:
    path = reference_path(workload)
    if seed != REFERENCE_SEED or not path.is_file():
        return [None] * workload.instances
    doc = json.loads(gzip.decompress(path.read_bytes()))
    return [dict(t, f1=doc["f1"]) for t in doc["tables"]]


def write_reference(workload: workloads.Workload, tables: list[Table], f1: float) -> None:
    doc = {"seed": REFERENCE_SEED, "f1": f1, "tables": [
        {"subspaces": t.subspaces, "rho": t.rho, "labels": t.labels, "scores": t.scores}
        for t in tables]}
    REFERENCES.mkdir(exist_ok=True)
    text = json.dumps(doc, separators=(",", ":")).encode()
    reference_path(workload).write_bytes(gzip.compress(text, mtime=0))


# ---------------------------------------------------------------- measurement

def setup(workload: workloads.Workload, seed: int, directory: Path, references: list):
    """Generate every table and import aag, SETUP_REPEATS times; (tables, aag, seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        use_fastest_cpu()
        start = perf_counter()
        inputs = [workloads.generate(workload, seed, k, directory / f"t{k}")
                  for k in range(workload.instances)]
        aag = import_aag()
        times.append(perf_counter() - start)
    tables = [Table(k, inp, ref) for k, (inp, ref) in enumerate(zip(inputs, references))]
    return tables, aag, times


def load_sample(aag, table: Table, n_tables: int, seed: int, ledger: Ledger) -> None:
    """Read the table's model and code its share of the 2 000-row classify sample, once.

    The share is drawn from the table's score rows with a seed of its own;
    each row keeps the score and label that scores.csv holds for it. Later
    trains must write the same model bytes, so the model read here stays valid.
    """
    try:
        model = aag.EnsembleModel.from_json(table.model_path.read_text(encoding="utf-8"))
        codes = aag.apply_preprocessor(model.preprocess, aag.load_csv(table.inputs.score_csv)).codes
        rng = np.random.default_rng([seed, 1, table.index])
        take = CLASSIFY_SAMPLE // n_tables + (table.index < CLASSIFY_SAMPLE % n_tables)
        rows = sorted(rng.choice(codes.shape[0], size=min(take, codes.shape[0]), replace=False))
        table.model = model
        table.sample = [(codes[r].copy(), table.scores[r], "anomaly" if table.labels[r] == "1" else "normal")
                        for r in rows]
        problem = None
    except Exception as exc:  # recorded as a failed operation; the run goes on
        problem = f"raised {type(exc).__name__}: {exc}"
    ledger.record(f"classify table {table.index}", problem)


def classify_round(aag, tables: list[Table], ledger: Ledger, rounds: list[list[list[float]]]) -> None:
    """One pass of single-row aag.classify over the sample of every table that has one.

    The microseconds of each table's calls are appended to rounds[table.index]
    as one round. Each call must reproduce the score and label of its row in
    scores.csv.
    """
    gc.collect()  # garbage the command just left must not be collected inside timed calls
    use_fastest_cpu()
    classify = aag.classify
    for table in tables:
        if table.sample is None:
            continue
        latencies, problem = [], None
        try:
            for row, want_score, want_label in table.sample:
                start = perf_counter_ns()
                got_score, got_label = classify(table.model, row)
                latencies.append((perf_counter_ns() - start) / 1000.0)
                if got_label != want_label or abs(got_score - want_score) > 5e-7 + 1e-12:
                    problem = "aag.classify disagrees with scores.csv"
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        if ledger.record(f"classify table {table.index}", problem):
            rounds[table.index].append(latencies)


def row_latencies(rounds: list[list[list[float]]]) -> list[list[float]]:
    """Per measured table, the fastest call of each sample row over all of the table's rounds.

    Shared machines slow down for seconds to minutes at a time, by up to
    1.8x for these dictionary lookups. A row's calls are spread over the
    whole run, so its fastest shows the row's cost on an undisturbed
    machine rather than the neighbours' load.
    """
    return [[min(calls) for calls in zip(*rs)] for rs in rounds if rs]


def run_untraced(tables, aag, seconds: float, seed: int, ledger: Ledger) -> dict:
    """Closed loop over the tables, round and round, until every table has run
    and ``seconds`` have passed. A classify round over every sampled table
    follows each train and score, and TRAILING_ROUNDS more end the run."""
    left = spans.wrapped_names(aag)
    ledger.record("untraced program", f"trace wrappers installed: {left}" if left else None)
    start = perf_counter()
    train_times = [[] for _ in tables]
    score_times = [[] for _ in tables]
    rounds = [[] for _ in tables]
    for visit in itertools.count():
        table = tables[visit % len(tables)]
        t = train(aag, table, ledger)
        if t is not None:
            train_times[table.index].append(t)
            classify_round(aag, tables, ledger, rounds)
            s = score(aag, table, ledger)
            if s is not None:
                score_times[table.index].append(s)
                if table.sample is None:
                    load_sample(aag, table, len(tables), seed, ledger)
                classify_round(aag, tables, ledger, rounds)
        if visit + 1 >= len(tables) and perf_counter() - start >= seconds:
            break
    for _ in range(TRAILING_ROUNDS):
        classify_round(aag, tables, ledger, rounds)
    # The median and p99 over each table's sample rows, averaged over the
    # tables so that every model weighs the same: pooled rows would let the
    # one or two slowest models of a seed set the tail.
    rows = row_latencies(rounds)
    return {
        "train_s": _mean_of_medians(train_times),
        "score_s": _mean_of_medians(score_times),
        "classify_row_p50_us": _mean_of_medians(rows),
        "classify_row_p99_us": statistics.fmean(_p99(r) for r in rows) if rows else 0.0,
        "model_bytes": statistics.fmean(t.model_bytes for t in tables),
        "visits": visit + 1,
        "classify_rows": sum(len(r) for r in rows),
        "classify_calls": sum(len(r) for rs in rounds for r in rs),
    }


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def _mean_of_medians(per_table: list[list[float]]) -> float:
    """Median of each table's values, averaged over the tables."""
    medians = [statistics.median(times) for times in per_table if times]
    return statistics.fmean(medians) if medians else 0.0


def kernel_sets(n_attrs: int, seed: int) -> list[tuple[int, ...]]:
    """All pairs, up to 2 000 triples and up to 20 sets of size 8, seeded and distinct."""
    rng = np.random.default_rng([seed, 2])
    out = list(itertools.combinations(range(n_attrs), 2))
    for size, limit in ((3, 2_000), (8, 20)):
        if math.comb(n_attrs, size) <= limit:
            out += itertools.combinations(range(n_attrs), size)
            continue
        picked: dict[tuple[int, ...], None] = {}
        while len(picked) < limit:
            picked[tuple(sorted(int(a) for a in rng.choice(n_attrs, size=size, replace=False)))] = None
        out += picked
    return out


def kernel(aag, table: Table, seed: int) -> tuple[float, int]:
    """Median seconds of joint_entropy over kernel_sets on a fresh table of coded training rows."""
    raw = aag.load_csv(table.inputs.train_csv)
    codes = aag.apply_preprocessor(aag.fit_preprocessor(raw, bins=workloads.BINS), raw).codes
    sets = kernel_sets(codes.shape[1], seed)
    times = []
    for _ in range(KERNEL_REPEATS):
        fresh = aag.DiscreteTable(codes)
        start = perf_counter()
        for s in sets:
            aag.measures.joint_entropy(fresh, s)
        times.append(perf_counter() - start)
    return statistics.median(times), len(sets)


def pass_metrics(tracer: spans.Tracer, untraced_train_s: float, kernel_s: float, n_sets: int) -> dict:
    """Every per-layer metric of one traced pass."""
    metrics = spans.layer_metrics(tracer)
    metrics["trace.train_overhead_s"] = metrics["cli.train_s"] - untraced_train_s
    metrics["measures.kernel_s"] = kernel_s
    metrics["measures.kernel.sets_per_s"] = n_sets / kernel_s
    return metrics


def run_traced(workload, tables, aag, seconds: float, seed: int, ledger: Ledger, env: dict) -> dict:
    """Per-layer figures: median over passes, each pass tracing the first TRACED_TABLES tables."""
    kernel_s, n_sets = kernel(aag, tables[0], seed)
    traced = tables[:TRACED_TABLES]
    start = perf_counter()
    passes = []
    while True:
        tracer = spans.Tracer("")
        untraced_train = 0.0
        for table in traced:
            untraced_train += train(aag, table, ledger) or 0.0
            tracer.run_id = f"{workload.name}-seed{seed}-pass{len(passes)}-table{table.index}"
            # the untraced train above already read the model back, so the
            # checks under the tracer only compare file digests
            tracer.install(aag)
            try:
                if train(aag, table, ledger, tracer) is not None:
                    score(aag, table, ledger, tracer)
            finally:
                tracer.restore()
            left = spans.wrapped_names(aag)
            ledger.record("restore wrappers", f"still wrapped: {left}" if left else None)
        passes.append(pass_metrics(tracer, untraced_train, kernel_s, n_sets))
        tracer.write(WORK / workload.name / "spans.json", env)
        if perf_counter() - start >= seconds:
            break
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def shares(m: dict) -> dict:
    """The layer split each workload was chosen for, from one traced result."""
    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    measures = m["measures.joint_entropy_s"] + m["measures.normalized_measure_s"] + m["measures.total_correlation_s"]
    return {
        "measures+grouping self / train": share(measures + m["grouping.self_s"], m["cli.train_s"]),
        "run_aag / train": share(m["grouping.run_aag_s"], m["cli.train_s"]),
        "(classify_table + load_csv) / score":
            share(m["ensemble.classify_table_s"] + m["preprocess.load_csv.in_score_s"], m["cli.score_s"]),
    }


# ---------------------------------------------------------------- entry points

def run_workload(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    directory = WORK / workload.name
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    logging.basicConfig(level=logging.WARNING)  # keeps aag's per-phase INFO lines off stderr
    ledger = Ledger()
    references = [None] * workload.instances if args.record else load_reference(workload, args.seed)
    tables, aag, setup_times = setup(workload, args.seed, directory, references)
    if args.trace:
        metrics = run_traced(workload, tables, aag, args.seconds, args.seed, ledger, env)
        for name, value in shares(metrics).items():
            print(f"share {name} = {value:.3f}")
    else:
        measured = run_untraced(tables, aag, args.seconds, args.seed, ledger)
        f1 = f1_of(tables, aag, ledger) if all(t.labels for t in tables) else 0.0
        metrics = {
            "setup_s": statistics.median(setup_times),
            "train_s": measured["train_s"],
            "score_s": measured["score_s"],
            "classify_row_p50_us": measured["classify_row_p50_us"],
            "classify_row_p99_us": measured["classify_row_p99_us"],
            "model_bytes": measured["model_bytes"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "f1": f1,
        }
        print(f"workload {workload.name} seed {args.seed}: {workload.instances} table(s), "
              f"{measured['visits']} train+score visits, {measured['classify_calls']} classify calls "
              f"on {measured['classify_rows']} sample rows")
        if args.record and ledger.failed == 0:
            write_reference(workload, tables, f1)
            print(f"recorded {reference_path(workload).relative_to(ROOT)}")
    if all(t.labels for t in tables):
        reference = "checked against reference" if tables[0].reference else "no reference for this seed"
        print(f"output_digest {output_digest(tables)} ({reference})")
    for problem in ledger.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    for name, m in result.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # error_rate is 0 when all is well, so it travels as attempted/failed, not as a metric
    print(f"  error_rate = {ledger.failed / max(ledger.attempted, 1):.6g} "
          f"({ledger.failed} of {ledger.attempted} operations failed)")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": result}


def unit(name: str) -> str:
    """Unit of a metric; per-layer units follow from the name's suffix."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "1"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, so no peak memory carries over."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code |= not results[name]["correct"]
    print(json.dumps({"workloads": results}))
    return code


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"write the reference outputs (with --seed {REFERENCE_SEED} --trace 0)")
    args = parser.parse_args(argv)
    if args.record and (args.seed != REFERENCE_SEED or args.trace):
        parser.error(f"--record needs --seed {REFERENCE_SEED} --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aag" / "__init__.py").is_file():
        print(f"error: no aag package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
