"""Benchmark split generators, F1 scoring, and the subspace stability index."""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import GenerationError, UndefinedStabilityError
from .grouping import SubspaceSet, jaccard
from .preprocess import NUMERIC, RawColumn, RawTable


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fn + self.fp
        return 2 * self.tp / denom if denom > 0 else 0.0

    def to_json_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn, "f1": self.f1}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def csv_line(self) -> str:
        return f"{self.tp},{self.fp},{self.fn},{self.tn},{self.f1:.6f}"


def f1_score(labels, predictions) -> EvalReport:
    """Confusion counts and F1 with anomaly (1) as the positive class."""
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: {y.shape} labels vs {p.shape} predictions")
    return EvalReport(
        tp=int(np.sum((y == 1) & (p == 1))),
        fp=int(np.sum((y == 0) & (p == 1))),
        fn=int(np.sum((y == 1) & (p == 0))),
        tn=int(np.sum((y == 0) & (p == 0))),
    )


@dataclass
class BenchmarkSplit:
    train: RawTable
    test: RawTable
    test_labels: np.ndarray  # 1 = anomaly
    provenance: dict

    def save(self, directory) -> None:
        """Write train.csv, test.csv, labels.csv and provenance.json into
        ``directory``. The provenance gains ``column_kinds``, each train
        column's kind by name, so ``load_csv(path, kinds=...)`` reads a
        column back as its kind even when its symbols all read as numbers."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        _write_raw_csv(self.train, directory / "train.csv")
        _write_raw_csv(self.test, directory / "test.csv")
        lines = ["row_index,label"]
        lines += [f"{i},{'anomaly' if v else 'normal'}" for i, v in enumerate(self.test_labels)]
        (directory / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (directory / "provenance.json").write_text(
            json.dumps({**self.provenance,
                        "column_kinds": {c.name: c.kind for c in self.train.columns}},
                       indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _format_cell(column: RawColumn, value) -> str:
    if column.kind == NUMERIC:
        return "" if np.isnan(value) else repr(float(value))
    return "" if value is None else str(value)


def _write_raw_csv(table: RawTable, path) -> None:
    """Write ``table`` as CSV, quoting only the cells that need it.

    ``csv`` quotes a cell holding a line break only if its line terminator
    holds that character, so a table with a carriage return in a cell ends
    its lines with ``"\\r\\n"``; any other ends them with ``"\\n"``.
    """
    rows = [table.names]
    rows += ([_format_cell(c, c.values[i]) for c in table.columns] for i in range(table.n_rows))
    terminator = "\r\n" if any("\r" in cell for row in rows for cell in row) else "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator=terminator).writerows(rows)


def _majority_mask(column: RawColumn) -> tuple[object, np.ndarray]:
    """The column's most frequent present value (first occurrence wins
    ties) and the mask of its rows. A value is present unless it is None
    or NaN."""
    counts = Counter(v for v in column.values if v is not None and v == v)
    if not counts:
        raise GenerationError("class column has no usable values")
    majority = max(counts, key=counts.__getitem__)
    return majority, column.values == majority


def _split_majority(rows: np.ndarray, seed) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """The seeded generator, after it shuffled ``rows``, and the shuffled
    rows cut 70/30 into training and held-out rows."""
    if rows.size < 10:
        raise GenerationError(f"majority class has only {rows.size} rows")
    rng = np.random.default_rng(seed)
    perm = rows[rng.permutation(rows.size)]
    n_train = int(round(0.7 * perm.size))
    return rng, perm[:n_train], perm[n_train:]


def _class_of(data: RawTable, class_column) -> RawColumn:
    """The class column, or a GenerationError naming it if the data has no such column."""
    try:
        return data.column(class_column)
    except (KeyError, IndexError):
        raise GenerationError(f"no class column {class_column!r} in the data") from None


def generate_setting1(
    data: RawTable,
    class_column,
    fraction_perturbed: float,
    seed,
) -> BenchmarkSplit:
    """Gaussian-noise anomaly benchmark.

    70% of the majority-class rows train; the rest splits in half into
    clean test normals and rows perturbed by zero-mean Gaussian noise on
    K = max(1, round(fraction * p)) randomly chosen numeric attributes,
    with per-attribute variance equal to that attribute's sample variance
    over the majority class. Noise lands in the raw value domain, before
    any discretization.
    """
    if not 0.0 < fraction_perturbed <= 1.0:
        raise GenerationError("fraction_perturbed must be in (0, 1]")
    majority, mask = _majority_mask(_class_of(data, class_column))
    rows = np.flatnonzero(mask)
    rng, train_rows, rest = _split_majority(rows, seed)
    features = data.drop_column(class_column)
    numeric_idx = [j for j, c in enumerate(features.columns) if c.kind == NUMERIC]
    if not numeric_idx:
        raise GenerationError("no numeric attributes available to perturb")

    # at least 10 rows hold out at least 3, so at least one is an anomaly
    n_anom = rest.size // 2
    normal_rows = rest[: rest.size - n_anom]
    anomaly_rows = rest[rest.size - n_anom:]

    p = features.n_attrs
    k_requested = max(1, int(round(fraction_perturbed * p)))
    clamped = k_requested > len(numeric_idx)
    k = min(k_requested, len(numeric_idx))
    chosen = sorted(int(j) for j in rng.choice(numeric_idx, size=k, replace=False))

    majority_features = features.take_rows(rows)
    train = features.take_rows(train_rows)
    normal_test = features.take_rows(normal_rows)
    noisy_test = features.take_rows(anomaly_rows)
    for j in chosen:
        base = majority_features.columns[j].values
        variance = float(np.nanvar(base, ddof=1))
        col = noisy_test.columns[j]
        present = ~np.isnan(col.values)
        noise = rng.normal(0.0, np.sqrt(variance), size=int(present.sum()))
        values = col.values.copy()
        values[present] = values[present] + noise
        noisy_test.columns[j] = RawColumn(col.name, col.kind, values)

    test = RawTable([
        RawColumn(c.name, c.kind, np.concatenate([c.values, noisy_test.columns[j].values]))
        for j, c in enumerate(normal_test.columns)
    ])
    labels = np.concatenate([
        np.zeros(normal_test.n_rows, dtype=np.int64),
        np.ones(noisy_test.n_rows, dtype=np.int64),
    ])
    provenance = {
        "setting": 1,
        "seed": int(np.asarray(seed).item()) if np.isscalar(seed) else seed,
        "fraction_perturbed": fraction_perturbed,
        "perturbed_attrs": [features.names[j] for j in chosen],
        "k_requested": k_requested,
        "k_clamped": clamped,
        "majority_class": str(majority),
        "n_train": int(train.n_rows),
        "n_test_normal": int(normal_test.n_rows),
        "n_test_anomaly": int(noisy_test.n_rows),
    }
    return BenchmarkSplit(train=train, test=test, test_labels=labels, provenance=provenance)


def generate_setting3(
    data: RawTable,
    class_column,
    minority_fraction: float = 0.1,
    seed=0,
) -> BenchmarkSplit:
    """Novelty benchmark: held-out minority classes as anomalies.

    70% of the majority class trains; the remaining 30% are the normal
    test rows; a seeded sample of the pooled non-majority rows joins the
    test set as novelties.
    """
    if not 0.0 < minority_fraction <= 1.0:
        raise GenerationError("minority_fraction must be in (0, 1]")
    majority, mask = _majority_mask(_class_of(data, class_column))
    minority_rows = np.flatnonzero(~mask)
    if minority_rows.size == 0:
        raise GenerationError("data has a single class; no novelties available")
    rng, train_rows, normal_rows = _split_majority(np.flatnonzero(mask), seed)
    features = data.drop_column(class_column)

    n_novel = int(round(minority_fraction * minority_rows.size))
    n_novel = max(1, n_novel)
    novel_rows = np.sort(minority_rows[rng.permutation(minority_rows.size)[:n_novel]])

    train = features.take_rows(train_rows)
    test = features.take_rows(np.concatenate([normal_rows, novel_rows]))
    labels = np.concatenate([
        np.zeros(normal_rows.size, dtype=np.int64),
        np.ones(novel_rows.size, dtype=np.int64),
    ])
    provenance = {
        "setting": 3,
        "seed": int(np.asarray(seed).item()) if np.isscalar(seed) else seed,
        "minority_fraction": minority_fraction,
        "majority_class": str(majority),
        "n_train": int(train.n_rows),
        "n_test_normal": int(normal_rows.size),
        "n_test_anomaly": int(novel_rows.size),
    }
    return BenchmarkSplit(train=train, test=test, test_labels=labels, provenance=provenance)


@dataclass
class StabilityReport:
    per_size: dict[int, float]
    excluded_sizes: list[int]
    si: float
    run_count: int

    def to_json_dict(self) -> dict:
        return {
            "si": self.si,
            "run_count": self.run_count,
            "per_size": {str(k): v for k, v in sorted(self.per_size.items())},
            "excluded_sizes": sorted(self.excluded_sizes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def csv_line(self) -> str:
        return f"{self.run_count},{self.si:.6f}"


def stability_index(runs: list[SubspaceSet]) -> StabilityReport:
    """Mean pairwise Jaccard similarity of equal-sized subspaces pooled
    across repeated runs; 1.0 means every run found the same subspaces.

    Size groups with a single member have no pairs and are excluded from
    the average (they are listed in the report instead).
    """
    if len(runs) < 2:
        raise ValueError("stability needs at least two runs")
    pooled: list[tuple[int, ...]] = []
    for run in runs:
        pooled.extend(run.attr_sets())
    groups: dict[int, list[tuple[int, ...]]] = {}
    for attrs in pooled:
        groups.setdefault(len(attrs), []).append(attrs)
    per_size: dict[int, float] = {}
    excluded: list[int] = []
    for size, members in sorted(groups.items()):
        if len(members) < 2:
            excluded.append(size)
            continue
        total = 0.0
        for a, b in combinations(members, 2):
            total += jaccard(a, b)
        per_size[size] = total / (len(members) * (len(members) - 1) // 2)
    if not per_size:
        raise UndefinedStabilityError("no subspace size group has two members")
    si = sum(per_size.values()) / len(per_size)
    return StabilityReport(per_size=per_size, excluded_sizes=excluded, si=si,
                           run_count=len(runs))
