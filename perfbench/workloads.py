"""Seeded planted-group tables for the benchmark workloads.

The model matches the one the test suite uses for grouped data but is
owned here, so editing a test cannot change a workload: one standard
normal latent per 4-attribute group, attribute k of a group is
(1 + 0.5k) * latent + N(0, 0.35^2). In a seeded 10 % of the score rows
one or two attributes of one group are overwritten with the same
column's value from another score row. Every value still looks plausible
on its own; only the relation inside the group breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GROUP_SIZE = 4
NOISE = 0.35
BINS = 10
ANOMALY_SHARE = 0.10
CHUNK_ROWS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    train_rows: int
    score_rows: int
    groups: int
    # independent tables per run; their mean hides how far one table's
    # search path swings with the seed
    instances: int = 1
    # the last attribute of the first `categorical` groups is written as one
    # of five symbols
    categorical: int = 0
    missing_share: float = 0.0
    unseen_share: float = 0.0

    @property
    def attrs(self) -> int:
        return self.groups * GROUP_SIZE


WORKLOADS = {
    w.name: w
    for w in (
        # 40 attributes on few rows: the information-measure search is most
        # of train time and scoring is cheap. One wide table's search cost
        # swings by 2x with the seed, so a run trains 16 of them.
        Workload("wide-search", train_rows=1_000, score_rows=1_000, groups=10, instances=16),
        # small models scoring 100 000 rows in all, with missing markers and
        # unseen symbols: CSV parsing, imputation, model load and scoring;
        # their train time is mostly detector fit and model serialization
        Workload("score-batch", train_rows=5_000, score_rows=25_000, groups=4, instances=4,
                 categorical=4, missing_share=0.01, unseen_share=0.005),
    )
}


@dataclass
class Inputs:
    """Generated score labels (1 = planted anomaly) beside the two CSVs."""

    train_csv: Path
    score_csv: Path
    labels: np.ndarray


def _numeric_columns(rng, workload: Workload, n_rows: int) -> np.ndarray:
    cols = np.empty((workload.attrs, n_rows), dtype=np.float64)
    for g in range(workload.groups):
        latent = rng.normal(size=n_rows)
        for k in range(GROUP_SIZE):
            cols[g * GROUP_SIZE + k] = (1.0 + 0.5 * k) * latent + rng.normal(scale=NOISE, size=n_rows)
    return cols


def _plant_anomalies(rng, workload: Workload, score: np.ndarray) -> np.ndarray:
    n = score.shape[1]
    labels = np.zeros(n, dtype=np.int64)
    rows = np.sort(rng.choice(n, size=int(round(ANOMALY_SHARE * n)), replace=False))
    original = score.copy()
    for r in rows:
        group = int(rng.integers(workload.groups))
        attrs = rng.choice(GROUP_SIZE, size=int(rng.integers(1, 3)), replace=False)
        for k in attrs:
            donor = int(rng.integers(n - 1))
            donor += donor >= r  # any row but r itself
            col = group * GROUP_SIZE + int(k)
            score[col, r] = original[col, donor]
        labels[r] = 1
    return labels


# quintiles of the last group attribute, (1 + 1.5) * N(0, 1) + N(0, NOISE^2),
# so the five symbols are about equally common
SYMBOL_CUTS = np.array([-0.8416212335729143, -0.2533471031357997,
                        0.2533471031357997, 0.8416212335729143]) * np.hypot(2.5, NOISE)


def _cells(workload: Workload, cols: np.ndarray) -> list[list[str]]:
    """Per-column CSV text cells; categorical columns become symbols."""
    out = [[f"{v:.6f}" for v in col] for col in cols]
    for g in range(workload.categorical):
        j = g * GROUP_SIZE + GROUP_SIZE - 1
        codes = np.searchsorted(SYMBOL_CUTS, cols[j])
        out[j] = [f"s{c}" for c in codes]
    return out


def _damage(rng, workload: Workload, cells: list[list[str]]) -> None:
    """Missing markers in every column, unseen symbols in categorical ones."""
    n = len(cells[0])
    if workload.missing_share:
        for col in cells:
            for r in np.flatnonzero(rng.random(n) < workload.missing_share):
                col[r] = "?" if rng.random() < 0.5 else ""
    for g in range(workload.categorical):
        col = cells[g * GROUP_SIZE + GROUP_SIZE - 1]
        for r in np.flatnonzero(rng.random(n) < workload.unseen_share):
            if col[r] not in ("", "?"):
                col[r] = f"new{int(rng.integers(3))}"


def _write_csv(path: Path, workload: Workload, cols: np.ndarray, rng=None) -> None:
    header = ",".join(f"a{j}" for j in range(workload.attrs))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, cols.shape[1], CHUNK_ROWS):
            cells = _cells(workload, cols[:, start:start + CHUNK_ROWS])
            if rng is not None:
                _damage(rng, workload, cells)
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def generate(workload: Workload, seed: int, instance: int, directory: Path) -> Inputs:
    """Write train.csv and score.csv of one of the workload's tables into ``directory``.

    The same seed and instance give byte-identical files and labels.
    """
    rng = np.random.default_rng([seed, instance])
    cols = _numeric_columns(rng, workload, workload.train_rows + workload.score_rows)
    train, score = cols[:, :workload.train_rows], cols[:, workload.train_rows:].copy()
    labels = _plant_anomalies(rng, workload, score)
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory / "train.csv", directory / "score.csv", labels)
    _write_csv(inputs.train_csv, workload, train)
    _write_csv(inputs.score_csv, workload, score, rng)
    return inputs
