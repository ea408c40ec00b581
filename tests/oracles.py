"""Brute-force reference implementations used only to check the library.

Everything here works over explicit contingency tables built with plain
dictionaries and math.log2, sharing no code path with the package. The
sort-path entropy is the exception: a chain of np.unique sorts and
np.log2 of each count, the bit-for-bit reference of the counting kernel.
So are the ``*_by`` measures: the subset-score formulas and the cap
fallback written as scalar loops over any entropy function, in the
package's operation order, the bit-for-bit reference of its score arrays.
The calibration reference uses numpy only to form the same BLAS sum
``weights @ votes`` that calibration is defined by. The CSV reference
reads rows with csv.reader and types each column in two passes: a parse
check of every present cell, then a float of every cell.
"""

import csv
import math
from itertools import combinations

import numpy as np


def row_tuples(table, attrs):
    codes = table.codes
    return [tuple(int(codes[r, a]) for a in attrs) for r in range(table.n_rows)]


def counts_of(table, attrs):
    out = {}
    for key in row_tuples(table, attrs):
        out[key] = out.get(key, 0) + 1
    return out


def entropy_of(table, attrs):
    n = table.n_rows
    return -sum((c / n) * math.log2(c / n) for c in counts_of(table, attrs).values())


def sort_path_entropy(table, attrs):
    """H(attrs) from np.unique's block counts, in lexicographic tuple
    order, and np.log2 of each count. Every column and every partial key
    is renumbered by a sort, so no key overflows."""
    key = np.zeros(table.n_rows, dtype=np.int64)
    for a in attrs:
        values, column = np.unique(table.codes[:, a], return_inverse=True)
        _, key = np.unique(key * values.size + column, return_inverse=True)
    _, counts = np.unique(key, return_counts=True)
    if counts.size == 1:
        return 0.0
    c = counts.astype(np.float64)
    return float(np.log2(table.n_rows) - np.dot(c, np.log2(c)) / table.n_rows)


def conditional_entropy_of(table, target, given):
    """Double-sum definition: -sum p(t, g) log2 p(t | g)."""
    n = table.n_rows
    joint = counts_of(table, tuple(target) + tuple(given))
    margin = counts_of(table, given)
    total = 0.0
    for key, c in joint.items():
        g = key[len(target):]
        total -= (c / n) * math.log2(c / margin[g])
    return total


def mutual_information_of(table, a, b):
    """Direct sum over the two-way contingency table."""
    n = table.n_rows
    joint = counts_of(table, tuple(a) + tuple(b))
    pa = counts_of(table, a)
    pb = counts_of(table, b)
    total = 0.0
    for key, c in joint.items():
        ka, kb = key[: len(a)], key[len(a):]
        total += (c / n) * math.log2(c * n / (pa[ka] * pb[kb]))
    return total


def interaction_information_of(table, attrs):
    x, y, z = attrs
    i_xy = mutual_information_of(table, (x,), (y,))
    # I(x;y|z) = H(x|z) - H(x|y,z)
    i_xy_given_z = conditional_entropy_of(table, (x,), (z,)) - conditional_entropy_of(
        table, (x,), (y, z)
    )
    return i_xy - i_xy_given_z


def multi_attribute_of(table, attrs):
    attrs = tuple(attrs)
    if len(attrs) == 2:
        return conditional_entropy_of(table, attrs[:1], attrs[1:]) + conditional_entropy_of(
            table, attrs[1:], attrs[:1]
        )
    total = sum(
        conditional_entropy_of(table, (a,), tuple(x for x in attrs if x != a)) for a in attrs
    )
    return total + interaction_information_of(table, attrs)


def total_correlation_of(table, attrs):
    return sum(entropy_of(table, (a,)) for a in attrs) - entropy_of(table, attrs)


def symmetric_uncertainty_of(table, a, b):
    ha = entropy_of(table, (a,))
    hb = entropy_of(table, (b,))
    if ha + hb == 0:
        return 0.0
    return 2.0 * mutual_information_of(table, (a,), (b,)) / (ha + hb)


def normalized_measure_of(table, a, b, cap=3):
    """Reference for the pair measure, including the subset fallback."""
    a, b = tuple(a), tuple(b)
    union = tuple(sorted(set(a) | set(b)))
    if len(union) <= cap:
        h = entropy_of(table, union)
        return 0.0 if h == 0 else multi_attribute_of(table, union) / h
    best = None
    for s in combinations(union, cap):
        if not (set(s) & set(a)) or not (set(s) & set(b)):
            continue
        h = entropy_of(table, s)
        if h == 0:
            continue
        value = multi_attribute_of(table, s) / h
        if best is None or value < best:
            best = value
    return 0.0 if best is None else best


def multi_attribute_by(h, attrs):
    """Exact m of a sorted pair or triple from the entropy function ``h``
    of sorted attribute tuples, as scalar Python in the library's
    operation order, so that with the library's entropy bits (e.g.
    ``sort_path_entropy``) it gives the library's bits."""
    if len(attrs) == 2:
        x, y = attrs
        return max(0.0, 2.0 * h(attrs) - h((x,)) - h((y,)))
    x, y, z = attrs
    total = 0.0
    for rest in ((y, z), (x, z), (x, y)):
        total += h(attrs) - h(rest)
    return total + (h((x,)) + h((y,)) + h((z,)) - h((x, y)) - h((x, z)) - h((y, z)) + h(attrs))


def normalized_measure_by(h, a, b, cap=3):
    """The pair measure over the entropy function ``h``, bit for bit: a
    loop over every cap-sized subset of the union, keeping the least
    m(S)/H(S) of those that touch both sides and carry information."""
    union = tuple(sorted(set(a) | set(b)))
    best = None
    for s in [union] if len(union) <= cap else combinations(union, cap):
        if set(s) & set(a) and set(s) & set(b) and h(s) != 0.0:
            value = multi_attribute_by(h, s) / h(s)
            if best is None or value < best:
                best = value
    return 0.0 if best is None else best


def group_rows_by_tuple(table, attrs):
    """Blocks of row indices keyed by exact tuple equality, in
    first-occurrence order."""
    blocks = {}
    for r, key in enumerate(row_tuples(table, attrs)):
        blocks.setdefault(key, []).append(r)
    return list(blocks.values())


def detector_cells_of(table, attrs, alpha):
    """Reference detector fit: (cell masses, accepted cells) by dict counting.

    Cells rank by descending count, ties by tuple order, and are taken
    until their count reaches (1 - alpha) of the rows.
    """
    n = table.n_rows
    counts = counts_of(table, attrs)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    needed = (1.0 - alpha) * n
    accepted, covered = set(), 0
    for key, c in ranked:
        if covered >= needed - 1e-9:
            break
        accepted.add(key)
        covered += c
    return {key: c / n for key, c in counts.items()}, accepted


def vote_of(detector, row):
    """1 if the row's projection on the detector's subspace is an accepted cell."""
    return 1 if tuple(int(row[a]) for a in detector.subspace) in detector.accepted_cells else 0


def score_of(detectors, weights, row):
    """Reference score: sum of weight * vote over the detectors, in their order."""
    return float(sum(w * vote_of(d, row) for w, d in zip(weights, detectors)))


def calibration_of(detectors, val_rows, alpha):
    """Reference (weights, rho): weights from each detector's validation
    acceptance rate, rho the alpha-cut of the BLAS sums weights @ votes."""
    votes = np.array([[vote_of(d, row) for row in val_rows] for d in detectors], dtype=np.float64)
    raw = 1.0 - (1.0 - votes.mean(axis=1))
    total = raw.sum()
    weights = np.full(len(detectors), 1.0 / len(detectors)) if total <= 0.0 else raw / total
    scores = np.sort(weights @ votes)
    return weights, float(scores[min(int(np.floor(alpha * scores.size)), scores.size - 1)])


def csv_columns_of(path, delimiter=",", missing_markers=("", "?"), header=True, kinds=None):
    """Reference CSV reading: the column names and one (kind, values) per column.

    Rows come from csv.reader over the file. A column is numeric iff it
    has a present cell and every present cell parses as a float; its
    values are floats with NaN for missing and non-finite cells.
    Otherwise it is categorical: the stripped text, None for missing. A
    file with no row, a repeated (stripped) name, a data row of another
    width or no data row raises ValueError with ``load_csv``'s message.

    ``kinds``, one per column, types the columns instead: a numeric column
    with a present cell that is not a number raises ValueError naming the
    first such cell of the first such column, as ``code_csv`` does.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = [h.strip() for h in rows[0]] if header else [f"c{i}" for i in range(len(rows[0]))]
    repeated = sorted(name for name in set(names) if names.count(name) > 1)
    if repeated:
        raise ValueError(f"{path}: duplicate column name {repeated[0]!r}")
    rows = rows[1:] if header else rows
    for i, row in enumerate(rows):
        if len(row) != len(names):
            line = i + (2 if header else 1)
            raise ValueError(f"{path}: row {line} has {len(row)} fields, expected {len(names)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    missing = set(missing_markers)

    def is_number(text):
        try:
            float(text)
        except ValueError:
            return False
        return True

    out = []
    for j in range(len(names)):
        cells = [row[j].strip() for row in rows]
        present = [c for c in cells if c not in missing]
        numbers = all(is_number(c) for c in present)
        if kinds is not None and kinds[j] == "numeric" and not numbers:
            i, cell = next((i, c) for i, c in enumerate(cells)
                           if c not in missing and not is_number(c))
            raise ValueError(f"column {names[j]!r}: expected numeric values, "
                             f"got {cell!r} in row {i + 2}")
        if (present and numbers) if kinds is None else kinds[j] == "numeric":
            values = np.array([math.nan if c in missing else float(c) for c in cells])
            values[~np.isfinite(values)] = math.nan
            out.append(("numeric", values))
        else:
            out.append(("categorical", np.array([None if c in missing else c for c in cells],
                                                dtype=object)))
    return names, out
