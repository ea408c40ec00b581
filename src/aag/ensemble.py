"""Per-subspace density detectors and their weighted-vote ensemble.

Each detector accepts exactly the smallest set of training cells whose
empirical mass reaches 1 - alpha; anything outside, including cells never
seen in training, is rejected. Detector votes are weighted by validation
accuracy. The decision threshold is the largest cut that keeps the
validation false-positive rate within alpha for the BLAS sum
``weights @ votes`` it is cut from. Scoring adds the weights in detector
order, which can differ from that sum in the last bit, so validation rows
scored as ``classify_table`` scores them can exceed the cut; they do on 6
of the 20 seed-0 benchmark tables.

A detector is its training counts, held as immutable int64 arrays: its
cells, of shape [k, width], ranked by descending count, ties in joint-key
order (``table._joint_key``, which sorts as the code tuples do); their
counts; and the accepted cells, the first rows of the ranked cells. A
cell's mass is ``count / fit_rows``. One rule, ``_checked``, says which
arrays are a detector. The constructor and the model reader build a
detector through it; only ``fit_detector``, whose arrays are ranked
counts by construction, builds one unchecked. The constructor takes a
``cell_mass`` dict, an ``accepted_cells`` set and ``fit_rows``, reads the
counts from the masses, and also requires the accepted cells to be the
ranked prefix and the counts to sum to ``fit_rows``. The public
``cell_mass`` (a read-only mapping) and ``accepted_cells`` (a frozenset)
are views, built from the arrays when first read and kept; neither can
be assigned or changed.

Scoring contract: a row's score is the sum of the weights of the
detectors that accept it, added one at a time in detector order starting
from 0.0. Two kernels compute that same sum. The row kernel, ``_vote``,
scores the one row of a one-row call (``classify``,
``EnsembleModel.score``, ``detector_predict``): it reads the row as int64
codes, checks its width and turns it into a list, and each voting
detector reads its cell from that list with a getter
(``operator.itemgetter`` over its subspace) and looks it up in its
``accepted_cells``, taken once per model. The table kernel,
``_column_vote``, serves ``classify_table``: it takes one detector at a
time, keys its accepted cells and the rows together (``_hits``) and adds
its weight to every accepting row at once. Calibration takes each
detector's 0/1 validation votes from the same ``_hits``. A detector of
weight 0.0 casts no vote in either kernel: adding 0.0 to a score that
starts at +0.0 never changes it, so its cells are never looked up. The
threshold rho is cut from ``weights @ votes`` over the validation rows,
a BLAS sum that can differ from the detector-order sum in the last bit.

Models are immutable once fitted; scoring is reentrant and safe to call
from multiple threads.

``model.json`` is one line of compact JSON with sorted keys: ``to_json``
writes the document ``to_json_dict`` describes, byte for byte as
``json.dumps(doc, separators=(",", ":"), sort_keys=True)`` would. Each
detector is written in the count layout, its arrays as they are: the
cells' codes row by row in one flat list, their counts, and the length
of the accepted prefix. Its masses are read back as ``count /
sum(counts)``, the division ``fit_detector`` makes, so they are the same
floats. The reader turns each entry's ``cells`` and ``counts`` into int64
once (``_int64``), checks them by the detector rule and raises its error
as a SchemaError naming the detector. It also refuses an entry of the
explicit layout (``[cell, mass]`` pairs and a list of accepted cells),
which versions before the count layout wrote and which is to be
retrained. Earlier indented files of the count layout load. The
document holds the flat ``cells`` and ``counts`` as int64 arrays, which
``to_json`` renders as decimal text in numpy (``_decimal``) and
``to_json_dict`` lists; every other value goes through ``json``.

``from_json`` reads a file exactly as ``from_json_dict(json.loads(text))``
does (the same model, or the same exception and message) but parses
those arrays in numpy. It lifts each ``"cells":[...]`` and
``"counts":[...]`` of digits and commas out of the text, leaving a
placeholder string; decodes the small remainder with ``json``; parses
the lifted items as int64 (``_integers``); and puts each array back at
its placeholder. The whole text goes through ``json`` instead when an
item is empty, has a leading zero or more than 18 digits, when the text
holds the placeholder's escape ``\\u0000``, when a placeholder is not a
detector entry's own ``cells`` or ``counts`` field, and when the
remainder is not JSON (so the error gives the line and column in the
file).
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

import numpy as np

from .errors import SchemaError
from .preprocess import PreprocessModel, _is_finite_number
from .table import _KEYS_PER_ROW, _MAX_KEYS, DiscreteTable, _joint_key, validate_attrs

NORMAL = "normal"
ANOMALY = "anomaly"

# the largest code a model file may hold: rows hold int64 codes
_MAX_CODE = int(np.iinfo(np.int64).max)
# a detector's counts sum to fit_rows below this, which float64 holds exactly
_MAX_EXACT = 2**53
_INTEGER = (int, np.integer)


@dataclass(frozen=True, init=False, eq=False)
class SubspaceDetector:
    """One subspace's training cells with their counts, and the accepted ones.

    ``SubspaceDetector(subspace, cell_mass, accepted_cells, alpha,
    fit_rows)`` turns a dict of masses and a set of accepted cells, each
    cell a tuple of codes, into the arrays the module docstring
    describes. It raises ValueError on what no model file can hold: an
    empty subspace or a negative attribute, a cell not of the subspace's
    width, a code that is not an integer in [0, 2^63) (``True`` is not
    one), masses that are not ``count / fit_rows`` for counts of at least
    1, accepted cells that are not the cells of the highest counts, ties
    in tuple order, counts the detector rule refuses, or counts that do
    not sum to ``fit_rows``.
    """

    subspace: tuple[int, ...]
    alpha: float
    fit_rows: int  # the rows it was fitted on; each mass is count / fit_rows
    # int64 [k, width], ranked by descending count, ties in joint-key (tuple) order
    _cells: np.ndarray = field(repr=False)
    _counts: np.ndarray = field(repr=False)  # int64 [k]
    _accepted: np.ndarray = field(repr=False)  # int64 [a, width]: the first a rows of _cells

    def __init__(self, subspace, cell_mass, accepted_cells, alpha: float, fit_rows: int):
        subspace = tuple(subspace)
        if not subspace or not _only(subspace, *_INTEGER) or min(subspace) < 0:
            raise ValueError("subspace must be a non-empty tuple of attribute indices")
        cells = _code_array(list(cell_mass), len(subspace))
        accepted = _code_array(list(set(accepted_cells)), len(subspace))
        counts = _counts_of(list(cell_mass.values()), fit_rows)
        rank = np.lexsort((_cell_keys(cells), -counts))  # the last key sorts first
        cells, counts, k = cells[rank], counts[rank], len(accepted)
        if set(map(tuple, cells[:k].tolist())) != set(map(tuple, accepted.tolist())):
            raise ValueError("the accepted cells must be the cells of the highest counts, "
                             "ties in tuple order")
        # the fields are set once, here: the dataclass is frozen
        self.__dict__.update(vars(_checked(subspace, alpha, cells, counts, k)))
        if self.fit_rows != fit_rows:
            raise ValueError("the counts of the cell masses must sum to fit_rows")

    @classmethod
    def _of_ranked(cls, subspace: tuple[int, ...], alpha: float, fit_rows: int,
                   cells: np.ndarray, counts: np.ndarray, k: int) -> "SubspaceDetector":
        """A detector of cells in rank, with their counts, which sum to
        ``fit_rows``, and the length of the accepted prefix; unchecked."""
        d = cls.__new__(cls)
        d.__dict__.update(subspace=subspace, alpha=alpha, fit_rows=fit_rows, _cells=cells,
                          _counts=counts, _accepted=cells[:k])
        return d

    @cached_property
    def cell_mass(self) -> MappingProxyType:
        """Each cell's training mass, keyed by the cell's tuple of codes; read-only."""
        # Python's int / int: the floats fit_detector's counts stand for
        masses = [c / self.fit_rows for c in self._counts.tolist()]
        return MappingProxyType(dict(zip(map(tuple, self._cells.tolist()), masses)))

    @cached_property
    def accepted_cells(self) -> frozenset:
        """The accepted cells' tuples of codes."""
        return frozenset(map(tuple, self._accepted.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SubspaceDetector):
            return NotImplemented
        return ((self.subspace, self.alpha, self.fit_rows)
                == (other.subspace, other.alpha, other.fit_rows)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("_cells", "_counts", "_accepted")))


def _code_array(cells: list, width: int) -> np.ndarray:
    """Cells, each a tuple of ``width`` integer codes in [0, 2^63), as int64 rows."""
    if not all(isinstance(cell, tuple) and len(cell) == width for cell in cells):
        raise ValueError(f"every cell must be a tuple of {width} codes")
    flat = list(chain.from_iterable(cells))
    if flat and not (_only(flat, *_INTEGER) and 0 <= min(flat) and max(flat) <= _MAX_CODE):
        raise ValueError("every code must be an integer in [0, 2^63)")
    return np.array(flat, dtype=np.int64).reshape(len(cells), width)


def _exact_sum(counts: np.ndarray) -> int | None:
    """The sum of int64 counts of at least 1, or None if it reaches 2^53:
    a count of 2^53 or more reaches it alone, and with each count below
    2^53 the running sum passes 2^53 before it could wrap int64."""
    if not counts.size:
        return 0
    running = np.cumsum(counts)
    return int(running[-1]) if max(counts.max(), running.max()) < _MAX_EXACT else None


def _counts_of(masses: list, n) -> np.ndarray:
    """The int64 counts whose masses ``count / n`` are ``masses``, for
    ``n`` an int in [0, 2^53); ValueError if there are none."""
    bad = ValueError("every cell mass must be count / fit_rows for an integer count of "
                     "at least 1 and an integer fit_rows in [0, 2^53)")
    if not (_only([n], *_INTEGER) and _only(masses, int, float, np.integer, np.floating)):
        raise bad
    try:
        masses = np.array(masses, dtype=np.float64)
    except OverflowError:  # an int too large for a float
        raise bad from None
    if not 0 <= n < _MAX_EXACT or not ((0 < masses) & (masses <= 1)).all():
        raise bad
    counts = np.rint(masses * n)
    if not (counts >= 1).all():
        raise bad
    # int64 / int divides as Python's int / int does below 2^53: the masses fit_detector made
    counts = counts.astype(np.int64)
    if not np.array_equal(counts / n, masses):
        raise bad
    return counts


def _checked(subspace: tuple[int, ...], alpha: float, cells: np.ndarray, counts: np.ndarray,
             k: int) -> SubspaceDetector:
    """The detector of int64 ``cells`` (``len(subspace)`` codes for each
    count, row by row), int64 ``counts`` and ``k`` accepted cells. It
    raises ValueError naming the field at the first check that fails, in
    this order: the counts are at least 1 and sum to below 2^53; the cells
    hold their codes, each >= 0; ``0 <= k <= len(counts)``; no cell is
    listed twice; the cells are ranked by descending count, ties in
    joint-key order; each count is read back from its mass."""
    m, width = len(counts), len(subspace)
    if m and counts.min() < 1:
        raise ValueError("field 'counts' must hold integers of at least 1")
    n = _exact_sum(counts)
    if n is None:
        raise ValueError("field 'counts' must sum to below 2^53")
    if cells.size != width * m or (cells.size and cells.min() < 0):
        raise ValueError(f"field 'cells' must hold {width} codes in [0, 2^63) "
                         f"for each of the {m} counts")
    if not 0 <= k <= m:
        raise ValueError(f"field 'accepted' must be a number of cells in [0, {m}]")
    cells = cells.reshape(m, width)
    key = _cell_keys(cells)
    in_order = np.sort(key)
    if (in_order[1:] == in_order[:-1]).any():
        raise ValueError("field 'cells' lists a cell twice")
    step = counts[1:] - counts[:-1]
    if not ((step <= 0) & ((step < 0) | (key[1:] > key[:-1]))).all():
        raise ValueError("field 'cells' must be ranked by descending count, ties in tuple order")
    # the counts the constructor reads back from their masses
    if not np.array_equal(np.rint(counts / n * n), counts):
        raise ValueError(f"field 'counts' holds a count that its mass count / {n} "
                         "does not give back")
    return SubspaceDetector._of_ranked(subspace, alpha, n, cells, counts, k)


def _cell_keys(codes: np.ndarray) -> np.ndarray:
    """The joint key of each row of codes: keys sort as the rows do, and
    are equal exactly when the rows are. They index no table, so only a
    multiply that could overflow renumbers them."""
    if not codes.size:
        return np.zeros(len(codes), dtype=np.int64)
    columns = codes.T
    arities = [m + 1 for m in columns.max(axis=1).tolist()]
    return _joint_key(columns, arities, range(len(columns)), _MAX_KEYS)[0]


def fit_detector(train: DiscreteTable, subspace, alpha: float) -> SubspaceDetector:
    """Build the minimum-volume cell set for one subspace.

    Cells are counted by ``np.unique`` over the exact joint key of the
    subspace (``table._joint_key``, renumbered only where a multiply could
    pass 2^62) and read from their first rows, in tuple order.
    They are ranked by descending training mass (ties by tuple order)
    and accumulated until the mass reaches 1 - alpha; that prefix is the
    smallest acceptance region with type-I error at most alpha on the
    training distribution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    subspace = validate_attrs(train, subspace)
    n = train.n_rows
    key, _ = _joint_key(train.codes.T, train.arities, subspace, _MAX_KEYS)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    # keys sort as the cells do, so a stable sort on -count ranks ties in tuple order
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    covered_before = np.cumsum(counts) - counts
    n_accepted = int(np.count_nonzero(covered_before < (1.0 - alpha) * n - 1e-9))
    cells = train.codes[first[order][:, None], subspace]
    return SubspaceDetector._of_ranked(subspace, alpha, n, cells, counts, n_accepted)


def _cell_getter(subspace) -> Callable[[list], tuple]:
    """The function that reads a detector's cell, a tuple, from a row's list of codes."""
    if len(subspace) == 1:
        (a,) = subspace
        return lambda row: (row[a],)  # itemgetter(a) would return the bare code
    return itemgetter(*subspace)


@dataclass(frozen=True)
class _Layout:
    """How each voting detector reads its cell from a row's list of codes."""

    parts: tuple[tuple[Callable, frozenset, float], ...]  # (cell getter, accepted cells, weight)
    width: int  # codes a row needs

    @classmethod
    def of(cls, detectors, weights) -> "_Layout":
        # a weight of 0.0 casts no vote
        parts = tuple((_cell_getter(d.subspace), d.accepted_cells, float(w))
                      for d, w in zip(detectors, weights) if w != 0.0)
        return cls(parts, _width(detectors))


def _width(detectors) -> int:
    """Codes a row needs: one past the largest attribute of any detector, voting or not."""
    return max(max(d.subspace) for d in detectors) + 1


def _check_width(codes: np.ndarray, width: int) -> None:
    if codes.shape[-1] < width:
        raise SchemaError(f"row has {codes.shape[-1]} codes, model needs at least {width}")


def _vote(layout: _Layout, row) -> float:
    """Score one row: the weights of the accepting detectors added in
    detector order, starting from 0.0. The row's codes are read as int64."""
    codes = np.asarray(row, dtype=np.int64).ravel()
    _check_width(codes, layout.width)
    row = codes.tolist()
    s = 0.0
    for cell_of, cells, w in layout.parts:
        if cell_of(row) in cells:
            s += w
    return s


def _hits(cells: np.ndarray, by_attr: np.ndarray, subspace) -> np.ndarray:
    """Whether each row's cell of ``subspace`` is one of ``cells`` (int64
    rows of codes >= 0); ``by_attr[a]`` holds attribute ``a`` of every row.

    The cells' codes are stacked above the rows' subspace columns, column
    by column, and keyed together by ``table._joint_key``, which renumbers
    rather than overflow or alias, so a row and a cell share a key exactly
    when their codes are equal. The cells' keys are marked in a boolean
    table of the key space, and a row hits when its key is marked.
    """
    k = len(cells)
    columns = [np.concatenate([cells[:, j], by_attr[a]]) for j, a in enumerate(subspace)]
    arities = [int(column.max()) + 1 for column in columns]
    key, size = _joint_key(columns, arities, range(len(columns)),
                           _KEYS_PER_ROW * (k + by_attr.shape[1]))
    hit = np.zeros(size, dtype=bool)
    hit[key[:k]] = True
    return hit[key[k:]]


def _column_vote(detectors, weights, codes: np.ndarray) -> np.ndarray:
    """Score every row of a 2-D code array, one detector at a time.

    Each voting detector adds its weight to the rows that hit its accepted
    cells (``_hits``), so each row adds the weights of the accepting
    detectors in detector order, starting from 0.0: the sums of ``_vote``,
    bit for bit.
    """
    _check_width(codes, _width(detectors))
    by_attr = np.ascontiguousarray(codes.T)  # one copy, not a strided gather per detector
    scores = np.zeros(codes.shape[0])
    for d, w in zip(detectors, weights):
        if w != 0.0:
            scores[_hits(d._accepted, by_attr, d.subspace)] += w
    return scores


def detector_predict(detector: SubspaceDetector, row) -> int:
    """1 if the row's projection falls in the accepted region, else 0."""
    return int(_vote(_Layout.of([detector], [1.0]), row))


def _require(doc, name: str, kind, where: str):
    """doc[name], or a SchemaError naming the field if it is missing or not of ``kind``."""
    if not isinstance(doc, dict) or name not in doc:
        raise SchemaError(f"{where} has no field '{name}'")
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {list: "a list", int: "an integer"}.get(kind, "a number")
        raise SchemaError(f"{where} field '{name}' must be {what}")
    return value


def _only(values, *types) -> bool:
    """Whether every value is an instance of ``types``, and none a bool."""
    return all(t is not bool and issubclass(t, types) for t in set(map(type, values)))


def _finite(value, what: str) -> float:
    """A number read from a model file as a float, or a SchemaError naming ``what``."""
    if not _is_finite_number(value):
        raise SchemaError(f"{what} must be finite")
    return float(value)


def _int64(d: dict, name: str, over: int, where: str) -> np.ndarray:
    """A detector entry's ``cells`` or ``counts`` as int64, for the
    detector rule to check: a 1-D int64 array (as ``from_json`` lifts it)
    as it is, or a list in which an item that is not an int (``True`` is
    not one) or is negative reads as -1, and an int above int64 as
    ``over``."""
    values = d.get(name)
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        return values
    values = _require(d, name, list, where)
    if _only(values, int):
        try:
            return np.fromiter(values, np.int64, len(values))
        except OverflowError:
            pass
    return np.array([-1 if not _only([v], int) or v < 0 else over if v > _MAX_CODE else v
                     for v in values], dtype=np.int64)


def _detector_from_json(d, i: int, alpha: float) -> SubspaceDetector:
    """One detector entry of a model file, checked by the detector rule."""
    where = f"model detector {i}"
    attrs = _require(d, "attrs", list, where)
    if not attrs or not _only(attrs, int) or min(attrs) < 0:
        raise SchemaError(f"{where} field 'attrs' must be a non-empty list of attribute indices")
    if "counts" not in d and type(d.get("accepted")) is list:
        raise SchemaError(f"{where} is in the explicit layout of [cell, mass] pairs, which "
                          "this version no longer reads; retrain the model with 'aag train'")
    # a code above int64 is refused as a negative one; a count, as one of 2^53 or more
    cells = _int64(d, "cells", -1, where)
    counts = _int64(d, "counts", _MAX_CODE, where)
    k = _require(d, "accepted", int, where)
    try:
        return _checked(tuple(attrs), alpha, cells, counts, k)
    except ValueError as exc:
        raise SchemaError(f"{where} {exc}") from None


def _plain(value):
    """A numpy scalar as the Python int or float it holds, which ``json``
    writes; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _entry(d: SubspaceDetector) -> dict:
    """The detector in the count layout, its arrays as they are."""
    return {"attrs": list(map(_plain, d.subspace)), "cells": d._cells.ravel(),
            "counts": d._counts, "accepted": len(d._accepted)}


def _decimal(a: np.ndarray) -> str:
    """Int64 values >= 0 as comma-joined decimal text, ``",".join(map(str,
    a.tolist()))``: a digit matrix as wide as the largest value, a comma
    column, and a mask that drops the leading zeros."""
    if not a.size:
        return ""
    width = len(str(int(a.max())))  # 10**width could pass int64; no power used here does
    text = np.empty((a.size, width + 1), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    text[:, width] = ord(",")
    for j in range(width):
        power = 10 ** (width - 1 - j)
        text[:, j] = a // power % 10 + ord("0")
        if power > 1:  # a value's last digit is kept, even a lone zero
            keep[:, j] = a >= power
    return text[keep][:-1].tobytes().decode("ascii")


_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _object(parts: dict) -> str:
    """A JSON object of string keys and values already written, keys in sorted order."""
    return "{" + ",".join(f"{_ENCODE(k)}:{v}" for k, v in sorted(parts.items())) + "}"


def _render(doc: dict) -> str:
    """A model document as ``json.dumps(doc, separators=(",", ":"),
    sort_keys=True)`` writes it once its int64 arrays are lists: the arrays
    of the detector entries go through ``_decimal``, every other value
    (``preprocess`` too) through ``json``."""
    parts = {k: _ENCODE(v) for k, v in doc.items() if k != "detectors"}
    parts["detectors"] = "[" + ",".join(
        _object({k: f"[{_decimal(v)}]" if isinstance(v, np.ndarray) else _ENCODE(v)
                 for k, v in entry.items()})
        for entry in doc["detectors"]) + "]"
    return _object(parts)


# A count-layout array as _render writes it, digits and commas only; the
# reader lifts it out of the text and leaves a placeholder string, a NUL
# and the array's index. A model file can write a NUL only as this escape,
# so where it does not occur, every NUL the remainder decodes is a placeholder.
_LIFTED = re.compile(r'"(cells|counts)":\[([0-9,]*)\]')
_HOLE = "\\u0000"
# the most digits a lifted item may have: 10^18 - 1 is below 2^63
_DIGITS = 18
# the text one parsing pass takes, unless one array is longer
_PARSE_CHARS = 1 << 16


def _lift(text) -> tuple[str, list[str]] | None:
    """The text with each count-layout array replaced by its placeholder,
    and the arrays' bodies; None if the text is not a str or holds the
    placeholder's escape, so that a placeholder could be mistaken."""
    if not isinstance(text, str) or _HOLE in text:
        return None
    bodies = []

    def hole(m) -> str:
        bodies.append(m[2])
        return f'"{m[1]}":"{_HOLE}{len(bodies) - 1}"'
    return _LIFTED.sub(hole, text), bodies


def _integers(bodies: list[str]) -> list[np.ndarray] | None:
    """Each body's comma-separated decimal items as int64, or None if an
    item is empty, has a leading zero or more than ``_DIGITS`` digits: the
    whole text then goes through ``json``. Runs of bodies of up to
    ``_PARSE_CHARS`` characters are parsed together, so the temporaries
    stay small beside the arrays they make."""
    arrays, start = [], 0
    while start < len(bodies):
        stop, size = start + 1, len(bodies[start])
        while stop < len(bodies) and size + len(bodies[stop]) <= _PARSE_CHARS:
            size += len(bodies[stop])
            stop += 1
        parsed = _parsed(bodies[start:stop])
        if parsed is None:
            return None
        arrays += parsed
        start = stop
    return arrays


def _parsed(bodies: list[str]) -> list[np.ndarray] | None:
    """``_integers`` of one run of bodies, the inverse of ``_decimal``:
    every item's last digit, then, place by place, the digits of the items
    that reach that place times its power of ten."""
    # every item ends at a comma, the last one too
    text = np.frombuffer(",".join([*filter(None, bodies), ""]).encode("ascii"), dtype=np.uint8)
    values = np.zeros(0, dtype=np.int64)
    if text.size:
        ends = np.flatnonzero(text == ord(","))
        widths = np.diff(ends, prepend=-1) - 1
        digits = text - np.uint8(ord("0"))
        values = digits.take(ends - 1).astype(np.int64)
        wide = np.flatnonzero(widths > 1)  # most codes and counts are one digit
        if widths.min() < 1 or wide.size and (
                widths.max() > _DIGITS or not digits.take(ends[wide] - widths[wide]).all()):
            return None
        for place in range(1, int(widths.max())):
            wide = wide[widths[wide] > place]
            values[wide] += digits.take(ends[wide] - 1 - place).astype(np.int64) * 10**place
    stops = np.cumsum([body.count(",") + 1 if body else 0 for body in bodies]).tolist()
    return [values[start:stop] for start, stop in zip([0, *stops], stops)]


def _put_back(doc, arrays: list[np.ndarray]) -> bool:
    """Puts each lifted int64 array back where its placeholder was
    decoded. True if every placeholder was a detector entry's own 'cells'
    or 'counts' field."""
    if not arrays:
        return True
    entries = doc.get("detectors") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        return False
    found = 0
    for d in entries:
        if not isinstance(d, dict):
            continue
        for name in ("cells", "counts"):
            value = d.get(name)
            if type(value) is str and value.startswith("\0"):
                d[name] = arrays[int(value[1:])]
                found += 1
    # each placeholder is decoded at most once, so all were put back
    return found == len(arrays)


@dataclass
class EnsembleModel:
    detectors: list[SubspaceDetector]
    weights: np.ndarray
    rho: float
    alpha: float
    preprocess: PreprocessModel | None = None

    def __post_init__(self):
        if not self.detectors:
            raise ValueError("a model needs at least one detector")
        if np.shape(self.weights) != (len(self.detectors),):
            raise ValueError(f"weights of shape {np.shape(self.weights)} "
                             f"for {len(self.detectors)} detectors")

    @cached_property
    def _layout(self) -> _Layout:
        """Built on the first score and kept; detectors and weights must not change after."""
        return _Layout.of(self.detectors, self.weights)

    def score(self, row) -> float:
        return _vote(self._layout, row)

    def _document(self) -> dict:
        """The model document, each detector's ``cells`` and ``counts`` as int64 arrays."""
        doc = {
            "alpha": _plain(self.alpha),
            "rho": _plain(self.rho),
            "weights": [float(w) for w in self.weights],
            "detectors": [_entry(d) for d in self.detectors],
        }
        if self.preprocess is not None:
            doc["preprocess"] = self.preprocess.to_json_dict()
        return doc

    def to_json_dict(self) -> dict:
        """The model document, each detector in the count layout."""
        doc = self._document()
        for entry in doc["detectors"]:
            entry["cells"], entry["counts"] = entry["cells"].tolist(), entry["counts"].tolist()
        return doc

    def to_json(self) -> str:
        """``model.json``: ``json.dumps(self.to_json_dict(), separators=(",", ":"),
        sort_keys=True) + "\\n"``, byte for byte, its ``cells`` and
        ``counts`` lists written from the arrays."""
        return _render(self._document()) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EnsembleModel":
        """Read a model document; a missing or ill-typed field raises
        SchemaError naming it. A detector entry's ``cells`` and ``counts``
        are lists or 1-D int64 arrays."""
        entries = _require(doc, "detectors", list, "model")
        weights = _require(doc, "weights", list, "model")
        rho = _finite(_require(doc, "rho", (int, float), "model"), "model field 'rho'")
        alpha = _finite(_require(doc, "alpha", (int, float), "model"), "model field 'alpha'")
        if not entries:
            raise SchemaError("model field 'detectors' must not be empty")
        if len(weights) != len(entries):
            raise SchemaError(f"model field 'weights' has {len(weights)} entries "
                              f"for {len(entries)} detectors")
        if not _only(weights, int, float):
            raise SchemaError("model field 'weights' must hold numbers")
        weights = [_finite(w, "model field 'weights' entries") for w in weights]
        detectors = [_detector_from_json(d, i, alpha) for i, d in enumerate(entries)]
        pp = None
        if "preprocess" in doc:
            try:
                pp = PreprocessModel.from_json_dict(doc["preprocess"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"model field 'preprocess' is malformed: {exc!r}") from exc
        return cls(
            detectors=detectors,
            weights=np.asarray(weights, dtype=np.float64),
            rho=rho,
            alpha=alpha,
            preprocess=pp,
        )

    @classmethod
    def from_json(cls, text: str) -> "EnsembleModel":
        """Read ``model.json``: as ``from_json_dict(json.loads(text))`` reads
        it, with the count layout's arrays parsed in numpy."""
        lifted = _lift(text)
        if lifted is not None and (arrays := _integers(lifted[1])) is not None:
            try:
                doc = json.loads(lifted[0])
            except json.JSONDecodeError:
                doc = None  # decoded again whole below, for the error's place
            if doc is not None and _put_back(doc, arrays):
                return cls.from_json_dict(doc)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"model file is not JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def split_indices(n_rows: int, val_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle split into (fit, validation) row indices."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    n_val = int(round(n_rows * val_fraction))
    n_val = min(max(n_val, 1), n_rows - 1)
    return perm[n_val:], perm[:n_val]


def fit_ensemble(
    train: DiscreteTable,
    subspaces,
    alpha: float = 0.05,
    val_fraction: float = 0.3,
    seed=0,
    preprocess: PreprocessModel | None = None,
) -> EnsembleModel:
    """Fit one detector per subspace and calibrate weights and threshold.

    The training rows are split by a seeded shuffle. Detectors fit on the
    fit part; each detector's validation error (fraction of held-out
    normals it rejects) turns into a weight proportional to 1 - error.
    The threshold rho is the largest value that keeps the fraction of
    validation rows scoring below it within alpha, i.e. the empirical
    alpha-quantile of validation scores taken from below, where a
    validation score is the BLAS sum ``weights @ votes``. ``classify`` and
    ``classify_table`` add the weights in detector order instead, so rows
    scored by them can fall below rho where their BLAS sum did not, and
    the fraction below can exceed alpha.
    """
    attr_sets = [validate_attrs(train, s) for s in subspaces]
    if not attr_sets:
        raise ValueError("no subspaces given")
    if train.n_rows < 10:
        raise ValueError("need at least 10 training rows")
    # with n >= 10 rows, split_indices leaves each part at least one
    fit_idx, val_idx = split_indices(train.n_rows, val_fraction, seed)
    fit_part = train.take_rows(fit_idx)
    val_by_attr = np.ascontiguousarray(train.codes[val_idx].T)

    detectors = [fit_detector(fit_part, attrs, alpha) for attrs in attr_sets]
    # each detector's 0/1 vote on every validation row, from the table kernel's hit table
    votes = np.array([_hits(d._accepted, val_by_attr, d.subspace) for d in detectors],
                     dtype=np.float64)
    errors = 1.0 - votes.mean(axis=1)
    raw = 1.0 - errors
    total = raw.sum()
    if total <= 0.0:
        weights = np.full(len(detectors), 1.0 / len(detectors))
    else:
        weights = raw / total

    scores = weights @ votes
    order = np.sort(scores)
    cut = int(np.floor(alpha * scores.size))
    rho = float(order[min(cut, scores.size - 1)])
    return EnsembleModel(detectors=detectors, weights=weights, rho=rho, alpha=alpha,
                         preprocess=preprocess)


def classify(model: EnsembleModel, row) -> tuple[float, str]:
    """Weighted vote for one coded row: (score, "normal" | "anomaly")."""
    score = model.score(row)
    return score, (NORMAL if score >= model.rho else ANOMALY)


def classify_table(model: EnsembleModel, table: DiscreteTable) -> tuple[np.ndarray, list[str]]:
    """Score every row of a coded table."""
    scores = _column_vote(model.detectors, model.weights, table.codes)
    rho = model.rho
    return scores, [NORMAL if s >= rho else ANOMALY for s in scores.tolist()]
