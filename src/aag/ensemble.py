"""Per-subspace density detectors and their weighted-vote ensemble.

Each detector accepts exactly the smallest set of training cells whose
empirical mass reaches 1 - alpha; anything outside, including cells never
seen in training, is rejected. Detector votes are weighted by validation
accuracy and the decision threshold is the largest cut that keeps the
validation false-positive rate within alpha.

In memory, a detector that ``fit_detector`` or the model reader builds
holds the model file's count layout: its cells as an int64 array of
shape [k, width], ranked by descending training count (ties in tuple
order), their counts as int64, and the length of the accepted prefix.
The public ``cell_mass`` dict and ``accepted_cells`` set are views, built
from the arrays when first read. The rule has one bit: the arrays hold
the detector until a view is read or a field assigned; after that, and
for a detector built through the constructor, the dict and the set hold
it, so cells added to them vote and are written. One-row calls do not
read the views: they look cells up in a tuple set of the accepted prefix,
built once and kept beside the arrays, which the ``accepted_cells`` view
then adopts as it is, so a cell added to the view votes in both kernels.

Scoring contract: a row's score is the sum of the weights of the
detectors that accept it, added one at a time in detector order starting
from 0.0. Two kernels compute that same sum. The row kernel, ``_vote``,
scores the one row of a one-row call (``classify``,
``EnsembleModel.score``, ``detector_predict``): it reads the row as int64
codes, checks its width and turns it into a list, and each voting
detector reads its cell from that list with a getter
(``operator.itemgetter`` over its subspace) and looks it up in its
accepted tuple set, taken once per model. The table kernel,
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
``json.dumps(doc, separators=(",", ":"), sort_keys=True)`` would. A
detector its arrays hold is written in the count layout, the arrays as
they are: the cells' codes row by row in one flat list, their counts,
and the length of the accepted prefix. Its masses are read back as
``count / sum(counts)``, the division ``fit_detector`` makes, so they are
the same floats. A detector the dict and set hold is written in the
count layout when they fit it, and otherwise (built through the API or
edited after the fit) in the explicit layout, ``[cell, mass]`` pairs and
the list of accepted cells, which is also how earlier versions wrote
every detector; both layouts and earlier indented files load. The
document holds the count layout's flat ``cells`` and ``counts`` as int64
arrays, which ``to_json`` renders as decimal text in numpy
(``_decimal``) and ``to_json_dict`` lists; every other value goes through
``json``.
"""

from __future__ import annotations

import json
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import SchemaError
from .preprocess import PreprocessModel, _is_finite_number
from .table import _KEYS_PER_ROW, DiscreteTable, _joint_key, validate_attrs

NORMAL = "normal"
ANOMALY = "anomaly"

# the largest code a model file may hold: rows hold int64 codes
_MAX_CODE = int(np.iinfo(np.int64).max)
# the count layout holds fit row counts below this, which float64 holds exactly
_MAX_EXACT = 2**53


_TO_VIEWS = threading.Lock()


class _Ranked(NamedTuple):
    """A detector's cells in the model file's count layout."""

    cells: np.ndarray  # int64 [k, width], codes >= 0, by descending count, ties in tuple order
    counts: np.ndarray  # int64, each at least 1, summing to below 2^53
    n_accepted: int  # the length of the accepted prefix


@dataclass
class SubspaceDetector:
    """One subspace's cells with their training masses, and the accepted ones.

    ``fit_detector`` and the model reader build it from ``_Ranked`` arrays,
    over which ``cell_mass`` and ``accepted_cells`` are views; the module
    docstring gives the rule.
    """

    subspace: tuple[int, ...]
    cell_mass: dict[tuple[int, ...], float]
    accepted_cells: set[tuple[int, ...]]
    alpha: float
    fit_rows: int | None = None  # the rows it was fitted on; each mass is count / fit_rows

    _ranked = None  # the arrays while they hold the detector (not a field)
    _accepted = None  # their accepted prefix as a tuple set, once a one-row call needs it

    @classmethod
    def _of_ranked(cls, subspace: tuple[int, ...], alpha: float, ranked: _Ranked):
        d = cls.__new__(cls)
        d.__dict__.update(subspace=subspace, alpha=alpha, fit_rows=int(ranked.counts.sum()),
                          _ranked=ranked)
        return d

    def _to_views(self) -> None:
        with _TO_VIEWS:  # threads scoring one model reach here together; one builds the views
            if self._ranked is None:
                return
            cells, counts, k = self._ranked
            keys = list(map(tuple, cells.tolist()))
            n = self.fit_rows
            # the set one-row layouts already hold becomes the view, so edits to it vote there
            accepted = self.__dict__.pop("_accepted", None)
            self.__dict__.update(cell_mass=dict(zip(keys, [c / n for c in counts.tolist()])),
                                 accepted_cells=set(keys[:k]) if accepted is None else accepted,
                                 _ranked=None)

    def _accepted_set(self) -> set:
        """The accepted cells as a set of tuples, without handing the
        detector to its views: the view once built, else a set built once
        from the arrays' accepted prefix and kept beside them."""
        with _TO_VIEWS:
            ranked = self._ranked
            if ranked is None:
                return self.__dict__["accepted_cells"]
            if self._accepted is None:
                cells = ranked.cells[:ranked.n_accepted].tolist()
                self.__dict__["_accepted"] = set(map(tuple, cells))
            return self._accepted

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a view not built yet
        if self._ranked is not None and name in ("cell_mass", "accepted_cells"):
            self._to_views()
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __setattr__(self, name, value):
        if self._ranked is not None:
            self._to_views()
        object.__setattr__(self, name, value)


def fit_detector(train: DiscreteTable, subspace, alpha: float) -> SubspaceDetector:
    """Build the minimum-volume cell set for one subspace.

    Cells are counted by ``np.unique`` over the joint key of the subspace
    (``table._joint_key``) and read from their first rows, in tuple order.
    They are ranked by descending training mass (ties by tuple order)
    and accumulated until the mass reaches 1 - alpha; that prefix is the
    smallest acceptance region with type-I error at most alpha on the
    training distribution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    subspace = validate_attrs(train, subspace)
    n = train.n_rows
    key, _ = _joint_key(train.codes.T, train.arities, subspace, _KEYS_PER_ROW * n)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    # keys sort as the cells do, so a stable sort on -count ranks ties in tuple order
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    covered_before = np.cumsum(counts) - counts
    n_accepted = int(np.count_nonzero(covered_before < (1.0 - alpha) * n - 1e-9))
    cells = train.codes[first[order][:, None], subspace]
    return SubspaceDetector._of_ranked(subspace, alpha, _Ranked(cells, counts, n_accepted))


def _cell_getter(subspace) -> Callable[[list], tuple]:
    """The function that reads a detector's cell, a tuple, from a row's list of codes."""
    if len(subspace) == 1:
        (a,) = subspace
        return lambda row: (row[a],)  # itemgetter(a) would return the bare code
    return itemgetter(*subspace)


@dataclass(frozen=True)
class _Layout:
    """How each voting detector reads its cell from a row's list of codes."""

    parts: tuple[tuple[Callable, set, float], ...]  # (cell getter, accepted cells, weight)
    width: int  # codes a row needs

    @classmethod
    def of(cls, detectors, weights) -> "_Layout":
        # the set the detector's view holds or will adopt, so cells added to
        # it later still vote; a weight of 0.0 casts no vote
        parts = tuple((_cell_getter(d.subspace), d._accepted_set(), float(w))
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


def _accepted_codes(d: SubspaceDetector) -> np.ndarray:
    """A detector's accepted cells as int64 rows of codes: the arrays'
    accepted prefix, or else the live set's cells, read on every call. A
    cell holding a negative code or one past int64 matches no row and is
    left out."""
    ranked = d._ranked
    if ranked is not None:
        return ranked.cells[:ranked.n_accepted]
    try:
        flat = np.fromiter(chain.from_iterable(d.accepted_cells), np.int64)
    except OverflowError:  # a code outside int64, which no row holds
        held = [c for c in d.accepted_cells if 0 <= min(c) and max(c) <= _MAX_CODE]
        flat = np.fromiter(chain.from_iterable(held), np.int64)
    cells = flat.reshape(-1, len(d.subspace))
    return cells[(cells >= 0).all(axis=1)]  # no row holds a negative code


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
        if w == 0.0:
            continue
        cells = _accepted_codes(d)
        if len(cells):
            scores[_hits(cells, by_attr, d.subspace)] += w
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
    return set(map(type, values)) <= set(types)


def _finite(value, what: str) -> float:
    """A number read from a model file as a float, or a SchemaError naming ``what``."""
    if not _is_finite_number(value):
        raise SchemaError(f"{what} must be finite")
    return float(value)


def _code_row(row, width: int, what: str) -> tuple[int, ...]:
    """One cell of a model file as a tuple, checked to hold ``width`` int64 codes >= 0."""
    if type(row) is not list or len(row) != width:
        raise SchemaError(f"{what} must hold lists of {width} codes")
    for code in row:
        if type(code) is not int or not 0 <= code <= _MAX_CODE:
            raise SchemaError(f"{what} must hold lists of {width} codes")
    return tuple(row)


def _counted_detector(d, attrs: tuple[int, ...], alpha: float, where: str) -> SubspaceDetector:
    """A count-layout detector, held by its arrays when the writer would
    write them back as read (ranked, counts summing to below 2^53);
    otherwise by the dict and set, each mass ``count / sum(counts)``."""
    width = len(attrs)
    cells = _require(d, "cells", list, where)
    counts = _require(d, "counts", list, where)
    k = _require(d, "accepted", int, where)
    if not _only(counts, int) or (counts and min(counts) < 1):
        raise SchemaError(f"{where} field 'counts' must hold integers of at least 1")
    bad_cells = SchemaError(f"{where} field 'cells' must hold {width} codes in [0, 2^63) "
                            f"for each of the {len(counts)} counts")
    if len(cells) != width * len(counts) or not _only(cells, int):
        raise bad_cells
    try:
        codes = np.fromiter(cells, np.int64, len(cells)).reshape(len(counts), width)
    except OverflowError:  # a code outside int64
        raise bad_cells from None
    if codes.size and codes.min() < 0:
        raise bad_cells
    if not 0 <= k <= len(counts):
        raise SchemaError(f"{where} field 'accepted' must be a number of cells "
                          f"in [0, {len(counts)}]")
    key = _cell_keys(codes)
    if np.unique(key).size < len(key):
        raise SchemaError(f"{where} field 'cells' lists a cell twice")
    n = sum(counts)
    if 0 < n < _MAX_EXACT:
        ranked = _Ranked(codes, np.array(counts, dtype=np.int64), k)
        if _writes_back(ranked.counts, key, n):
            return SubspaceDetector._of_ranked(attrs, alpha, ranked)
    keys = list(zip(*[iter(cells)] * width))  # the flat codes, width at a time
    return SubspaceDetector(attrs, dict(zip(keys, [c / n for c in counts])), set(keys[:k]),
                            alpha, n)


# a cell key's budget: keys and arities below it multiply without overflow
_CELL_KEYS = 2**31


def _cell_keys(codes: np.ndarray) -> np.ndarray:
    """The joint key of each row of codes: keys sort as the rows do, and
    are equal exactly when the rows are."""
    if not codes.size:
        return np.zeros(len(codes), dtype=np.int64)
    columns = codes.T
    arities = [m + 1 for m in columns.max(axis=1).tolist()]
    return _joint_key(columns, arities, range(len(columns)), _CELL_KEYS)[0]


def _writes_back(counts: np.ndarray, key: np.ndarray, n: int) -> bool:
    """Whether the count layout holds cells of these counts and keys in
    their order: by descending count, ties in increasing tuple order, each
    count read back from its mass ``count / n`` (``_count_layout``)."""
    step = np.diff(counts)
    return bool((step <= 0).all() and ((step < 0) | (np.diff(key) > 0)).all()
                and np.array_equal(np.rint(counts / n * n), counts))


def _listed_cells(d, width: int, where: str):
    """The cells of an explicit-layout detector: (cell_mass, accepted_cells)."""
    cells = _require(d, "cells", list, where)
    accepted = _require(d, "accepted", list, where)
    in_cells, in_accepted = f"{where} field 'cells'", f"{where} field 'accepted'"
    cell_mass = {}
    try:
        for cell in cells:
            if type(cell) is not list or len(cell) != 2:
                raise SchemaError(f"{in_cells} must hold [cell, mass] pairs")
            key, mass = cell
            if type(mass) is not float and type(mass) is not int:
                raise SchemaError(f"{in_cells} must hold numeric masses")
            cell_mass[_code_row(key, width, in_cells)] = float(mass)
        # checked in one pass: a call per cell slows a model read by about 5 %
        finite = all(map(math.isfinite, cell_mass.values()))
    except OverflowError:  # an int mass too large for a float
        finite = False
    if not finite:
        raise SchemaError(f"{in_cells} must hold finite masses")
    if len(cell_mass) != len(cells):
        raise SchemaError(f"{in_cells} lists a cell twice")
    accepted_cells = {_code_row(key, width, in_accepted) for key in accepted}
    if len(accepted_cells) != len(accepted):
        raise SchemaError(f"{in_accepted} lists a cell twice")
    return cell_mass, accepted_cells


def _detector_from_json(d, i: int, alpha: float) -> SubspaceDetector:
    """One detector of a model file in either layout, its cells checked in one pass each."""
    where = f"model detector {i}"
    attrs = _require(d, "attrs", list, where)
    if not attrs or not _only(attrs, int) or min(attrs) < 0:
        raise SchemaError(f"{where} field 'attrs' must be a non-empty list of attribute indices")
    # 'counts' or an int 'accepted' marks the count layout, so a count-layout
    # detector missing either field is refused naming it
    if "counts" in d or type(d.get("accepted")) is int:
        return _counted_detector(d, tuple(attrs), alpha, where)
    cell_mass, accepted_cells = _listed_cells(d, len(attrs), where)
    return SubspaceDetector(tuple(attrs), cell_mass, accepted_cells, alpha)


def _count_layout(d: SubspaceDetector) -> dict | None:
    """The detector in the count layout, or None when its live cells do not fit it.

    They fit when every mass is ``count / fit_rows`` for an int count of at
    least 1, the counts sum to ``fit_rows``, every code is an int in
    [0, 2^63), and the accepted cells are the prefix of the cells ranked by
    descending count, ties in tuple order.
    """
    n = d.fit_rows
    keys = list(d.cell_mass)
    width = len(d.subspace)
    if n is None or not 0 < n < _MAX_EXACT or set(map(len, keys)) - {width}:
        return None
    # numpy reads a list as int64 only when every code is an int within int64
    codes = np.array(list(chain.from_iterable(keys)))
    masses = np.array(list(d.cell_mass.values()))
    if codes.dtype != np.int64 or masses.dtype != np.float64 or (codes < 0).any():
        return None
    counts = np.rint(masses * n)
    if not ((1 <= counts) & (counts <= n)).all():
        return None
    # int64 / int divides as Python's int / int does below 2^53: the masses fit_detector made
    counts = counts.astype(np.int64)
    if counts.sum() != n or not np.array_equal(counts / n, masses):
        return None
    codes = codes.reshape(-1, width)
    order = np.lexsort((*codes.T[::-1], -counts))  # the last key sorts first
    k = len(d.accepted_cells)
    if k > len(keys) or not all(map(d.accepted_cells.__contains__,
                                    map(keys.__getitem__, order[:k].tolist()))):
        return None
    return {"attrs": _plain_list(d.subspace), "cells": codes[order].ravel(),
            "counts": counts[order], "accepted": k}


def _ranked_layout(d: SubspaceDetector) -> dict:
    """The count layout of a detector its arrays hold: the arrays as they are."""
    cells, counts, k = d._ranked
    return {"attrs": list(d.subspace), "cells": cells.ravel(), "counts": counts, "accepted": k}


def _plain(value):
    """A numpy scalar as the Python int or float it holds, which ``json``
    writes; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _plain_list(values) -> list:
    return list(map(_plain, values))


def _explicit_layout(d: SubspaceDetector) -> dict:
    """The detector as ``[cell, mass]`` pairs and its accepted cells, each in tuple order."""
    return {
        "attrs": _plain_list(d.subspace),
        "cells": [[_plain_list(key), _plain(mass)] for key, mass in sorted(d.cell_mass.items())],
        "accepted": [_plain_list(key) for key in sorted(d.accepted_cells)],
    }


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
    (``preprocess`` and explicit layouts too) through ``json``."""
    parts = {k: _ENCODE(v) for k, v in doc.items() if k != "detectors"}
    parts["detectors"] = "[" + ",".join(
        _object({k: f"[{_decimal(v)}]" if isinstance(v, np.ndarray) else _ENCODE(v)
                 for k, v in entry.items()})
        for entry in doc["detectors"]) + "]"
    return _object(parts)


@dataclass
class EnsembleModel:
    detectors: list[SubspaceDetector]
    weights: np.ndarray
    rho: float
    alpha: float
    preprocess: PreprocessModel | None = None

    @cached_property
    def _layout(self) -> _Layout:
        """Built on the first score and kept; detectors and weights must not change after."""
        return _Layout.of(self.detectors, self.weights)

    def score(self, row) -> float:
        return _vote(self._layout, row)

    def _document(self) -> dict:
        """The model document, each detector in the count layout when its
        cells fit it, that layout's ``cells`` and ``counts`` as int64 arrays."""
        doc = {
            "alpha": _plain(self.alpha),
            "rho": _plain(self.rho),
            "weights": [float(w) for w in self.weights],
            "detectors": [_ranked_layout(d) if d._ranked is not None
                          else _count_layout(d) or _explicit_layout(d) for d in self.detectors],
        }
        if self.preprocess is not None:
            doc["preprocess"] = self.preprocess.to_json_dict()
        return doc

    def to_json_dict(self) -> dict:
        """The model document; each detector in the count layout when its cells fit it."""
        doc = self._document()
        for entry in doc["detectors"]:
            if "counts" in entry:
                entry["cells"], entry["counts"] = entry["cells"].tolist(), entry["counts"].tolist()
        return doc

    def to_json(self) -> str:
        """``model.json``: ``json.dumps(self.to_json_dict(), separators=(",", ":"),
        sort_keys=True) + "\\n"``, byte for byte, its count-layout lists
        written from the arrays."""
        return _render(self._document()) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EnsembleModel":
        """Read a model document; a missing or ill-typed field raises SchemaError naming it."""
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
    alpha-quantile of validation scores taken from below.
    """
    attr_sets = [validate_attrs(train, s) for s in subspaces]
    if not attr_sets:
        raise ValueError("no subspaces given")
    if train.n_rows < 10:
        raise ValueError("need at least 10 training rows")
    fit_idx, val_idx = split_indices(train.n_rows, val_fraction, seed)
    if fit_idx.size == 0 or val_idx.size == 0:
        raise ValueError("split left an empty part")
    fit_part = train.take_rows(fit_idx)
    val_by_attr = np.ascontiguousarray(train.codes[val_idx].T)

    detectors = [fit_detector(fit_part, attrs, alpha) for attrs in attr_sets]
    # each detector's 0/1 vote on every validation row, from the table kernel's hit table
    votes = np.zeros((len(detectors), val_idx.size))
    for vote, d in zip(votes, detectors):
        cells = _accepted_codes(d)
        if len(cells):
            vote[_hits(cells, val_by_attr, d.subspace)] = 1.0
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
