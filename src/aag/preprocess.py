"""CSV ingestion, type inference, imputation, equal-frequency discretization.

A fitted preprocessor carries only training statistics (means, bin edges,
symbol dictionaries), so applying it to new data never peeks at that
data's distribution. Numeric columns are binned by equal-frequency cut
points placed midway between adjacent distinct training values; repeated
values never straddle an edge, so a value always maps to one code.

``load_csv`` reads the text once and gives the cells ``csv.reader``
gives. A file with no quote or NUL, no ``\\r`` but in a ``\\r\\n`` and
no line past ``csv.field_size_limit()`` is split at newlines (each
``\\r\\n`` read as ``\\n``), and its body's lines, a block at a time, at
the delimiter into one list of fields; column j is every n-th field
from field j. Any other file goes through
``csv.reader``. Both feed one typing step, which parses a column's raw
cells as floats in one pass (``float`` ignores the whitespace
``str.strip`` removes) and strips cells only where that pass cannot
decide: a categorical column, or a cell that is not a number as it
stands.

``code_csv`` reads a file to apply a fitted model to, the same way, but
codes it straight into the model's codes, 2 048 rows at a time: each
block's fields are split, parsed as their model column's kind and
coded, then freed. So a file split at newlines never has all of its
fields held at once; a file that goes through ``csv.reader`` has all of
its rows held, as ``csv.reader`` gives them, while it is coded.
``apply_preprocessor`` codes typed columns by the same rules.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import ParseError, SchemaError, UnusableColumnError
from .table import DiscreteTable

DEFAULT_MISSING = ("", "?")

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass
class RawColumn:
    name: str
    kind: str
    # numeric: float values with NaN for missing
    # categorical: object array of str, None for missing
    values: np.ndarray


@dataclass
class RawTable:
    columns: list[RawColumn]

    @property
    def n_rows(self) -> int:
        return int(self.columns[0].values.shape[0]) if self.columns else 0

    @property
    def n_attrs(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name_or_index) -> RawColumn:
        if isinstance(name_or_index, str):
            for c in self.columns:
                if c.name == name_or_index:
                    return c
            raise KeyError(f"no column named {name_or_index!r}")
        return self.columns[int(name_or_index)]

    def take_rows(self, rows) -> "RawTable":
        idx = np.asarray(rows, dtype=np.intp)
        return RawTable([RawColumn(c.name, c.kind, c.values[idx]) for c in self.columns])

    def drop_column(self, name_or_index) -> "RawTable":
        target = self.column(name_or_index)
        return RawTable([c for c in self.columns if c is not target])


def load_csv(
    path,
    delimiter: str = ",",
    missing_markers=DEFAULT_MISSING,
    header: bool = True,
    kinds: dict[str, str] | None = None,
) -> RawTable:
    """Read a UTF-8 CSV file (a byte-order mark is dropped) into typed columns.

    A column is numeric iff every non-missing cell parses as a real
    number; otherwise it is categorical. ``kinds`` maps column names to
    ``"numeric"`` or ``"categorical"`` and types those columns as told,
    as ``code_csv`` types a file's columns by its model: a column told
    numeric with a present cell that is not a number raises ParseError
    naming the first such cell. Missing markers (defaults: empty
    cell and "?") become NaN / None. In a numeric column the non-finite
    numbers (``inf``, ``-inf``, ``nan``, or a value too large for a float)
    count as missing too, so they are imputed with the training mean; in
    a categorical column they are ordinary symbols. Header names must be
    distinct: a repeated name raises ParseError, as does a blank first
    line (no column names), a file that is not UTF-8 or one ``csv``
    refuses (a field past its size limit). A name in ``kinds`` that the
    file lacks raises SchemaError.
    """
    kinds = kinds or {}
    if set(kinds.values()) - {NUMERIC, CATEGORICAL}:
        raise ValueError(f"a column kind is {NUMERIC!r} or {CATEGORICAL!r}")
    names, data, fields = _read_rows(path, delimiter, header)
    absent = [name for name in kinds if name not in names]
    if absent:
        raise SchemaError(f"{path}: no column {absent[0]!r}")
    missing, as_nan = _missing(missing_markers)
    columns = []
    for name, cells in zip(names, _strided(data, fields, len(names))):
        column = _typed_column(name, cells, missing, as_nan, kinds.get(name))
        if column is None:
            row, cell = _first_non_number(cells, missing)
            raise ParseError(_not_numeric(name, cell, row + (2 if header else 1)))
        columns.append(column)
    return RawTable(columns)


def code_csv(
    model: PreprocessModel,
    path,
    delimiter: str = ",",
    missing_markers=DEFAULT_MISSING,
) -> DiscreteTable:
    """Read a CSV file with a header, as ``load_csv`` does, straight into
    a fitted ``model``'s codes: what ``apply_preprocessor`` gives for the
    file's columns, each read as its model column's kind.

    A numeric column's cells are read as numbers, and missing and
    non-finite ones take the training mean; a categorical column's
    stripped cells are its symbols, and missing ones take the mode. So a
    column's kind never depends on which symbols one file happens to
    hold. The names and every row's width are checked first; then the body
    is coded ``_BLOCK_LINES`` rows at a time, so no typed column is made,
    nor, for a file split at newlines, a list of all the file's fields (a
    file read by ``csv.reader`` is held as its rows meanwhile). Raises
    SchemaError when the columns' number or names differ from the model's,
    or naming the first cell, in column order and then row order, of a
    numeric column that is neither missing nor a number.
    """
    names, data, fields = _read_rows(path, delimiter, True)
    _check_names(model, names)
    missing, as_nan = _missing(missing_markers)
    coders = [_number_coder(cm, missing, as_nan) if cm.kind == NUMERIC
              else _SymbolCoder(cm, missing).codes for cm in model.columns]
    n_cols = len(coders)
    # attribute-major, so the table kernel reads each attribute's codes without a copy
    codes = np.empty((n_cols, len(data)), dtype=np.int64)
    for start in range(0, len(data), _BLOCK_LINES):
        flat = fields(data[start:start + _BLOCK_LINES])
        for j, code in enumerate(coders):
            column = code(flat[j::n_cols])
            if column is None:
                raise _bad_cell(model, data, fields, missing)
            codes[j, start:start + len(column)] = column
    return DiscreteTable(codes.T, symbol_names=list(map(_symbol_names, model.columns)))


def _read_rows(path, delimiter: str, header: bool):
    """The file's column names, its data rows, and the function that
    splits a list of rows into one list of their fields; ParseError for a
    file no table can come from.

    The rows are the file's plain lines (``_plain_lines``) or else the
    rows ``csv.reader`` reads; each row has one field per name.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
    lines = _plain_lines(text, delimiter)
    del text
    if lines is None:
        rows = _reader_rows(path, delimiter)
        names = _names(path, rows[0] if rows else None, header)
        data = rows[1:] if header else rows
        _check_widths(path, map(len, data), len(names), header)

        def fields(rows: list[list[str]]) -> list[str]:
            return list(chain.from_iterable(rows))
    else:
        names = _names(path, _fields(lines[0], delimiter) if lines else None, header)
        data = lines[1:] if header else lines
        del lines
        n_cols = len(names)
        if set(map(str.count, data, repeat(delimiter))) - {n_cols - 1} or "" in data:
            # some line has not n_cols fields; an empty one has none
            _check_widths(path, (len(_fields(line, delimiter)) for line in data), n_cols, header)

        def fields(lines: list[str]) -> list[str]:
            return delimiter.join(lines).split(delimiter)
    if not data:
        raise ParseError(f"{path}: no data rows")
    return names, data, fields


def _missing(missing_markers) -> tuple[set, dict | None]:
    """The markers a stripped cell can equal, and the map that reads each as
    ``"nan"`` (None when a marker reads as a number)."""
    # a marker with outer whitespace never equals a stripped cell
    missing = {m for m in missing_markers if m == m.strip()}
    return missing, None if any(map(_is_number, missing)) else dict.fromkeys(missing, "nan")


def _plain_lines(text: str, delimiter: str) -> list[str] | None:
    """The file's lines, when splitting each at the delimiter reads it as
    ``csv.reader`` does; else None.

    That holds when neither the text nor the delimiter holds a quote or
    NUL, every ``\\r`` of the text ends a line as part of a ``\\r\\n``,
    the delimiter is neither ``\\r`` nor ``\\n``, and no line is longer
    than ``csv.field_size_limit()``. Then the file's lines are the text
    split at ``\\n`` once each ``\\r\\n`` is read as ``\\n``, the empty
    piece after a final newline dropped; without a quote no field is
    quoted; and csv refuses NUL on some Python versions.
    """
    if delimiter in '"\r\0\n' or '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None  # a bare \r ends a line for csv.reader
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines and max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _fields(line: str, delimiter: str) -> list[str]:
    """A plain line's fields; an empty line has none, as in ``csv.reader``."""
    return line.split(delimiter) if line else []


def _reader_rows(path, delimiter: str) -> list[list[str]]:
    """The rows ``csv.reader`` reads from the file, read from it again as
    a stream rather than from its whole text in memory."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            return list(reader)
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc


def _names(path, first: list[str] | None, header: bool) -> list[str]:
    """Column names from the first row's fields, ``first`` (None: the file has no row)."""
    if first is None:
        raise ParseError(f"{path}: empty file")
    if not first:  # a blank first line
        raise ParseError(f"{path}: no column names")
    names = [h.strip() for h in first] if header else [f"c{i}" for i in range(len(first))]
    repeated = sorted(name for name, k in Counter(names).items() if k > 1)
    if repeated:
        raise ParseError(f"{path}: duplicate column name {repeated[0]!r}")
    return names


def _check_widths(path, widths, n_cols: int, header: bool) -> None:
    """ParseError at the first data row without ``n_cols`` fields."""
    for i, width in enumerate(widths):
        if width != n_cols:
            line = i + (2 if header else 1)
            raise ParseError(f"{path}: row {line} has {width} fields, expected {n_cols}")


# rows split per step: load_csv makes no copy of the whole body beside its
# fields, and code_csv never holds more than one step's fields
_BLOCK_LINES = 2048


def _strided(data: list, fields, n_cols: int):
    """Each column's cells of rows of ``n_cols`` fields, emptying ``data``
    as it splits it: the fields of all rows in one list, column j every
    ``n_cols``-th field from field j."""
    flat = []
    while data:
        flat += fields(data[:_BLOCK_LINES])
        del data[:_BLOCK_LINES]
    for j in range(n_cols):
        yield flat[j::n_cols]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _numbers(cells: list[str], missing: set, as_nan: dict | None) -> np.ndarray | None:
    """Raw cells as floats, NaN where missing or not finite; None when a
    present cell is not a number.

    ``float`` ignores the whitespace ``str.strip`` removes, so the raw
    cells are parsed in one pass first (``_parsed``); only when that fails
    are they stripped and parsed one by one, up to the first cell that is
    not a number.
    """
    values = _parsed(cells, as_nan)
    if values is None:
        try:
            values = np.array([math.nan if c in missing else float(c)
                               for c in map(str.strip, cells)], dtype=np.float64)
        except ValueError:
            return None
    values[~np.isfinite(values)] = math.nan
    return values


def _typed_column(name: str, cells: list[str], missing: set, as_nan: dict | None,
                  kind: str | None = None) -> RawColumn | None:
    """A column of raw cells, typed as a column of its stripped cells: as
    ``kind`` says, or else numeric when every present cell is a number,
    unless every cell is missing. None when told numeric and a present
    cell is not a number."""
    if kind == CATEGORICAL:
        return RawColumn(name, CATEGORICAL, _symbols(list(map(str.strip, cells)), missing))
    values = _numbers(cells, missing, as_nan)
    if kind is None and (values is None or np.isnan(values).all()):
        cells = list(map(str.strip, cells))
        if values is None or all(c in missing for c in cells):
            return RawColumn(name, CATEGORICAL, _symbols(cells, missing))
    return None if values is None else RawColumn(name, NUMERIC, values)


def _number_coder(cm: ColumnModel, missing: set, as_nan: dict | None):
    """The function giving a numeric column's codes of some raw cells, or
    None when a cell is neither missing nor a number."""
    edges = np.asarray(cm.edges, dtype=np.float64)

    def code(cells: list[str]) -> np.ndarray | None:
        values = _numbers(cells, missing, as_nan)
        return None if values is None else _bin_codes(cm, edges, values)
    return code


class _SymbolCoder(dict):
    """A categorical column's code of each raw cell, found when the cell
    is first seen: stripped, a missing marker read as None, then looked up
    as ``apply_preprocessor`` looks up a symbol."""

    def __init__(self, cm: ColumnModel, missing: set):
        super().__init__()
        self.lookup, self.unknown = _symbol_lookup(cm)
        self.missing = missing

    def __missing__(self, cell: str) -> int:
        symbol = cell.strip()
        code = self[cell] = self.lookup.get(None if symbol in self.missing else symbol,
                                            self.unknown)
        return code

    def codes(self, cells: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, cells), np.int64, len(cells))


def _bad_cell(model: PreprocessModel, data: list, fields, missing: set) -> SchemaError:
    """The error naming the first cell, in model-column order and then row
    order, of a numeric column that is neither missing nor a number."""
    n_cols = len(model.columns)
    first = {j: None for j, cm in enumerate(model.columns) if cm.kind == NUMERIC}
    for start in range(0, len(data), _BLOCK_LINES):
        flat = fields(data[start:start + _BLOCK_LINES])
        for j, found in first.items():
            if found is None:
                found = _first_non_number(flat[j::n_cols], missing)
                first[j] = found and (start + found[0], found[1])
    j, (row, cell) = next((j, found) for j, found in first.items() if found is not None)
    return SchemaError(_not_numeric(model.columns[j].name, cell, row + 2))


def _first_non_number(cells: list[str], missing: set) -> tuple[int, str] | None:
    """(i, stripped cell) of the first cell that is neither missing nor a number."""
    return next(((i, c) for i, c in enumerate(map(str.strip, cells))
                 if c not in missing and not _is_number(c)), None)


def _not_numeric(name: str, cell: str, row: int) -> str:
    return f"column {name!r}: expected numeric values, got {cell!r} in row {row}"


def _parsed(cells: list[str], as_nan: dict | None) -> np.ndarray | None:
    """The raw cells as floats in one pass, each marker read as ``"nan"``;
    None when a cell is not a number as it stands, or ``as_nan`` is None."""
    if as_nan is None:
        return None
    try:
        return np.fromiter(map(float, map(as_nan.get, cells, cells)), np.float64, len(cells))
    except ValueError:
        return None


def _symbols(cells: list[str], missing: set) -> np.ndarray:
    """Stripped cells as a categorical column's values, None where missing."""
    none = dict.fromkeys(missing)
    return np.fromiter(map(none.get, cells, cells), object, len(cells))


@dataclass
class ColumnModel:
    name: str
    kind: str
    # numeric
    mean: float | None = None
    edges: list[float] | None = None
    # categorical
    mode: str | None = None
    symbols: list[str] | None = None

    @property
    def arity(self) -> int:
        if self.kind == NUMERIC:
            return len(self.edges) + 1
        # one reserved slot for symbols unseen at fit time
        return len(self.symbols) + 1


@dataclass
class PreprocessModel:
    columns: list[ColumnModel]
    bins: int

    def to_json_dict(self) -> dict:
        cols = []
        for c in self.columns:
            if c.kind == NUMERIC:
                cols.append({"name": c.name, "kind": c.kind, "mean": c.mean, "edges": c.edges})
            else:
                cols.append({"name": c.name, "kind": c.kind, "mode": c.mode, "symbols": c.symbols})
        return {"bins": self.bins, "columns": cols}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PreprocessModel":
        """Read the document; a field that could not come from a fit raises
        ValueError (KeyError or TypeError when it is missing or not a dict)."""
        if type(doc["columns"]) is not list or not doc["columns"]:
            raise ValueError("'columns' must be a non-empty list")  # a fit has a column
        cols = []
        for c in doc["columns"]:
            name = c["name"]
            if c["kind"] == NUMERIC:
                mean, edges = c["mean"], c["edges"]
                if not _is_finite_number(mean):
                    raise ValueError(f"column {name!r}: 'mean' must be a finite number")
                if type(edges) is not list or not all(map(_is_finite_number, edges)):
                    raise ValueError(f"column {name!r}: 'edges' must be a list of finite numbers")
                edges = [float(e) for e in edges]
                if any(a >= b for a, b in zip(edges, edges[1:])):
                    raise ValueError(f"column {name!r}: 'edges' must be strictly increasing")
                cols.append(ColumnModel(name, NUMERIC, mean=float(mean), edges=edges))
            elif c["kind"] == CATEGORICAL:
                mode, symbols = c["mode"], c["symbols"]
                if (type(symbols) is not list or not all(type(s) is str for s in symbols)
                        or len(set(symbols)) != len(symbols)):
                    raise ValueError(f"column {name!r}: 'symbols' must be a list of distinct strings")
                if mode not in symbols:
                    raise ValueError(f"column {name!r}: 'mode' must be one of its symbols")
                cols.append(ColumnModel(name, CATEGORICAL, mode=mode, symbols=list(symbols)))
            else:
                raise ValueError(f"column {name!r}: 'kind' must be {NUMERIC!r} or {CATEGORICAL!r}")
        bins = doc["bins"]
        if type(bins) is not int or bins < 2:
            raise ValueError("'bins' must be an int of at least 2")
        return cls(columns=cols, bins=bins)

    @classmethod
    def from_json(cls, text: str) -> "PreprocessModel":
        return cls.from_json_dict(json.loads(text))


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _midpoint(a, b) -> float:
    """The midpoint of finite ``a`` and ``b``: ``(a + b) / 2``, or, where
    ``a + b`` passes the float range, ``a / 2 + b / 2``."""
    a, b = float(a), float(b)  # Python floats round as float64 and overflow without a warning
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def _mean(values: np.ndarray) -> float:
    """The mean of finite ``values``: ``values.mean()``, or, where its sum
    passes the float range, a sum of ``values / n`` kept within the values'
    range (that sum can round past the largest float)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        if not math.isfinite(mean):
            mean = np.clip(np.sum(values / values.size), values.min(), values.max())
    return float(mean)


def _equal_frequency_edges(values: np.ndarray, bins: int) -> list[float]:
    """Interior cut points between distinct sorted values.

    With at most ``bins`` distinct values, cut between every two
    neighbours. Otherwise cut after the distinct value whose cumulative
    count first reaches each quantile boundary. Equal cuts collapse, so
    heavy duplication, or neighbours too close for a midpoint between
    them, can yield fewer bins than requested.
    """
    distinct, counts = np.unique(values, return_counts=True)
    m = distinct.size
    if m <= bins:
        splits = range(m - 1)
    else:
        cumulative = np.cumsum(counts)
        splits = (int(np.searchsorted(cumulative, k * values.size / bins)) for k in range(1, bins))
    edges: list[float] = []
    for split in splits:
        if split < m - 1:
            edge = _midpoint(distinct[split], distinct[split + 1])
            if not edges or edge > edges[-1]:
                edges.append(edge)
    return edges


def fit_preprocessor(train: RawTable, bins: int = 10) -> PreprocessModel:
    """Learn imputation statistics and discretization from training data.

    Numeric columns get their training mean and equal-frequency edges;
    categorical columns get their mode (first-occurrence tie break) and a
    dense symbol dictionary in first-occurrence order.
    """
    if train.n_rows == 0:
        raise ValueError("training table is empty")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    models = []
    for col in train.columns:
        if col.kind == NUMERIC:
            present = col.values[~np.isnan(col.values)]
            if present.size == 0:
                raise UnusableColumnError(f"column {col.name!r} has no usable values")
            models.append(ColumnModel(
                col.name, NUMERIC,
                mean=_mean(present),
                edges=_equal_frequency_edges(present, bins),
            ))
        else:
            counts = Counter(v for v in col.values if v is not None)
            if not counts:
                raise UnusableColumnError(f"column {col.name!r} has no usable values")
            mode = max(counts, key=counts.__getitem__)  # first occurrence wins ties
            models.append(ColumnModel(col.name, CATEGORICAL, mode=mode, symbols=list(counts)))
    return PreprocessModel(columns=models, bins=bins)


def _check_names(model: PreprocessModel, names: list[str]) -> None:
    """SchemaError unless ``names`` are the model's column names, in order."""
    if len(names) != len(model.columns):
        raise SchemaError(f"expected {len(model.columns)} columns, got {len(names)}")
    for cm, name in zip(model.columns, names):
        if cm.name != name:
            raise SchemaError(f"column mismatch: expected {cm.name!r}, got {name!r}")


def apply_preprocessor(model: PreprocessModel, data: RawTable) -> DiscreteTable:
    """Impute with training statistics and map values to symbol codes.

    Numeric: value <= edge_k selects bin k; above the last edge selects
    the last bin. Categorical symbols unseen at fit time map to the
    reserved unknown code (the slot past the training dictionary) rather
    than being laundered into the mode. Each column must be of its model
    column's kind; ``code_csv`` codes a file that way without a
    ``RawTable``.
    """
    _check_names(model, data.names)
    for cm, col in zip(model.columns, data.columns):
        if cm.kind != col.kind:
            raise SchemaError(f"column {col.name!r}: expected {cm.kind} values, got {col.kind}")
    coded = np.empty((data.n_rows, data.n_attrs), dtype=np.int64)
    for j, (cm, col) in enumerate(zip(model.columns, data.columns)):
        if cm.kind == NUMERIC:
            coded[:, j] = _bin_codes(cm, np.asarray(cm.edges, dtype=np.float64), col.values.copy())
        else:
            lookup, unknown = _symbol_lookup(cm)
            coded[:, j] = np.fromiter(map(lookup.get, col.values, repeat(unknown)), np.int64,
                                      data.n_rows)
    return DiscreteTable(coded, symbol_names=list(map(_symbol_names, model.columns)))


def _bin_codes(cm: ColumnModel, edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A numeric column's codes: each NaN of ``values`` is replaced by the
    training mean, then value <= ``edges[k]`` selects bin k."""
    values[np.isnan(values)] = cm.mean
    return np.searchsorted(edges, values, side="left")


def _symbol_lookup(cm: ColumnModel) -> tuple[dict, int]:
    """A categorical column's code of each symbol, None (a missing cell)
    taking the mode's, and the code of any other symbol."""
    lookup = {s: i for i, s in enumerate(cm.symbols)}
    lookup[None] = lookup[cm.mode]
    return lookup, len(cm.symbols)


def _symbol_names(cm: ColumnModel) -> list[str]:
    if cm.kind == NUMERIC:
        return [f"bin{k}" for k in range(cm.arity)]
    return list(cm.symbols) + ["<unknown>"]
