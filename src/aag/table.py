"""Discrete data table: the substrate for all partition-based measures.

A table holds one integer symbol code per cell. Row order is significant
only for reproducibility of block ids; all information measures are
invariant under row permutation and code relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Grouping of row indices by equal values.

    ``block_of[r]`` is the block id of row ``r``; ids are dense in
    ``[0, n_blocks)`` and assigned in first-occurrence row order.
    """

    block_of: np.ndarray
    block_sizes: np.ndarray
    n_rows: int

    @property
    def n_blocks(self) -> int:
        return int(self.block_sizes.size)

    def blocks(self) -> list[list[int]]:
        """Materialize blocks as lists of row indices (for reporting)."""
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for row, b in enumerate(self.block_of):
            out[int(b)].append(row)
        return out


class DiscreteTable:
    """N rows by p attributes of non-negative integer symbol codes.

    Immutable once constructed.
    """

    def __init__(self, codes, symbol_names=None):
        arr = np.asarray(codes, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("codes must be a 2-D array (rows x attributes)")
        if arr.size and arr.min() < 0:
            raise ValueError("codes must be non-negative")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("table must have at least one row and one attribute")
        arr.setflags(write=False)
        self._codes = arr
        self.n_rows: int = int(arr.shape[0])
        self.n_attrs: int = int(arr.shape[1])
        self.arities: tuple[int, ...] = tuple(m + 1 for m in arr.max(axis=0).tolist())
        if symbol_names is not None:
            if len(symbol_names) != self.n_attrs:
                raise ValueError("symbol_names must have one entry per attribute")
            symbol_names = [list(names) for names in symbol_names]
            for j, names in enumerate(symbol_names):
                if len(names) < self.arities[j]:
                    raise ValueError(f"symbol_names[{j}] shorter than arity {self.arities[j]}")
        self.symbol_names = symbol_names

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    def column(self, attr: int) -> np.ndarray:
        return self._codes[:, attr]

    def take_rows(self, rows) -> "DiscreteTable":
        """New table with the given rows, same columns and symbol names."""
        return DiscreteTable(self._codes[np.asarray(rows, dtype=np.intp)], self.symbol_names)

    def __repr__(self) -> str:
        return f"DiscreteTable(n_rows={self.n_rows}, n_attrs={self.n_attrs}, arities={self.arities})"


# the key-space budget of a joint key, in keys per row
_KEYS_PER_ROW = 4
# the largest key space a partial key multiplies into: its keys stay below 2^62
_MAX_KEYS = 2**62


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` renumbered 0..k-1 in sorted order, and k."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return inverse, distinct.size


def _joint_key(columns, arities, attrs: tuple[int, ...], budget: int) -> tuple[np.ndarray, int]:
    """The mixed-radix key ((c0*r1 + c1)*r2 + c2)... of each row's codes of
    ``attrs`` (``columns[a]`` holds attribute ``a``) and its key space size,
    ``0 <= key < size <= max(budget, n_rows)``.

    The key is carried exactly. Only when the next multiply could pass
    ``_MAX_KEYS`` is the partial key (and then, if that is not enough,
    the column) renumbered densely, in order; and the whole key is
    renumbered once at the end if its key space passes ``budget``. A
    dense renumbering keeps order and equality, so keys sort as the code
    tuples do and cannot overflow int64, and a key never renumbered
    indexes the flattened contingency table."""
    key, size = None, 1
    for a in attrs:
        column, arity = columns[a], arities[a]
        if key is None:
            key, size = column, arity
            continue
        if size * arity > _MAX_KEYS:
            key, size = _dense(key)
            if size * arity > _MAX_KEYS:
                column, arity = _dense(column)
        key = key * arity + column
        size *= arity
    if size > budget:
        key, size = _dense(key)
    return key, size


def validate_attrs(table: DiscreteTable, attrs) -> tuple[int, ...]:
    """Canonicalize an attribute collection to a sorted duplicate-free tuple.

    Raises ValueError for empty input or out-of-range indices.
    """
    out = tuple(sorted({int(a) for a in attrs}))
    if not out:
        raise ValueError("attribute set must be non-empty")
    if out[0] < 0 or out[-1] >= table.n_attrs:
        raise ValueError(f"attribute index out of range [0, {table.n_attrs})")
    return out


def table_from_rows(rows, symbol_names=None) -> DiscreteTable:
    """Convenience constructor from a row-major nested sequence."""
    return DiscreteTable(np.asarray(rows, dtype=np.int64), symbol_names)
