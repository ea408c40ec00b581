"""Partition-based information measures over a discrete table.

All quantities are in bits (base-2 logarithms). The joint partition of an
attribute set is the common refinement of the per-attribute partitions;
its empirical block frequencies induce the probabilities behind every
measure here.

Measure cheat sheet, for attribute sets a, b and their union u:

  entropy            H(u)      = -sum_B (|B|/N) log2(|B|/N)
  conditional        H(a|b)    = H(a u b) - H(b)
  pair distance      d(a,b)    = H(a|b) + H(b|a)            (a metric)
  interaction info   ii(x,y,z) = I(x;y) - I(x;y|z)          (signed)
  multi-attribute    m({..})   = sum_i H(A_i | rest) + ii
  total correlation  tc(u)     = sum_i H(A_i) - H(u)
  normalized         nm(a,b)   = m(a u b) / H(a u b)

For unions larger than ``cap`` the multi-attribute and normalized measures
fall back to the best cap-sized subset, which keeps the joint partitions
coarse enough to estimate from N rows.

Subset scores are dense arrays. From the entropies of every set of at most
``cap`` attributes, one elementwise pass gives m(S)/H(S) of every pair
and, for cap 3, every triple S, in the operation order of the scalar
formulas, so the bits are the same. The array is mirrored to every index
order and holds +inf where H(S) = 0.0 or an index repeats. The cap
fallback of nm(a, b) is then one gather: the minimum over the cells
(i in a, k in b) of the pair array, or (i in a, j in a u b, k in b) of
the triple array, each subset touching both sides being one such cell
and +inf read as 0.0. ``PairCache`` holds the arrays of a whole table,
p^cap floats: 0.5 MB for triples at 40 attributes, 64 MB at 200. The
public functions build them over their own union.

Although m is called an information distance, it is not a metric on
attribute sets. The interaction information it adds is signed, so m and
nm can be negative, and exact values are not monotone under inclusion;
see ``multi_attribute_measure``.

Every joint entropy is counted with one ``np.bincount`` over the
attribute set's key from ``table._joint_key``: the mixed-radix number
((c0*r1 + c1)*r2 + c2)... of the codes, renumbered densely by
``np.unique`` whenever its key space passes 4 keys per row. The key sorts
as the code tuples do, so the nonzero counts come in lexicographic tuple
order for every set, however often it was renumbered, and log2(k) is read
from a table of ``np.log2`` values. Two kernels count it. The entropy
memo that ``PairCache`` and the measure functions read (``_Entropies``)
fills the sets of two and three attributes a fan at a time: H(p + (z,))
for every z > p[-1] of a prefix p, counted by one bincount over the keys
of the run laid side by side, each set's nonzero counts one slice of the
compacted counts; a fan holds at most ``_FAN_KEYS`` keys and counts, so
over long tables it counts fewer sets at a time. Single attributes,
larger sets, the public ``joint_entropy``, a set whose key space passes
the budget and the sets of a prefix that was itself renumbered take the
per-set kernel, ``_joint_entropy``. Both give the same bits: each set's
counts come in the same order, and ``np.dot`` sums a slice as it sums an
array of its own. ``induce_partition`` and detector fitting count the
same key. A partition with one block has entropy exactly 0.0; the
formula alone would round it to -4.4e-16 for some N.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations, permutations

import numpy as np

from .table import _KEYS_PER_ROW, DiscreteTable, Partition, _joint_key, validate_attrs


def _log2_table(n: int) -> np.ndarray:
    """log2(k) for k = 0..n; entry 0 is 0.0 and never read."""
    table = np.zeros(n + 1)
    np.log2(np.arange(1, n + 1, dtype=np.float64), out=table[1:])
    return table


def _joint_entropy(columns, arities, attrs: tuple[int, ...], log2_table: np.ndarray) -> float:
    """The entropy kernel: H(attrs) over ``len(log2_table) - 1`` rows."""
    key, size = _joint_key(columns, arities, attrs, _KEYS_PER_ROW * (log2_table.size - 1))
    return _entropy_from_counts(np.bincount(key, minlength=size), log2_table)


def induce_partition(table: DiscreteTable, attrs) -> Partition:
    """Joint partition of the rows: two rows share a block iff they agree
    on every attribute in ``attrs``. Block ids follow first-occurrence
    row order, so the result is byte-reproducible."""
    attrs = validate_attrs(table, attrs)
    key, _ = _joint_key(table.codes.T, table.arities, attrs, _KEYS_PER_ROW * table.n_rows)
    _, first_row, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first_row)
    rank = np.argsort(order)  # the inverse permutation
    return Partition(block_of=rank[inverse], block_sizes=counts[order], n_rows=table.n_rows)


def entropy(partition: Partition) -> float:
    """Shannon entropy of a partition, in bits. 0 log 0 counts as 0."""
    return _entropy_from_counts(partition.block_sizes, _log2_table(partition.n_rows))


def _entropy_from_counts(counts: np.ndarray, log2_table: np.ndarray) -> float:
    """H in bits of block counts over N = len(log2_table) - 1 rows."""
    c = counts[counts > 0]
    if c.size <= 1:
        # log2(N) - N log2(N) / N rounds to -4.4e-16 for some N (10, 11, 13, ...)
        return 0.0
    n = log2_table.size - 1
    return float(log2_table[n] - np.dot(c.astype(np.float64), log2_table[c]) / n)


def joint_entropy(table: DiscreteTable, attrs) -> float:
    """Entropy of the joint partition over ``attrs``, computed afresh."""
    attrs = validate_attrs(table, attrs)
    return _joint_entropy(table.codes.T, table.arities, attrs, _log2_table(table.n_rows))


# the most keys and counts one fan's bincount holds, unless it counts a
# single set; a fan over long rows counts fewer sets at a time, down to one
_FAN_KEYS = 1 << 20
# the largest attribute set a fan counts
_FAN_WIDTH = 3


def _fan_runs(arities, first: int, size: int, n_rows: int):
    """The runs [start, stop) of the attributes z >= ``first`` whose sets
    with a prefix of key space ``size`` one bincount counts: an attribute
    whose key space ``size * arity`` passes the budget ends a run and
    joins none, and a run of more than one set holds at most
    ``_FAN_KEYS`` keys and counts."""
    budget = _KEYS_PER_ROW * n_rows
    start, held = first, 0
    for z in range(first, len(arities)):
        cost = n_rows + size * arities[z]
        if size * arities[z] > budget:
            if start < z:
                yield start, z
            start, held = z + 1, 0
        elif start < z and held + cost > _FAN_KEYS:
            yield start, z
            start, held = z, cost
        else:
            held += cost
    if start < len(arities):
        yield start, len(arities)


def _fan_entropies(columns, key: np.ndarray, size: int, radix: np.ndarray, start: int,
                   log2_table: np.ndarray) -> list[float]:
    """H(p + (z,)) for each z of ``start .. start + len(radix) - 1``, from
    the key ``key`` of the prefix p, never renumbered, its key space
    ``size`` and the arities ``radix`` of the z, none of whose sets' key
    spaces passes the budget. Each set's keys are offset by the key
    spaces before it, all are counted by one bincount, and a set's
    nonzero counts are one slice of the compacted counts."""
    ends = np.cumsum(radix * size)
    keys = np.multiply.outer(radix, key)
    keys += (ends - radix * size)[:, None]
    keys += columns[start:start + radix.size]
    counts = np.bincount(keys.ravel(), minlength=int(ends[-1]))
    nonzero = np.flatnonzero(counts > 0)  # far cheaper than counts[counts > 0]
    c = counts.take(nonzero)
    cf, lg = c.astype(np.float64), log2_table.take(c)
    n = log2_table.size - 1
    log2_n = float(log2_table[n])
    out, s = [], 0
    for e in nonzero.searchsorted(ends).tolist():
        # _entropy_from_counts' formula; one block is exactly 0.0
        out.append(0.0 if e - s <= 1 else log2_n - float(cf[s:e].dot(lg[s:e])) / n)
        s = e
    return out


def _entropies(table: DiscreteTable):
    """Memoized H of ``table``'s canonical attribute tuples; closes over the table only."""
    return _Entropies(table).__getitem__


class _Entropies(dict):
    """H of a table's canonical attribute tuples, counted when a set is
    first asked for. A set of two to ``_FAN_WIDTH`` attributes is counted
    with its prefix's fan, every set that extends the prefix by a larger
    attribute; single attributes, larger sets and the sets a fan leaves
    out are counted one by one."""

    def __init__(self, table: DiscreteTable):
        super().__init__()
        self.columns = np.ascontiguousarray(table.codes.T)
        self.arities = table.arities
        self.log2_table = _log2_table(table.n_rows)
        self.fanned: set[tuple[int, ...]] = set()

    def __missing__(self, attrs: tuple[int, ...]) -> float:
        prefix = attrs[:-1]
        if 1 < len(attrs) <= _FAN_WIDTH and prefix not in self.fanned:
            self.fanned.add(prefix)
            self._fill_fan(prefix)
            return self[attrs]
        h = self[attrs] = _joint_entropy(self.columns, self.arities, attrs, self.log2_table)
        return h

    def _fill_fan(self, prefix: tuple[int, ...]) -> None:
        n = self.log2_table.size - 1
        size = math.prod(self.arities[a] for a in prefix)
        if size > _KEYS_PER_ROW * n:
            return  # a renumbered prefix
        key, _ = _joint_key(self.columns, self.arities, prefix, _KEYS_PER_ROW * n)
        for start, stop in _fan_runs(self.arities, prefix[-1] + 1, size, n):
            radix = np.array(self.arities[start:stop], dtype=np.int64)
            h = _fan_entropies(self.columns, key, size, radix, start, self.log2_table)
            self.update(zip([(*prefix, z) for z in range(start, stop)], h))


def _union(a, b) -> tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


# Each formula below is written once, elementwise: its arguments are the
# entropies it needs, floats or arrays of them, and it is evaluated in the
# same order either way, so a score has the same bits however it is taken.
def _rokhlin(h_union, h_a, h_b):
    """d(a, b) = H(a|b) + H(b|a) from H(a u b), H(a) and H(b)."""
    return np.maximum(0.0, 2.0 * h_union - h_a - h_b)


def _interaction(hx, hy, hz, hxy, hxz, hyz, hxyz):
    """ii(x, y, z) from the entropies of the triple's subsets."""
    return hx + hy + hz - hxy - hxz - hyz + hxyz


def _triple_m(hx, hy, hz, hxy, hxz, hyz, hxyz):
    """Exact m of a triple x < y < z: the sum of H(xyz) - H(xyz without i)
    for i = x, y, z in that order, plus ii."""
    total = 0.0 + (hxyz - hyz) + (hxyz - hxz) + (hxyz - hxy)
    return total + _interaction(hx, hy, hz, hxy, hxz, hyz, hxyz)


def _subset_measures(h, attrs, width: int):
    """(index, m, H) of every ``width``-subset S of the sorted ``attrs``,
    ``width`` 2 or 3, in ``combinations`` order: ``index`` holds ``width``
    vectors of S's positions in ``attrs``, ascending, then exact m(S) and
    H(S) from the entropy function ``h``."""
    k = len(attrs)
    h1 = np.array([h((a,)) for a in attrs])
    x, y = np.triu_indices(k, 1)
    h2 = np.array([h(s) for s in combinations(attrs, 2)])
    if width == 2:
        return (x, y), _rokhlin(h2, h1[x], h1[y]), h2
    pairs = np.zeros((k, k))
    pairs[x, y] = h2
    r = np.arange(k)
    x, y, z = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    h3 = np.array([h(s) for s in combinations(attrs, 3)])
    m = _triple_m(h1[x], h1[y], h1[z], pairs[x, y], pairs[x, z], pairs[y, z], h3)
    return (x, y, z), m, h3


def _score_array(h, attrs, width: int) -> np.ndarray:
    """m(S)/H(S) of every set S of ``width`` of ``attrs``, as a dense
    array indexed by positions in ``attrs`` in every order. A set with
    H(S) = 0.0 carries no information and a cell with a repeated position
    is no set; both hold +inf, which no minimum picks over a finite score."""
    index, m, h_s = _subset_measures(h, attrs, width)
    score = np.divide(m, h_s, out=np.full(m.shape, np.inf), where=h_s != 0.0)
    out = np.full((len(attrs),) * width, np.inf)
    for order in permutations(index):
        out[order] = score
    return out


def _normalized(scores, a, b, cap: int) -> float:
    """nm(a, b) for position tuples a and b, from ``scores(width)``, the
    score array of the sets of ``width`` positions. A union of at most
    ``cap`` is looked up. A larger one takes the minimum over cap-sized
    subsets that touch both sides in one gather: each such subset has one
    element in a and another in b, the cells (i in a, [j in a u b,] k in b),
    and the cells that are no such subset hold +inf. All +inf reads 0.0."""
    union = _union(a, b)
    if len(union) <= cap:
        value = scores(len(union))[union]
    else:
        # the arrays are symmetric, so the smaller side goes first: the
        # first take copies |a| p^(cap-1) cells
        a, b = (a, b) if len(a) <= len(b) else (b, a)
        cells = scores(cap).take(a, 0).take(b, 1)
        value = (cells if cap == 2 else cells.take(union, 2)).min()
    return 0.0 if value == np.inf else float(value)


def _total_correlation(h, attrs) -> float:
    return max(0.0, sum(h((a,)) for a in attrs) - h(attrs))


def conditional_entropy(table: DiscreteTable, target, given) -> float:
    """H(target | given) = H(target u given) - H(given)."""
    target, given = validate_attrs(table, target), validate_attrs(table, given)
    h = _entropies(table)
    return h(_union(target, given)) - h(given)


def mutual_information(table: DiscreteTable, a, b) -> float:
    """I(a;b) = H(a) + H(b) - H(a u b)."""
    h, a, b = _entropies(table), validate_attrs(table, a), validate_attrs(table, b)
    return h(a) + h(b) - h(_union(a, b))


def rokhlin_distance(table: DiscreteTable, a, b) -> float:
    """H(a|b) + H(b|a). Symmetric; zero iff the joint partitions coincide."""
    h, a, b = _entropies(table), validate_attrs(table, a), validate_attrs(table, b)
    return float(_rokhlin(h(_union(a, b)), h(a), h(b)))


def interaction_information(table: DiscreteTable, attrs) -> float:
    """Shared higher-order information of two or three attributes. Zero by
    definition for a pair. For a triple this is I(x;y) - I(x;y|z), which is
    symmetric in the three attributes and may be negative.

    Arities above three are rejected: the joint partitions they need are
    too refined to estimate, and no caller requires them.
    """
    attrs = validate_attrs(table, attrs)
    if len(attrs) not in (2, 3):
        raise ValueError(f"interaction information supports 2 or 3 attributes, got {len(attrs)}")
    if len(attrs) == 2:
        return 0.0
    h = _entropies(table)
    x, y, z = attrs
    return _interaction(h((x,)), h((y,)), h((z,)), h((x, y)), h((x, z)), h((y, z)), h(attrs))


def multi_attribute_measure(table: DiscreteTable, attrs, cap: int = 3) -> float:
    """Information distance within a set of attributes; small values mark
    highly correlated sets.

    Exact for sets of at most ``cap`` attributes (a pair reduces to the
    Rokhlin distance). Larger sets are scored by the minimum exact value
    over all cap-sized subsets. Subsets whose joint entropy is zero carry
    no information and the all-constant degenerate case scores 0.

    The value can be negative: the interaction-information term is signed,
    and a triple with z = x XOR y over two independent fair bits scores -1.
    The exact value is not monotone under inclusion. A third attribute
    raises it above the pair's Rokhlin distance when independent (2 becomes
    3 for fair bits) and lowers it when it is the XOR (2 becomes -1). Only
    sets scored by the fallback are monotone: if S is a subset of T and
    ``len(S) >= cap``, then m(T) <= m(S).
    """
    attrs = validate_attrs(table, attrs)
    if len(attrs) < 2:
        raise ValueError("multi-attribute measure needs at least two attributes")
    if cap not in (2, 3):
        raise ValueError("cap must be 2 or 3")
    _, m, _ = _subset_measures(_entropies(table), attrs, min(cap, len(attrs)))
    return float(m.min())


def normalized_measure(table: DiscreteTable, a, b, cap: int = 3) -> float:
    """Multi-attribute measure of a u b divided by the joint entropy of
    a u b, which makes subspaces of different sizes comparable.

    When the union exceeds ``cap`` attributes, the value is the minimum of
    m(S)/H(S) over cap-sized subsets S that touch both sides; a subset
    drawn from one side alone says nothing about the pair. Degenerate
    subsets with H(S) = 0 are skipped, and the result is 0 when every
    candidate is degenerate. A union of two single attributes scores in
    [0, 1]; a triple with negative interaction information can score
    below 0. Nothing is kept between calls; ``PairCache`` memoizes.
    """
    a = validate_attrs(table, a)
    b = validate_attrs(table, b)
    union = _union(a, b)
    if len(union) < 2:
        raise ValueError("the union of the two attribute sets needs at least two attributes")
    if cap not in (2, 3):
        raise ValueError("cap must be 2 or 3")
    position = {attr: i for i, attr in enumerate(union)}
    return _normalized(partial(_score_array, _entropies(table), union),
                       tuple(map(position.get, a)), tuple(map(position.get, b)), cap)


def total_correlation(table: DiscreteTable, attrs) -> float:
    """sum_i H(A_i) - H(joint). Non-negative; 0 for a single attribute."""
    return _total_correlation(_entropies(table), validate_attrs(table, attrs))


class PairCache:
    """The measure memos of one search over one table: joint entropies,
    the score arrays of all its pairs and, for cap 3, triples of
    attributes, and pair values keyed by the pair and ``cap``. Nothing is
    validated: attribute sets must be sorted and duplicate-free, ``cap``
    2 or 3. A cache serves the first table it is given only.
    """

    def __init__(self):
        self._table: DiscreteTable | None = None
        self._pairs: dict[tuple, float] = {}
        self._scores: dict[int, np.ndarray] = {}

    def _bind(self, table: DiscreteTable) -> None:
        if self._table is None:
            self._table = table
            self._entropy = _entropies(table)
        elif table is not self._table:
            raise ValueError("a PairCache serves one table")

    def _score(self, width: int) -> np.ndarray:
        """The score array of every set of ``width`` attributes, made once."""
        scores = self._scores.get(width)
        if scores is None:
            attrs = range(self._table.n_attrs)
            scores = self._scores[width] = _score_array(self._entropy, attrs, width)
        return scores

    def measure(self, table: DiscreteTable, a, b, cap: int) -> float:
        """``normalized_measure(table, a, b, cap)``, memoized."""
        self._bind(table)
        key = (a, b, cap) if a <= b else (b, a, cap)
        value = self._pairs.get(key)
        if value is None:
            value = self._pairs[key] = _normalized(self._score, a, b, cap)
        return value

    def total_correlation(self, table: DiscreteTable, attrs) -> float:
        """``total_correlation(table, attrs)`` over the memoized entropies."""
        self._bind(table)
        return _total_correlation(self._entropy, attrs)

    def __len__(self) -> int:
        return len(self._pairs)


def symmetric_uncertainty(table: DiscreteTable, a: int, b: int) -> float:
    """2 I(a;b) / (H(a) + H(b)), in [0, 1]. Two constant attributes give 0."""
    h, a, b = _entropies(table), validate_attrs(table, (a,)), validate_attrs(table, (b,))
    ha, hb = h(a), h(b)
    return 0.0 if ha + hb == 0.0 else 2.0 * (ha + hb - h(_union(a, b))) / (ha + hb)
