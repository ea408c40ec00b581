"""Agglomerative attribute grouping: greedy search for correlated subspaces.

The search starts from single-attribute subspaces and repeatedly unifies
the closest pair under the normalized multi-attribute measure. Each
agglomeration level snapshots its subspaces into the result set T, so no
attribute is ever lost: a rejected merge leaves its parts recorded at the
previous level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from .measures import PairCache, _union, normalized_measure, total_correlation  # noqa: F401
from .table import DiscreteTable

Attrs = tuple[int, ...]

def _tie_key(measure: float, *tiebreak) -> tuple:
    """How the search compares a measure: at 12 decimals, so values equal
    in exact arithmetic tie and ``tiebreak`` decides."""
    return (round(measure, 12), *tiebreak)


def jaccard(a, b) -> float:
    """|a n b| / |a u b| for two attribute index collections."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        raise ValueError("jaccard of two empty sets is undefined")
    return len(sa & sb) / len(union)


@dataclass(frozen=True)
class Subspace:
    attrs: Attrs
    level: int


@dataclass(frozen=True)
class MergeEvent:
    """One decision of the search loop, for tracing and reporting.

    kind is one of: "seed" (the level's globally closest pair), "merge"
    (two current-level subspaces unified), "grow" (a current-level
    subspace absorbed into a next-level one). A "-pruned" suffix marks a
    union rejected by the total-correlation rule. ``alt`` and
    ``alt_measure`` hold the losing side of the grow-vs-merge comparison.
    """

    level: int
    kind: str
    left: Attrs
    right: Attrs
    result: Attrs | None
    measure: float
    alt: Attrs | None = None
    alt_measure: float | None = None


@dataclass
class SubspaceSet:
    """The search output T plus per-level snapshots and the event trace."""

    subspaces: list[Subspace]
    levels: list[list[Attrs]]
    events: list[MergeEvent] = field(default_factory=list)

    def attr_sets(self) -> list[Attrs]:
        return [s.attrs for s in self.subspaces]

    def to_json_dict(self) -> dict:
        return {
            "levels": [[list(attrs) for attrs in level] for level in self.levels],
            "subspaces": [{"attrs": list(s.attrs), "level": s.level} for s in self.subspaces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SubspaceSet":
        return cls(
            subspaces=[Subspace(tuple(d["attrs"]), int(d["level"])) for d in doc["subspaces"]],
            levels=[[tuple(attrs) for attrs in level] for level in doc["levels"]],
        )

    @classmethod
    def from_json(cls, text: str) -> "SubspaceSet":
        return cls.from_json_dict(json.loads(text))


def _pair_key(a: Attrs, b: Attrs) -> tuple[Attrs, Attrs]:
    return (a, b) if a <= b else (b, a)


def should_unify(table: DiscreteTable, a, b, t: int) -> bool:
    """Decide whether unifying two subspaces preserves enough quality.

    The first two levels always unify. Later levels accept a union when
    its total correlation is at least the Jaccard-weighted sum of the
    parts' total correlations; disjoint parts with two or more attributes
    each always satisfy that and skip the evaluation, while a part nested
    inside the other can never satisfy it.
    """
    return _should_unify(lambda attrs: total_correlation(table, attrs), a, b, t)


def _should_unify(tc, a, b, t: int) -> bool:
    sa, sb = set(a), set(b)
    if t <= 2:
        return True
    if not (sa & sb) and len(sa) >= 2 and len(sb) >= 2:
        return True
    if sa <= sb or sb <= sa:
        return False
    union = _union(sa, sb)
    v_a = len(sa) / len(union)
    v_b = len(sb) / len(union)
    return tc(union) >= v_a * tc(tuple(sorted(sa))) + v_b * tc(tuple(sorted(sb)))


def run_aag(
    table: DiscreteTable,
    cap: int = 3,
    include_singletons: bool = False,
) -> SubspaceSet:
    """Run the agglomerative grouping on a discrete table.

    Per level t: the globally closest pair of level-t subspaces seeds
    level t+1; the remaining level-t subspaces are then consumed one at a
    time, each either absorbed into the closest level-(t+1) subspace or
    unified with its closest partner from the frozen level-t snapshot,
    whichever pairing measures closer. Every union passes the pruning
    rule in ``should_unify``. The loop stops when a level has fewer than
    two subspaces, or when a level prunes away every candidate union.

    Measures are compared rounded to 12 decimals, both in every argmin and
    in the grow-vs-merge test, and ties break on the lexicographic order
    of the pair's sorted attribute tuples, so runs are deterministic and
    values equal in exact arithmetic tie whatever their rounding noise.
    A value within an ulp of a 1e-12 grid boundary can still round either
    way. Events record the unrounded measures. Pair measures and total
    correlations come from one ``PairCache`` owned by the run.
    """
    if table.n_attrs < 2:
        raise ValueError("grouping needs at least two attributes")
    if cap not in (2, 3):
        raise ValueError("cap must be 2 or 3")
    cache = PairCache()
    measure = partial(cache.measure, table, cap=cap)
    tc = partial(cache.total_correlation, table)

    current: list[Attrs] = [(i,) for i in range(table.n_attrs)]
    t = 1
    levels: list[list[Attrs]] = []
    recorded: list[Subspace] = []
    seen: set[Attrs] = set()
    events: list[MergeEvent] = []

    def record_level(members: list[Attrs], level: int) -> None:
        levels.append(list(members))
        for attrs in members:
            if attrs not in seen:
                seen.add(attrs)
                recorded.append(Subspace(attrs, level))

    def unify(kind: str, a: Attrs, b: Attrs, d: float,
              alt: Attrs | None = None, alt_measure: float | None = None) -> Attrs | None:
        """The union of a and b if the pruning rule keeps it, else None;
        either way the decision is recorded as a ``kind`` event."""
        nonlocal merged_any
        if not _should_unify(tc, a, b, t):
            events.append(MergeEvent(t, f"{kind}-pruned", a, b, None, d, alt, alt_measure))
            return None
        u = _union(a, b)
        merged_any = True
        events.append(MergeEvent(t, kind, a, b, u, d, alt, alt_measure))
        return u

    while True:
        record_level(current, t)
        if len(current) < 2:
            break
        frozen = list(current)
        merged_any = False

        # seed the next level with the globally closest pair
        best = min(
            ((measure(a, b), _pair_key(a, b)) for i, a in enumerate(current) for b in current[i + 1:]),
            key=lambda item: _tie_key(*item),
        )
        d_seed, (a, b) = best
        current.remove(a)
        current.remove(b)
        u = unify("seed", a, b, d_seed)
        nxt: list[Attrs] = [] if u is None else [u]

        # consume the rest of the level
        while current and nxt:
            d_grow, (a_i, a_j) = min(
                ((measure(x, y), (x, y)) for x in current for y in nxt),
                key=lambda item: _tie_key(item[0], _pair_key(*item[1])),
            )
            d_pair, a_k = min(
                ((measure(x, a_i), x) for x in frozen if x != a_i),
                key=lambda item: _tie_key(*item),
            )
            if _tie_key(d_grow) >= _tie_key(d_pair):
                # unify a_i with its frozen-snapshot partner
                current.remove(a_i)
                if a_k in current:
                    current.remove(a_k)
                u = unify("merge", a_i, a_k, d_pair, a_j, d_grow)
                if u is not None and u not in nxt:
                    nxt.append(u)
            else:
                # absorb a_i into the next-level subspace a_j
                current.remove(a_i)
                u = unify("grow", a_i, a_j, d_grow, a_k, d_pair)
                if u is not None and u != a_j:
                    idx = nxt.index(a_j)
                    if u in nxt:
                        nxt.pop(idx)  # grown form already present elsewhere
                    else:
                        nxt[idx] = u

        if current:
            # pruning emptied the next level before the loop could run
            if merged_any:
                nxt.extend(x for x in current if x not in nxt)
            else:
                break
        current = nxt
        t += 1

    kept = [s for s in recorded if include_singletons or len(s.attrs) > 1]
    return SubspaceSet(subspaces=kept, levels=levels, events=events)
