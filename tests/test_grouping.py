import numpy as np
import pytest

import aag.grouping as grouping
from aag.grouping import PairCache, SubspaceSet, jaccard, run_aag, should_unify
from aag.measures import normalized_measure, total_correlation
from aag.table import DiscreteTable, table_from_rows

import oracles
from conftest import random_table, table_from_columns


class TestJaccard:
    def test_identical(self):
        assert jaccard((1, 2), (1, 2)) == 1.0

    def test_disjoint(self):
        assert jaccard((1, 2), (3, 4)) == 0.0

    def test_half_overlap(self):
        assert jaccard((1, 2), (1, 2, 3, 4)) == 0.5

    def test_rejects_two_empty_sets(self):
        with pytest.raises(ValueError):
            jaccard((), ())


class TestShouldUnify:
    def test_early_levels_always_unify(self, quad_table):
        assert should_unify(quad_table, (0,), (1,), t=1)
        assert should_unify(quad_table, (0, 1), (2,), t=2)

    def test_disjoint_multiattr_pairs_skip_the_tc_evaluation(self, quad_table, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("total correlation should not be evaluated")

        monkeypatch.setattr(grouping, "total_correlation", boom)
        assert should_unify(quad_table, (0, 1), (2, 3), t=3)

    def test_nested_pairs_never_unify(self, quad_table):
        assert not should_unify(quad_table, (0,), (0, 1), t=3)
        assert not should_unify(quad_table, (0, 1, 2), (1, 2), t=3)

    def test_overlapping_pairs_use_the_weighted_tc_rule(self, quad_table):
        a, b = (0, 1), (1, 3)
        union = (0, 1, 3)
        lhs = total_correlation(quad_table, union)
        rhs = (2 / 3) * total_correlation(quad_table, a) + (2 / 3) * total_correlation(
            quad_table, b
        )
        assert should_unify(quad_table, a, b, t=3) == (lhs >= rhs)

    def test_disjoint_unions_are_tc_superadditive(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = random_table(rng, n_rows=int(rng.integers(8, 30)), n_attrs=5)
            a, b = (0, 1), (2, 3, 4)
            assert total_correlation(t, a + b) >= (
                total_correlation(t, a) + total_correlation(t, b) - 1e-9
            )


def replay_reference(table, cap=3):
    """Step-by-step re-run of the search with uncached oracle measures."""
    nm = {}

    def measure(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in nm:
            nm[key] = oracles.normalized_measure_of(table, a, b, cap)
        return nm[key]

    def unify(a, b, t):
        sa, sb = set(a), set(b)
        if t <= 2:
            return True
        if not (sa & sb) and len(sa) >= 2 and len(sb) >= 2:
            return True
        if sa <= sb or sb <= sa:
            return False
        union = tuple(sorted(sa | sb))
        va, vb = len(sa) / len(union), len(sb) / len(union)
        tc = lambda s: max(0.0, oracles.total_correlation_of(table, s))  # noqa: E731
        return tc(union) >= va * tc(a) + vb * tc(b)

    def union(a, b):
        return tuple(sorted(set(a) | set(b)))

    current = [(i,) for i in range(table.n_attrs)]
    t, seen, out, levels = 1, set(), [], []
    while True:
        levels.append(list(current))
        for s in current:
            if s not in seen:
                seen.add(s)
                out.append((s, t))
        if len(current) < 2:
            break
        frozen = list(current)
        nxt, merged_any = [], False
        d, (a, b) = min(
            ((measure(x, y), (x, y) if x <= y else (y, x)) for i, x in enumerate(current)
             for y in current[i + 1:]),
            key=lambda item: (round(item[0], 12), item[1]),
        )
        current.remove(a)
        current.remove(b)
        if unify(a, b, t):
            if union(a, b) not in nxt:
                nxt.append(union(a, b))
            merged_any = True
        while current and nxt:
            d_grow, (ai, aj) = min(
                ((measure(x, y), (x, y)) for x in current for y in nxt),
                key=lambda item: (round(item[0], 12), (item[1] if item[1][0] <= item[1][1]
                                                       else (item[1][1], item[1][0]))),
            )
            d_pair, ak = min(
                ((measure(x, ai), x) for x in frozen if x != ai),
                key=lambda item: (round(item[0], 12), item[1]),
            )
            if round(d_grow, 12) >= round(d_pair, 12):
                current.remove(ai)
                if ak in current:
                    current.remove(ak)
                if unify(ai, ak, t):
                    if union(ai, ak) not in nxt:
                        nxt.append(union(ai, ak))
                    merged_any = True
            else:
                current.remove(ai)
                if unify(ai, aj, t):
                    u = union(ai, aj)
                    if u != aj:
                        idx = nxt.index(aj)
                        if u in nxt:
                            nxt.pop(idx)
                        else:
                            nxt[idx] = u
                    merged_any = True
        if current:
            if merged_any:
                nxt.extend(x for x in current if x not in nxt)
            else:
                break
        current = nxt
        t += 1
    return [s for s, level in out if len(s) > 1], levels


def exact_tie_table(seed):
    """A small table whose merges turn on exact ties that rounding noise can break.

    At seeds 40 and 173 (10 rows, arities 1, 1, 2, 3, 2) nm((2,), (3,)) is
    exactly 1 but reads 1.0 in the library and 0.9999999999999998 in the
    oracle. At 142 and 2642 (shape drawn too) the library's own measures
    carry the noise; compared unrounded, its seed, pairing or grow-vs-merge
    choice follows it.
    """
    rng = np.random.default_rng(seed)
    if seed in (40, 173):
        return table_from_columns(*(rng.integers(0, r, size=10) for r in (1, 1, 2, 3, 2)))
    n_rows, n_attrs = int(rng.integers(6, 16)), int(rng.integers(4, 7))
    return table_from_columns(*(rng.integers(0, r, size=n_rows)
                                for r in rng.integers(1, 4, size=n_attrs)))


class TestRunAag:
    def test_run_leaves_the_table_as_constructed(self):
        t = random_table(np.random.default_rng(31), n_rows=30, n_attrs=4)
        fresh = DiscreteTable(t.codes.copy())
        run_aag(t)
        state, want = dict(vars(t)), dict(vars(fresh))
        assert np.array_equal(state.pop("_codes"), want.pop("_codes"))
        assert state == want

    @pytest.mark.parametrize("cap", [1, 4])
    def test_cap_outside_two_or_three_raises(self, cap):
        t = random_table(np.random.default_rng(32), n_rows=20, n_attrs=4)
        with pytest.raises(ValueError, match="cap"):
            run_aag(t, cap=cap)

    def test_two_identical_attributes_merge(self):
        col = [0, 1, 2, 0, 1]
        t = table_from_columns(col, col)
        result = run_aag(t)
        assert result.attr_sets() == [(0, 1)]

    def test_singletons_included_on_request(self):
        col = [0, 1, 2, 0, 1]
        t = table_from_columns(col, col)
        result = run_aag(t, include_singletons=True)
        assert result.attr_sets() == [(0,), (1,), (0, 1)]

    def test_level_one_covers_every_attribute(self):
        rng = np.random.default_rng(22)
        t = random_table(rng, n_rows=20, n_attrs=6)
        result = run_aag(t)
        assert sorted(a for (a,) in result.levels[0]) == list(range(6))

    def test_closest_identical_pair_merges_first(self, seven_attr_table):
        result = run_aag(seven_attr_table)
        first = result.events[0]
        assert first.kind == "seed"
        assert {first.left, first.right} == {(5,), (6,)}
        assert first.measure == pytest.approx(0.0, abs=1e-12)

    def test_early_absorptions_and_their_alternatives(self, seven_attr_table):
        events = run_aag(seven_attr_table).events
        assert events[1].kind == "grow"
        assert events[1].left == (0,)
        assert events[1].measure == pytest.approx(0.292, abs=5e-3)
        assert events[1].alt_measure == pytest.approx(0.708, abs=5e-3)
        assert events[2].kind == "grow"
        assert events[2].left == (2,)
        assert events[2].measure == pytest.approx(0.051, abs=5e-3)

    def test_no_duplicate_subspaces(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            t = random_table(rng, n_rows=int(rng.integers(10, 30)), n_attrs=6)
            sets = run_aag(t).attr_sets()
            assert len(sets) == len(set(sets))

    def test_level_count_bounded(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            p = int(rng.integers(3, 9))
            t = random_table(rng, n_rows=25, n_attrs=p)
            result = run_aag(t)
            assert len(result.levels) <= int(np.ceil(np.log2(p))) + 1

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(25)
        t = random_table(rng, n_rows=25, n_attrs=6)
        r1 = run_aag(t)
        r2 = run_aag(DiscreteTable(t.codes.copy()))
        assert r1.attr_sets() == r2.attr_sets()
        assert r1.levels == r2.levels

    def test_matches_unmemoized_replay(self):
        tables = [random_table(np.random.default_rng(seed), n_rows=12, n_attrs=5)
                  for seed in (31, 32, 33, 34, 35)]
        rng = np.random.default_rng(26)
        tables += [random_table(rng, n_rows=20, n_attrs=5) for _ in range(3)]
        for t in tables:
            result = run_aag(t)
            want_sets, want_levels = replay_reference(t)
            assert result.attr_sets() == want_sets
            assert result.levels == want_levels

    def test_constant_columns_match_the_replay(self):
        # at ten rows log2(N) - N log2(N) / N rounds below zero, so the
        # constant subsets are skipped only if one block gives exactly 0.0
        t = table_from_columns([0] * 10, [0] * 10, [1] * 10,
                               [1, 2, 1, 2, 2, 1, 0, 1, 1, 2], [1, 1, 1, 1, 0, 1, 1, 1, 1, 1])
        result = run_aag(t)
        want_sets, want_levels = replay_reference(t)
        assert result.attr_sets() == want_sets
        assert result.levels == want_levels

    @pytest.mark.parametrize("seed", [40, 173, 142, 2642])
    def test_exact_ties_break_on_the_lexicographic_rule(self, seed):
        t = exact_tie_table(seed)
        result = run_aag(t)
        want_sets, want_levels = replay_reference(t)
        assert result.attr_sets() == want_sets
        assert result.levels == want_levels
        # events keep the unrounded measures
        for e in result.events:
            assert e.measure == normalized_measure(t, e.left, e.right)
        assert any(e.measure != round(e.measure, 12) for e in result.events)

    def test_rejects_single_attribute_table(self):
        t = table_from_rows([[0], [1]])
        with pytest.raises(ValueError):
            run_aag(t)

    def test_frozen_snapshot_can_produce_overlapping_subspaces(self):
        # attribute 0 has two exact copies; the pairing path re-uses it from
        # the frozen level snapshot after it was already merged away, so two
        # sibling subspaces share it
        rng = np.random.default_rng(7)
        dup = rng.integers(0, 4, size=24)
        t = table_from_columns(dup, dup, dup,
                               rng.integers(0, 3, size=24), rng.integers(0, 3, size=24))
        result = run_aag(t)
        assert result.levels[1] == [(0, 1, 3, 4), (0, 2)]
        merge = next(e for e in result.events if e.kind == "merge")
        assert merge.left == (2,)
        assert merge.right == (0,)
        assert result.attr_sets() == [(0, 1, 3, 4), (0, 2), (0, 1, 2, 3, 4)]


class TestPairCache:
    def test_cached_values_match_fresh_recomputation(self):
        rng = np.random.default_rng(27)
        t = random_table(rng, n_rows=15, n_attrs=4)
        cache = PairCache()
        pairs = [((0,), (1,)), ((0, 1), (2,)), ((0, 1, 2), (3,))]
        for a, b in pairs:
            cache.measure(t, a, b, cap=3)
        for a, b in pairs:
            assert cache.measure(t, a, b, cap=3) == normalized_measure(t, a, b)
        assert len(cache) == len(pairs)

    def test_lookup_is_symmetric(self):
        rng = np.random.default_rng(28)
        t = random_table(rng, n_rows=15, n_attrs=3)
        cache = PairCache()
        first = cache.measure(t, (0,), (1, 2), cap=3)
        second = cache.measure(t, (1, 2), (0,), cap=3)
        assert first == second
        assert len(cache) == 1


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(29)
        t = random_table(rng, n_rows=20, n_attrs=5)
        result = run_aag(t)
        loaded = SubspaceSet.from_json(result.to_json())
        assert loaded.attr_sets() == result.attr_sets()
        assert loaded.levels == result.levels
        assert [s.level for s in loaded.subspaces] == [s.level for s in result.subspaces]
