import math
from collections import Counter
from contextlib import contextmanager
from functools import cache, partial
from itertools import combinations, permutations
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aag import measures
from aag import table as aag_table
from aag.ensemble import fit_detector
from aag.grouping import run_aag
from aag.measures import (
    PairCache,
    conditional_entropy,
    entropy,
    induce_partition,
    interaction_information,
    joint_entropy,
    multi_attribute_measure,
    mutual_information,
    normalized_measure,
    rokhlin_distance,
    symmetric_uncertainty,
    total_correlation,
)
from aag.table import DiscreteTable, Partition, table_from_rows

import oracles
from conftest import random_table, table_from_columns
from synth import grouped_columns

# Row counts at which log2(N) - N log2(N) / N, the entropy formula applied
# to a single block of N rows, rounds to -4.4e-16 instead of 0
ROUNDING_N = (10, 11, 13, 29, 47, 48, 49, 58)


class TestInducePartition:
    def test_binary_column_blocks(self, pair_table):
        part = induce_partition(pair_table, [0])
        assert part.blocks() == [[0, 2, 4, 5, 7, 8], [1, 3, 6, 9]]
        assert part.block_sizes.tolist() == [6, 4]

    def test_three_symbol_column_blocks(self, pair_table):
        part = induce_partition(pair_table, [1])
        # first-occurrence order: R, G, B
        assert part.blocks() == [[0, 2, 5, 8], [1, 3, 4, 9], [6, 7]]

    def test_distinct_column_gives_singletons(self, quad_table):
        part = induce_partition(quad_table, [0, 1, 2, 3])
        assert part.n_blocks == quad_table.n_rows
        assert all(s == 1 for s in part.block_sizes)

    def test_matches_brute_force_grouping(self):
        rng = np.random.default_rng(8)
        t = random_table(rng, n_rows=8, n_attrs=3)
        part = induce_partition(t, [0, 1, 2])
        assert part.blocks() == oracles.group_rows_by_tuple(t, (0, 1, 2))

    def test_rejects_empty_and_out_of_range(self, pair_table):
        with pytest.raises(ValueError):
            induce_partition(pair_table, [])
        with pytest.raises(ValueError):
            induce_partition(pair_table, [4])


class TestEntropy:
    def test_binary_partition(self, pair_table):
        assert entropy(induce_partition(pair_table, [0])) == pytest.approx(0.971, abs=1e-3)

    def test_three_block_partition(self, pair_table):
        assert entropy(induce_partition(pair_table, [1])) == pytest.approx(1.522, abs=1e-3)

    def test_constant_column_is_exactly_zero(self):
        t = table_from_rows([[0], [0], [0]])
        assert entropy(induce_partition(t, [0])) == 0.0

    def test_partition_of_no_rows_is_zero(self):
        empty = np.zeros(0, dtype=np.int64)
        assert entropy(Partition(block_of=empty, block_sizes=empty, n_rows=0)) == 0.0

    @pytest.mark.parametrize("n_rows", ROUNDING_N)
    def test_single_block_is_exactly_zero_where_the_formula_rounds(self, n_rows):
        # a column of arity 2 that uses one code: one block, two keys
        t = DiscreteTable(np.ones((n_rows, 1), dtype=np.int64))
        assert entropy(induce_partition(t, [0])) == 0.0
        assert joint_entropy(t, (0,)) == 0.0
        assert PairCache().total_correlation(t, (0,)) == 0.0

    def test_bounded_by_log_rows(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = random_table(rng, n_rows=int(rng.integers(2, 25)), n_attrs=2)
            h = joint_entropy(t, (0, 1))
            assert 0.0 <= h <= math.log2(t.n_rows) + 1e-12


class TestConditionalEntropy:
    def test_worked_pair_values(self, pair_table):
        assert conditional_entropy(pair_table, [0], [1]) == pytest.approx(0.525, abs=1e-3)
        assert conditional_entropy(pair_table, [1], [0]) == pytest.approx(1.076, abs=1e-3)

    def test_self_conditioning_is_zero(self, quad_table):
        for a in range(quad_table.n_attrs):
            assert conditional_entropy(quad_table, [a], [a]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_sum_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(5, 30)), n_attrs=3)
            got = conditional_entropy(t, [0], [1, 2])
            want = oracles.conditional_entropy_of(t, (0,), (1, 2))
            assert got == pytest.approx(want, abs=1e-9)

    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(5, 30)), n_attrs=3)
            assert conditional_entropy(t, [0], [1]) <= joint_entropy(t, (0,)) + 1e-9
            assert conditional_entropy(t, [0], [1, 2]) <= conditional_entropy(t, [0], [1]) + 1e-9

    def test_chain_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(5, 30)), n_attrs=4)
            h_joint = joint_entropy(t, (0, 1, 2, 3))
            h_chain = joint_entropy(t, (0, 1)) + conditional_entropy(t, [2, 3], [0, 1])
            assert h_joint == pytest.approx(h_chain, abs=1e-9)


class TestRokhlinDistance:
    def test_worked_pair_value(self, pair_table):
        assert rokhlin_distance(pair_table, [0], [1]) == pytest.approx(1.60, abs=1e-2)

    def test_zero_on_self(self, quad_table):
        for a in range(quad_table.n_attrs):
            assert rokhlin_distance(quad_table, [a], [a]) == 0.0

    def test_zero_iff_same_partition(self, seven_attr_table):
        # attributes 5 and 6 induce identical partitions
        assert rokhlin_distance(seven_attr_table, [5], [6]) == pytest.approx(0.0, abs=1e-12)
        assert rokhlin_distance(seven_attr_table, [4], [5]) > 0.01

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(5, 25)), n_attrs=3)
            d01 = rokhlin_distance(t, [0], [1])
            d10 = rokhlin_distance(t, [1], [0])
            assert d01 == pytest.approx(d10, abs=1e-12)
            d02 = rokhlin_distance(t, [0], [2])
            d12 = rokhlin_distance(t, [1], [2])
            assert d01 <= d02 + d12 + 1e-9


class TestInteractionInformation:
    def test_worked_triple_value(self, quad_table):
        assert interaction_information(quad_table, [0, 1, 2]) == pytest.approx(0.446, abs=1e-3)

    def test_pairs_are_zero(self, quad_table):
        assert interaction_information(quad_table, [0, 1]) == 0.0

    def test_symmetric_in_all_attributes(self, quad_table):
        values = {
            round(interaction_information(quad_table, list(p)), 12)
            for p in permutations([0, 1, 3])
        }
        assert len(values) == 1

    def test_matches_contingency_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = random_table(rng, n_rows=12, n_attrs=3)
            got = interaction_information(t, [0, 1, 2])
            assert got == pytest.approx(oracles.interaction_information_of(t, (0, 1, 2)), abs=1e-9)

    def test_rejects_unsupported_arity(self, quad_table):
        with pytest.raises(ValueError):
            interaction_information(quad_table, [0])
        with pytest.raises(ValueError):
            interaction_information(quad_table, [0, 1, 2, 3])


class TestMultiAttributeMeasure:
    def test_most_informative_triple(self, quad_table):
        assert multi_attribute_measure(quad_table, [0, 1, 2]) == pytest.approx(1.722, abs=1e-3)
        assert multi_attribute_measure(quad_table, [0, 1, 3]) == pytest.approx(1.469, abs=1e-3)

    def test_remaining_triples_match_oracle(self, quad_table):
        # frozen from the contingency-table oracle
        assert multi_attribute_measure(quad_table, [0, 2, 3]) == pytest.approx(
            2.2199730940219755, abs=1e-9
        )
        assert multi_attribute_measure(quad_table, [1, 2, 3]) == pytest.approx(
            1.4729055953200563, abs=1e-9
        )
        for trip in combinations(range(4), 3):
            got = multi_attribute_measure(quad_table, trip)
            assert got == pytest.approx(oracles.multi_attribute_of(quad_table, trip), abs=1e-9)

    def test_argmin_triple_is_the_correlated_one(self, quad_table):
        scored = {
            trip: multi_attribute_measure(quad_table, trip) for trip in combinations(range(4), 3)
        }
        assert min(scored, key=scored.get) == (0, 1, 3)

    def test_pair_reduces_to_rokhlin(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_table(rng, n_rows=int(rng.integers(5, 25)), n_attrs=2)
            assert multi_attribute_measure(t, [0, 1]) == rokhlin_distance(t, [0], [1])

    def test_identical_patterns_measure_zero(self):
        col = [0, 1, 2, 0, 1, 2]
        t = table_from_columns(col, col)
        assert multi_attribute_measure(t, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_capped_set_takes_minimum_subset(self, quad_table):
        want = min(
            oracles.multi_attribute_of(quad_table, trip) for trip in combinations(range(4), 3)
        )
        assert multi_attribute_measure(quad_table, [0, 1, 2, 3], cap=3) == pytest.approx(
            want, abs=1e-12
        )

    def test_adding_an_attribute_can_raise_the_measure(self, quad_table):
        # a nested superset is not always closer: the all-distinct counter
        # contributes its own conditional entropy
        pair = multi_attribute_measure(quad_table, [0, 1])
        triple = multi_attribute_measure(quad_table, [0, 1, 2])
        assert pair < triple

    def test_exact_measure_is_signed_and_not_monotone(self):
        # every triple of bits once: x, y, z independent fair bits
        bits = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        independent = table_from_rows([[x, y, z] for x, y, z in bits])
        xor = table_from_rows([[x, y, x ^ y] for x, y, _ in bits])
        assert multi_attribute_measure(independent, [0, 1]) == pytest.approx(2.0, abs=1e-12)
        assert multi_attribute_measure(independent, [0, 1, 2]) == pytest.approx(3.0, abs=1e-12)
        assert multi_attribute_measure(xor, [0, 1, 2]) == pytest.approx(-1.0, abs=1e-12)
        assert multi_attribute_measure(xor, [0, 1, 2]) == pytest.approx(
            oracles.multi_attribute_of(xor, (0, 1, 2)), abs=1e-12
        )

    def test_rejects_single_attribute_and_bad_cap(self, quad_table):
        with pytest.raises(ValueError):
            multi_attribute_measure(quad_table, [0])
        with pytest.raises(ValueError):
            multi_attribute_measure(quad_table, [0, 1], cap=4)


class TestNormalizedMeasure:
    def test_worked_values(self, seven_attr_table):
        assert normalized_measure(seven_attr_table, [5], [6]) == pytest.approx(0.0, abs=1e-12)
        assert normalized_measure(seven_attr_table, [5, 6], [0]) == pytest.approx(0.292, abs=5e-3)
        assert normalized_measure(seven_attr_table, [0], [2]) == pytest.approx(0.708, abs=5e-3)
        assert normalized_measure(seven_attr_table, [0, 5, 6], [2]) == pytest.approx(
            0.051, abs=5e-3
        )

    def test_capped_union_scans_subsets_touching_both_sides(self, seven_attr_table):
        got = normalized_measure(seven_attr_table, [0, 2, 5, 6], [3])
        want = oracles.normalized_measure_of(seven_attr_table, (0, 2, 5, 6), (3,))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.1718732549730363, abs=1e-9)

    def test_symmetric(self, seven_attr_table):
        for a, b in [((0,), (2,)), ((0, 5, 6), (2,)), ((0, 2, 5, 6), (3,))]:
            assert normalized_measure(seven_attr_table, a, b) == normalized_measure(
                seven_attr_table, b, a
            )

    def test_single_attribute_pairs_stay_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(4, 25)), n_attrs=2)
            value = normalized_measure(t, [0], [1])
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_constant_subset_is_skipped_at_ten_rows(self):
        # cap 2: (0, 1) is constant and skipped, (0, 2) scores m/H = 1, and
        # (1, 2) does not touch the side (0,)
        t = table_from_columns([0] * 10, [0] * 10, [0, 1] * 5, [0] * 10, [0] * 10)
        assert t.arities == (1, 1, 2, 1, 1)
        assert oracles.normalized_measure_of(t, (0,), (0, 1, 2), 2) == 1.0
        assert normalized_measure(t, (0,), (0, 1, 2), 2) == 1.0
        assert PairCache().measure(t, (0,), (0, 1, 2), 2) == 1.0

    def test_degenerate_union_scores_zero(self):
        t = table_from_rows([[0, 0], [0, 0], [0, 0]])
        assert normalized_measure(t, [0], [1]) == 0.0

    @pytest.mark.parametrize("a, b", [([0], [0]), ([1], [1, 1])])
    def test_a_union_of_one_attribute_is_refused(self, seven_attr_table, a, b):
        with pytest.raises(ValueError, match="at least two attributes"):
            normalized_measure(seven_attr_table, a, b)

    @pytest.mark.parametrize("cap", [1, 4])
    def test_cap_outside_two_or_three_is_refused(self, seven_attr_table, cap):
        with pytest.raises(ValueError, match="cap must be 2 or 3"):
            normalized_measure(seven_attr_table, [0, 1, 2], [3, 4], cap=cap)


class TestTotalCorrelation:
    def test_worked_values(self, quad_table):
        assert total_correlation(quad_table, [0, 1, 3]) == pytest.approx(1.093, abs=1e-3)
        assert total_correlation(quad_table, [0, 1, 2]) == pytest.approx(2.493, abs=1e-3)

    def test_single_attribute_is_zero(self, quad_table):
        for a in range(quad_table.n_attrs):
            assert total_correlation(quad_table, [a]) == 0.0

    def test_non_negative_and_non_decreasing(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            t = random_table(rng, n_rows=int(rng.integers(5, 30)), n_attrs=4)
            tc3 = total_correlation(t, [0, 1, 2])
            tc4 = total_correlation(t, [0, 1, 2, 3])
            assert tc3 >= 0.0
            assert tc4 >= tc3 - 1e-9

    def test_matches_oracle(self, quad_table):
        for trip in combinations(range(4), 3):
            assert total_correlation(quad_table, trip) == pytest.approx(
                oracles.total_correlation_of(quad_table, trip), abs=1e-9
            )


class TestSymmetricUncertainty:
    def test_self_is_one(self, quad_table):
        for a in range(quad_table.n_attrs):
            assert symmetric_uncertainty(quad_table, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_independent_attributes_give_zero(self):
        t = table_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert symmetric_uncertainty(t, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_both_constant_gives_zero(self):
        t = table_from_rows([[0, 0], [0, 0]])
        assert symmetric_uncertainty(t, 0, 1) == 0.0

    def test_both_constant_gives_zero_at_ten_rows(self):
        t = DiscreteTable(np.zeros((10, 2), dtype=np.int64))
        assert symmetric_uncertainty(t, 0, 1) == 0.0 == oracles.symmetric_uncertainty_of(t, 0, 1)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = random_table(rng, n_rows=10, n_attrs=2)
            assert symmetric_uncertainty(t, 0, 1) == pytest.approx(
                oracles.symmetric_uncertainty_of(t, 0, 1), abs=1e-9
            )


class TestInvariances:
    def test_row_permutation_leaves_measures_unchanged(self):
        rng = np.random.default_rng(12)
        t = random_table(rng, n_rows=20, n_attrs=3)
        shuffled = t.take_rows(rng.permutation(20))
        assert joint_entropy(shuffled, (0, 1, 2)) == pytest.approx(
            joint_entropy(t, (0, 1, 2)), abs=1e-12
        )
        assert rokhlin_distance(shuffled, [0], [1]) == pytest.approx(
            rokhlin_distance(t, [0], [1]), abs=1e-12
        )
        assert multi_attribute_measure(shuffled, [0, 1, 2]) == pytest.approx(
            multi_attribute_measure(t, [0, 1, 2]), abs=1e-12
        )

    def test_code_relabeling_leaves_measures_unchanged(self):
        rng = np.random.default_rng(13)
        t = random_table(rng, n_rows=20, n_attrs=2)
        relabeled = []
        for j in range(2):
            arity = t.arities[j]
            perm = rng.permutation(arity)
            relabeled.append(perm[t.codes[:, j]])
        t2 = DiscreteTable(np.column_stack(relabeled))
        assert rokhlin_distance(t2, [0], [1]) == pytest.approx(
            rokhlin_distance(t, [0], [1]), abs=1e-12
        )
        assert mutual_information(t2, (0,), (1,)) == pytest.approx(
            mutual_information(t, (0,), (1,)), abs=1e-12
        )

    def test_memoized_entropy_matches_fresh_table(self):
        rng = np.random.default_rng(14)
        t = random_table(rng, n_rows=25, n_attrs=4)
        first = joint_entropy(t, (0, 2, 3))
        again = joint_entropy(t, (0, 2, 3))
        fresh = joint_entropy(DiscreteTable(t.codes.copy()), (0, 2, 3))
        assert first == again == fresh

    def test_concurrent_measure_calls_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(15)
        t = random_table(rng, n_rows=40, n_attrs=5)
        queries = [tuple(sorted(rng.choice(5, size=int(rng.integers(1, 4)), replace=False)))
                   for _ in range(60)]
        want = {q: joint_entropy(DiscreteTable(t.codes.copy()), q) for q in set(queries)}
        # joint_entropy keeps no state, so threads sharing one table must all
        # get the values a single-threaded fresh table gives
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda q: (q, joint_entropy(t, q)), queries * 5))
        for q, h in results:
            assert h == want[q]


@st.composite
def cache_cases(draw):
    """A random table and attribute-set pairs with a cap each.

    Columns have arity 1 to 5, so constant columns occur. Pairs may
    overlap, nest or be disjoint, and their unions may exceed the cap.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_attrs = draw(st.integers(3, 7))
    arities = draw(st.lists(st.integers(1, 5), min_size=n_attrs, max_size=n_attrs))
    table = DiscreteTable(rng.integers(0, arities, size=(draw(st.integers(8, 40)), n_attrs)))
    attrs = st.sets(st.integers(0, n_attrs - 1), min_size=1).map(lambda s: tuple(sorted(s)))
    pair = st.tuples(attrs, attrs, st.sampled_from((2, 3)))
    pairs = draw(st.lists(pair.filter(lambda p: len(set(p[0]) | set(p[1])) >= 2),
                          min_size=1, max_size=8))
    return table, pairs


class TestPairCache:
    @settings(max_examples=40)
    @given(cache_cases())
    def test_shared_cache_matches_fresh_measures_and_oracle(self, case):
        table, pairs = case
        cache = PairCache()
        for a, b, cap in pairs:
            got = cache.measure(table, a, b, cap)
            assert got == normalized_measure(table, a, b, cap)
            assert got == pytest.approx(oracles.normalized_measure_of(table, a, b, cap), abs=1e-9)
            assert cache.measure(table, b, a, cap) == got
            union = tuple(sorted(set(a) | set(b)))
            tc = cache.total_correlation(table, union)
            assert tc == total_correlation(table, union)
            assert tc == pytest.approx(max(0.0, oracles.total_correlation_of(table, union)),
                                       abs=1e-9)
        assert len(cache) == len({(min(a, b), max(a, b), cap) for a, b, cap in pairs})

    def test_pairs_are_keyed_by_cap(self):
        t = random_table(np.random.default_rng(16), n_rows=30, n_attrs=4)
        cache = PairCache()
        by_cap = {cap: cache.measure(t, (0, 1), (2, 3), cap) for cap in (2, 3)}
        assert by_cap == {cap: normalized_measure(t, (0, 1), (2, 3), cap) for cap in (2, 3)}
        assert len(cache) == 2

    def test_second_table_raises(self):
        t = random_table(np.random.default_rng(17), n_rows=30, n_attrs=4)
        cache = PairCache()
        cache.measure(t, (0,), (1,), 3)
        other = DiscreteTable(t.codes.copy())
        with pytest.raises(ValueError):
            cache.measure(other, (0,), (1,), 3)
        with pytest.raises(ValueError):
            cache.total_correlation(other, (0, 1))
        assert cache.measure(t, (1,), (0,), 3) == normalized_measure(t, (0,), (1,))


@st.composite
def score_tables(draw):
    """8 to 60 rows (the rounding row counts drawn often) and 4 to 9
    columns of arity 1 to 4; up to three columns are made constant, so
    pairs and triples of them carry no information (H = 0)."""
    n_rows = draw(st.sampled_from(ROUNDING_N) | st.integers(8, 60))
    n_attrs = draw(st.integers(4, 9))
    arities = draw(st.lists(st.integers(1, 4), min_size=n_attrs, max_size=n_attrs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, arities, size=(n_rows, n_attrs))
    for column in draw(st.lists(st.integers(0, n_attrs - 1), max_size=3)):
        codes[:, column] = draw(st.integers(0, 2))
    return DiscreteTable(codes)


@st.composite
def side_pairs(draw, n_attrs, kind):
    """Two attribute sets whose union is a drawn set of two or more
    attributes: ``disjoint``, ``overlapping`` (each side has an attribute
    the other lacks, and they share one) or ``nested`` (a within b)."""
    low = 3 if kind == "overlapping" else 2
    union = draw(st.lists(st.integers(0, n_attrs - 1), min_size=low, max_size=n_attrs,
                          unique=True))
    if kind == "nested":
        a = draw(st.lists(st.sampled_from(union), min_size=1, unique=True))
        b = union
    else:
        k = draw(st.integers(1, len(union) - (2 if kind == "overlapping" else 1)))
        shared = [union[k]] if kind == "overlapping" else []
        a, b = union[:k] + shared, union[k:]
    a, b = tuple(sorted(a)), tuple(sorted(b))
    return (b, a) if draw(st.booleans()) else (a, b)


def assert_same_measure(table, cache, a, b, cap):
    """PairCache, the public function and the oracle's loop over the
    sort-path entropies give the same bits; the contingency oracle agrees."""
    ref = partial(oracles.sort_path_entropy, table)
    got = cache.measure(table, a, b, cap)
    assert type(got) is float
    assert got.hex() == normalized_measure(table, a, b, cap).hex()
    assert got.hex() == oracles.normalized_measure_by(ref, a, b, cap).hex()
    assert got == pytest.approx(oracles.normalized_measure_of(table, a, b, cap), abs=1e-9)


class TestScoreArrays:
    @settings(max_examples=60)
    @given(score_tables(), st.sampled_from((2, 3)), st.data())
    def test_gather_matches_public_measure_and_oracles(self, table, cap, data):
        cache = PairCache()
        for kind in ("disjoint", "overlapping", "nested"):
            for a, b in data.draw(st.lists(side_pairs(table.n_attrs, kind), min_size=1,
                                           max_size=4)):
                assert_same_measure(table, cache, a, b, cap)

    @settings(max_examples=30)
    @given(score_tables(), st.sampled_from((2, 3)), st.data())
    def test_unions_of_cap_and_one_more(self, table, cap, data):
        cache = PairCache()
        for size in (cap, cap + 1):
            union = data.draw(st.lists(st.integers(0, table.n_attrs - 1), min_size=size,
                                       max_size=size, unique=True))
            k = data.draw(st.integers(1, size - 1))
            assert_same_measure(table, cache, tuple(sorted(union[:k])),
                                tuple(sorted(union[k:])), cap)

    @settings(max_examples=30)
    @given(score_tables(), st.sampled_from((2, 3)))
    def test_multi_attribute_measure_is_the_least_subset_measure(self, table, cap):
        ref = cache(partial(oracles.sort_path_entropy, table))
        for s in all_sets(table.n_attrs)[table.n_attrs:]:
            subsets = [s] if len(s) <= cap else combinations(s, cap)
            want = min(oracles.multi_attribute_by(ref, c) for c in subsets)
            assert multi_attribute_measure(table, s, cap).hex() == want.hex()

    @pytest.mark.parametrize("cap", [2, 3])
    def test_every_subset_degenerate_scores_zero(self, cap):
        # four constant columns and one that varies: every subset of the
        # constant ones has H = 0, so the fallback reads only +inf
        t = table_from_columns(*[[0] * 13] * 4, [0, 1, 2] * 4 + [1])
        for a, b in [((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((0, 1, 2), (1, 2, 3))]:
            assert PairCache().measure(t, a, b, cap) == 0.0
            assert_same_measure(t, PairCache(), a, b, cap)
        # with the varying column a subset carries information, and scores 1
        assert PairCache().measure(t, (0, 1), (2, 4), cap) == 1.0

    @pytest.mark.parametrize("cap", [2, 3])
    def test_degenerate_subsets_do_not_win_the_minimum(self, cap):
        rng = np.random.default_rng(24)
        t = DiscreteTable(np.column_stack([np.zeros(30, dtype=np.int64)] * 3
                                          + [rng.integers(0, 3, size=(30, 3))]))
        for a, b in [((0, 3), (1, 4)), ((0, 1, 3), (2, 4, 5)), ((0, 3, 4), (1, 2))]:
            value = PairCache().measure(t, a, b, cap)
            assert value > 0.0
            assert_same_measure(t, PairCache(), a, b, cap)


def contingency_of(table, attrs):
    """Dense contingency table of ``attrs`` from the oracle's dict counts."""
    out = np.zeros([table.arities[a] for a in attrs], dtype=np.int64)
    for key, count in oracles.counts_of(table, attrs).items():
        out[key] = count
    return out


@st.composite
def kernel_tables(draw):
    """1 to 60 rows (the rounding row counts drawn often) and 1 to 5
    columns of arity 1 to 7. Codes need not all occur, so a set's key space
    can exceed its blocks, and its size falls on both sides of 4 N."""
    n_rows = draw(st.sampled_from(ROUNDING_N) | st.integers(1, 60))
    n_attrs = draw(st.integers(1, 5))
    arities = draw(st.lists(st.integers(1, 7), min_size=n_attrs, max_size=n_attrs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DiscreteTable(rng.integers(0, arities, size=(n_rows, n_attrs)))


def tuple_ranks(table, attrs):
    """Each row's rank among the distinct code tuples of ``attrs``, from
    the oracle's row tuples."""
    tuples = oracles.row_tuples(table, attrs)
    rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
    return np.array([rank[t] for t in tuples])


@contextmanager
def renumberings():
    """The sizes of the arrays the joint key renumbers densely inside the block."""
    calls = []

    def spy(values, _original=aag_table._dense):
        calls.append(values.size)
        return _original(values)
    with mock.patch.object(aag_table, "_dense", spy):
        yield calls


def all_sets(n_attrs, width=None):
    """Every attribute set of at most ``width`` attributes (default: all)."""
    return [s for k in range(1, (width or n_attrs) + 1) for s in combinations(range(n_attrs), k)]


class TestCountingKernel:
    @settings(max_examples=60)
    @given(kernel_tables())
    def test_joint_entropy_matches_sort_path_and_oracle(self, table):
        for s in all_sets(table.n_attrs):
            h = joint_entropy(table, s)
            assert h == oracles.sort_path_entropy(table, s)
            assert h == pytest.approx(oracles.entropy_of(table, s), abs=1e-9)

    @settings(max_examples=40)
    @given(kernel_tables(), st.sampled_from((2, 3)))
    def test_bound_cache_matches_sort_path(self, table, cap):
        ref = partial(oracles.sort_path_entropy, table)
        cache = PairCache()
        for s in all_sets(table.n_attrs):
            assert cache.total_correlation(table, s) == measures._total_correlation(ref, s)
            for k in range(1, len(s)):
                a, b = s[:k], s[k - 1:]
                assert cache.measure(table, a, b, cap) == oracles.normalized_measure_by(
                    ref, a, b, cap)

    @settings(max_examples=40)
    @given(kernel_tables())
    def test_joint_key_sorts_as_tuples_and_counts_the_contingency_table(self, table):
        for budget in (4 * table.n_rows, 1):
            for s in all_sets(table.n_attrs):
                with renumberings() as calls:
                    key, size = aag_table._joint_key(table.codes.T, table.arities, s, budget)
                assert 0 <= key.min() and key.max() < size <= max(budget, table.n_rows)
                ranks = tuple_ranks(table, s)
                assert np.array_equal(np.sign(key[:, None] - key[None, :]),
                                      np.sign(ranks[:, None] - ranks[None, :]))
                if not calls:
                    contingency = contingency_of(table, s)
                    assert size == contingency.size
                    assert np.array_equal(np.bincount(key, minlength=size),
                                          contingency.ravel())

    @settings(max_examples=40)
    @given(kernel_tables())
    def test_partition_blocks_are_the_tuple_groups(self, table):
        for s in all_sets(table.n_attrs):
            part = induce_partition(table, s)
            assert part.blocks() == oracles.group_rows_by_tuple(table, s)
            assert part.block_sizes.tolist() == [len(b) for b in part.blocks()]

    def test_unused_last_key_is_still_counted(self):
        t = table_from_rows([[0, 1], [1, 0]])
        key, size = aag_table._joint_key(t.codes.T, t.arities, (0, 1), 8)
        assert np.bincount(key, minlength=size).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("arities, n_rows, renumbered", [
        ((40,), 10, False), ((41,), 10, True),
        ((6, 8), 12, False), ((7, 7), 12, True),
        ((2, 4, 5), 10, False), ((7, 1, 7), 12, True),
    ])
    def test_four_keys_per_row_is_the_last_counted_size(self, arities, n_rows, renumbered):
        rng = np.random.default_rng(18)
        codes = rng.integers(0, arities, size=(n_rows, len(arities)))
        codes[0] = np.asarray(arities) - 1  # every column reaches its arity
        t = DiscreteTable(codes)
        assert t.arities == arities
        attrs = tuple(range(len(arities)))
        with renumberings() as calls:
            h = joint_entropy(t, attrs)
        assert bool(calls) == renumbered
        assert h == oracles.sort_path_entropy(t, attrs)
        assert h == pytest.approx(oracles.entropy_of(t, attrs), abs=1e-9)

    @pytest.mark.parametrize("arities, n_rows", [((7, 7), 10), ((7,) * 12, 30)])
    def test_partitions_and_detectors_count_the_exact_key(self, arities, n_rows):
        # a key space past 4 N but below 2^62 is counted as it is, never renumbered
        rng = np.random.default_rng(28)
        codes = rng.integers(0, arities, size=(n_rows, len(arities)))
        codes[0] = np.asarray(arities) - 1
        t = DiscreteTable(codes)
        attrs = tuple(range(t.n_attrs))
        assert 4 * n_rows < key_space(t, attrs) < 2**62
        with renumberings() as calls:
            part = induce_partition(t, attrs)
            detector = fit_detector(t, attrs, 0.3)
        assert calls == []
        assert part.blocks() == oracles.group_rows_by_tuple(t, attrs)
        assert (detector.cell_mass, detector.accepted_cells) == oracles.detector_cells_of(
            t, attrs, 0.3)

    @pytest.mark.parametrize("huge_column", [0, 1])
    def test_huge_code_is_renumbered_instead_of_overflowing_the_key(self, huge_column):
        rows = np.array([[0, 0], [2**62, 0], [0, 1], [2**62, 1], [0, 3]] * 3)
        t = DiscreteTable(rows if huge_column == 0 else rows[:, ::-1])
        assert t.arities[huge_column] == 2**62 + 1
        h = joint_entropy(t, (0, 1))
        assert h == oracles.sort_path_entropy(t, (0, 1))
        assert h == pytest.approx(oracles.entropy_of(t, (0, 1)), abs=1e-9)
        assert induce_partition(t, (0, 1)).blocks() == oracles.group_rows_by_tuple(t, (0, 1))
        assert normalized_measure(t, (0,), (1,)) == pytest.approx(
            oracles.normalized_measure_of(t, (0,), (1,)), abs=1e-9)
        detector = fit_detector(t, (0, 1), 0.3)
        assert (detector.cell_mass, detector.accepted_cells) == oracles.detector_cells_of(
            t, (0, 1), 0.3)

    def test_wide_union_sorts_instead_of_overflowing_a_key(self):
        # 70 binary columns: the key space 2**70 has no int64 key
        rng = np.random.default_rng(19)
        codes = rng.integers(0, 2, size=(12, 70))
        codes[0] = 1
        t = DiscreteTable(codes)
        attrs = tuple(range(70))
        h = joint_entropy(t, attrs)
        assert h == oracles.sort_path_entropy(t, attrs)
        assert h == pytest.approx(oracles.entropy_of(t, attrs), abs=1e-9)
        assert PairCache().total_correlation(t, attrs) == pytest.approx(
            max(0.0, oracles.total_correlation_of(t, attrs)), abs=1e-9)


@st.composite
def count_vectors(draw, sizes):
    """Block counts of N rows, N drawn from ``sizes``: one block up to one
    row per block, as equal as they can be or split by a Dirichlet draw
    from flat to skewed, with zeros inserted here and there."""
    n = draw(st.sampled_from(sizes))
    blocks = draw(st.sampled_from([1, 2, 3, n // 7 or 1, n // 3 or 1, n]) | st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        counts = np.full(blocks, n // blocks)
        counts[:n % blocks] += 1
    else:
        weights = rng.dirichlet(np.full(blocks, draw(st.sampled_from([0.05, 1.0, 50.0]))))
        counts = rng.multinomial(n, weights)
    return np.insert(counts, rng.integers(0, counts.size + 1, draw(st.integers(0, 5))), 0)


def exact_entropy(counts) -> float:
    """H of block counts in bits, from a 200-bit mpmath sum over the
    distinct counts, rounded once to a float."""
    values, repeats = np.unique(counts[counts > 0], return_counts=True)
    with mpmath.workprec(200):
        n = mpmath.mpf(int(counts.sum()))
        return float(-mpmath.fsum(int(r) * (int(c) / n) * mpmath.log(int(c) / n, 2)
                                  for c, r in zip(values, repeats)))


class TestExactSum:
    @settings(max_examples=150, deadline=None)
    @given(count_vectors(ROUNDING_N + (700, 3_500)))
    def test_entropy_is_within_1e_14_of_the_exact_value(self, counts):
        h = measures._entropy_from_counts(counts, measures._xlog2x_table(int(counts.sum())))
        assert abs(h - exact_entropy(counts)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(count_vectors((10**5, 10**6)))
    def test_long_tables_are_within_the_table_rounding_of_the_exact_value(self, counts):
        # each table entry is rounded to a unit 2^-k, so m blocks can move
        # the sum by m/2 units; past that, only the float operations err.
        # Errors up to 1.1e-12 were seen at 10^6 rows, where 1e-14 holds
        # for N <= 3 500 above
        n = int(counts.sum())
        table = measures._xlog2x_table(n)
        blocks = np.count_nonzero(counts)
        h = measures._entropy_from_counts(counts, table)
        allowed = 1e-14 + blocks * 2.0 ** -(measures._scale_bits(n) + 1) / n
        assert abs(h - exact_entropy(counts)) <= allowed

    @given(count_vectors(ROUNDING_N + (700, 3_500)), st.randoms(use_true_random=False))
    def test_entropy_from_counts_is_free_of_order_and_zeros(self, counts, random):
        table = measures._xlog2x_table(int(counts.sum()))
        h = measures._entropy_from_counts(counts, table).hex()
        shuffled = counts.tolist()
        random.shuffle(shuffled)
        for _ in range(random.randint(1, 9)):
            shuffled.insert(random.randint(0, len(shuffled)), 0)
        assert measures._entropy_from_counts(np.array(shuffled), table).hex() == h

    @settings(max_examples=40)
    @given(kernel_tables())
    def test_partition_entropy_is_the_joint_entropy_bit_for_bit(self, table):
        for s in all_sets(table.n_attrs):
            assert entropy(induce_partition(table, s)).hex() == joint_entropy(table, s).hex()

    def test_table_sums_stay_below_2_62(self):
        for n in (*ROUNDING_N, 1, 2, 700, 3_500, 10**5, 10**6):
            table = measures._xlog2x_table(n)
            assert table[:2].tolist() == [0, 0]
            # one block holds the largest sum, give or take the entries' rounding
            assert table[n] + n // 2 < 2**62
            # and a bit more would pass it
            assert 2 * table[n] >= 2**61 or n == 1


@st.composite
def fan_tables(draw):
    """30 to 400 rows (the rounding row counts among them drawn often) and
    6 to 14 columns of arity 1 to 12: fans of many sets of unequal arities,
    whose counts are padded to the largest, and sets of up to 1 728 keys
    and 400 blocks. Sometimes a column in the middle passes the 4 N budget
    alone, so every set holding it is counted one by one and it splits
    each fan that reaches it, and sometimes a column is constant."""
    n_rows = draw(st.sampled_from([n for n in ROUNDING_N if n >= 30]) | st.integers(30, 400))
    n_attrs = draw(st.integers(6, 14))
    arities = draw(st.lists(st.integers(1, 12), min_size=n_attrs, max_size=n_attrs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, arities, size=(n_rows, n_attrs))
    if draw(st.booleans()):
        wide = draw(st.integers(1, n_attrs - 2))
        codes[:, wide] = rng.integers(0, 5 * n_rows, size=n_rows)
        codes[0, wide] = 4 * n_rows  # arity 4 N + 1
    if draw(st.booleans()):
        codes[:, draw(st.integers(0, n_attrs - 1))] = 0
    return DiscreteTable(codes)


@contextmanager
def per_set_counts():
    """The attribute sets the per-set kernel counts inside the block."""
    calls = []

    def spy(columns, arities, attrs, table, _original=measures._joint_entropy):
        calls.append(attrs)
        return _original(columns, arities, attrs, table)
    with mock.patch.object(measures, "_joint_entropy", spy):
        yield calls


@contextmanager
def bincounts():
    """(keys, minlength) of every np.bincount call inside the block."""
    calls = []

    def spy(keys, minlength=0, _original=np.bincount):
        calls.append((keys.size, minlength))
        return _original(keys, minlength=minlength)
    with mock.patch.object(measures.np, "bincount", spy):
        yield calls


@contextmanager
def fanned_sets():
    """How many sets each fan call counts inside the block."""
    calls = []

    def spy(columns, key, size, widest, table, _original=measures._fan_entropies):
        calls.append(len(columns))
        return _original(columns, key, size, widest, table)
    with mock.patch.object(measures, "_fan_entropies", spy):
        yield calls


def key_space(table, attrs):
    return math.prod(table.arities[a] for a in attrs)


def set_entropies(table, attrs, width):
    """The pass's arrays, as lists of floats, one per size."""
    return [h.tolist() for h in measures._set_entropies(table, attrs, width)]


def sort_path_entropies(table, attrs, width):
    """The sort path's H of every set of 1..width of ``attrs``, one list per size."""
    return [[oracles.sort_path_entropy(table, s) for s in combinations(attrs, k)]
            for k in range(1, width + 1)]


class TestEntropyFans:
    @settings(max_examples=30)
    @given(fan_tables())
    def test_fans_match_sort_path_in_any_order(self, table):
        attrs = range(table.n_attrs)
        with per_set_counts() as counted_alone:
            got = set_entropies(table, attrs, 3)
        assert got == sort_path_entropies(table, attrs, 3)
        # a fan counts every set of its prefix whose key space is within the
        # budget, so only single attributes and the sets past it are counted
        # one by one, each once
        budget = 4 * table.n_rows
        assert sorted(counted_alone) == sorted(
            s for s in all_sets(table.n_attrs, 3) if len(s) == 1 or key_space(table, s) > budget)

    @settings(max_examples=30)
    @given(fan_tables(), st.data())
    def test_pass_over_an_attribute_subset_matches_sort_path(self, table, data):
        attrs = sorted(data.draw(st.sets(st.integers(0, table.n_attrs - 1), min_size=1)))
        width = data.draw(st.integers(1, 3))
        assert set_entropies(table, attrs, width) == sort_path_entropies(table, attrs, width)

    @settings(max_examples=30)
    @given(fan_tables() | kernel_tables())
    def test_single_attributes_are_counted_alone_as_the_sort_path_counts(self, table):
        h = measures._entropies(table)
        with per_set_counts() as counted_alone, bincounts() as calls:
            got = [h((a,)) for a in range(table.n_attrs)]
        assert got == [oracles.sort_path_entropy(table, (a,)) for a in range(table.n_attrs)]
        assert counted_alone == [(a,) for a in range(table.n_attrs)]
        assert all(keys == table.n_rows for keys, _ in calls)

    @settings(max_examples=20)
    @given(fan_tables(), st.sampled_from((2, 3)), st.randoms(use_true_random=False))
    def test_pair_cache_on_fans_matches_sort_path(self, table, cap, random):
        ref = cache(partial(oracles.sort_path_entropy, table))
        singles = [(a,) for a in range(table.n_attrs)]
        pairs = list(combinations(singles, 2))
        for k in (3, 4, 5):
            s = tuple(sorted(random.sample(range(table.n_attrs), k)))
            pairs += [(s[:1], s[1:]), (s[:2], s[1:]), (s[:-1], s[-1:])]
        random.shuffle(pairs)
        pair_cache = PairCache()
        for a, b in pairs:
            assert pair_cache.measure(table, a, b, cap) == oracles.normalized_measure_by(
                ref, a, b, cap)

    def test_long_table_fans_stay_within_the_key_bound(self):
        n_rows = 150_000  # six sets to a bincount
        rng = np.random.default_rng(21)
        t = DiscreteTable(rng.integers(0, [2, 3, 5, 7, 4, 6, 1, 3, 2], size=(n_rows, 9)))
        p = t.n_attrs
        with bincounts() as calls:
            got = set_entropies(t, range(p), 3)
        assert got == [[joint_entropy(t, s) for s in combinations(range(p), k)] for k in (1, 2, 3)]
        assert all(keys + bins <= measures._FAN_KEYS for keys, bins in calls)
        assert any(keys > n_rows for keys, _ in calls)
        # more bincounts than single attributes and prefixes that extend:
        # the longest fans split
        assert len(calls) > p + (p - 1) + math.comb(p - 1, 2)

    def test_fan_past_the_key_bound_counts_one_set_at_a_time(self):
        rng = np.random.default_rng(22)
        t = DiscreteTable(rng.integers(0, [2, 3, 5, 7, 4, 6], size=(3_000, 6)))
        sets = all_sets(t.n_attrs, 3)
        with mock.patch.object(measures, "_FAN_KEYS", 3_000), bincounts() as calls:
            got = set_entropies(t, range(t.n_attrs), 3)
        assert sum(got, []) == [joint_entropy(t, s) for s in sets]
        assert len(calls) == len(sets)
        assert all(keys == t.n_rows for keys, _ in calls)

    def test_mutual_information_counts_only_its_own_sets(self):
        rng = np.random.default_rng(25)
        t = DiscreteTable(rng.integers(0, 3, size=(200, 40)))
        with per_set_counts() as counted_alone, bincounts() as calls:
            got = mutual_information(t, (3,), (17,))
        assert sorted(counted_alone) == [(3,), (3, 17), (17,)]
        assert [keys for keys, _ in calls] == [t.n_rows] * 3
        assert got == pytest.approx(oracles.entropy_of(t, (3,)) + oracles.entropy_of(t, (17,))
                                    - oracles.entropy_of(t, (3, 17)), abs=1e-9)

    def test_one_cache_serves_cap_2_then_cap_3_counting_each_set_once(self):
        rng = np.random.default_rng(26)
        t = DiscreteTable(rng.integers(0, [2, 3, 4, 3, 2, 5, 3], size=(150, 7)))
        ref = cache(partial(oracles.sort_path_entropy, t))
        pairs = [((0,), (1,)), ((2,), (4, 5)), ((0, 3), (1, 6)), ((1, 2, 3), (4, 6))]
        pair_cache = PairCache()
        with per_set_counts() as counted_alone, fanned_sets() as fanned:
            got = {cap: [pair_cache.measure(t, a, b, cap) for a, b in pairs] for cap in (2, 3)}
        for cap in (2, 3):
            assert got[cap] == [oracles.normalized_measure_by(ref, a, b, cap) for a, b in pairs]
            assert got[cap] == [normalized_measure(t, a, b, cap) for a, b in pairs]
        # the singles alone and every pair and triple in a fan, each once:
        # the triples counted for cap 3 did not recount the pairs
        p = t.n_attrs
        assert sorted(counted_alone) == [(a,) for a in range(p)]
        assert sum(fanned) == math.comb(p, 2) + math.comb(p, 3)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_search_counts_each_set_once(self, cap):
        columns = grouped_columns(300, [4] * 10, noise=0.35, seed=23)
        t = DiscreteTable(np.column_stack([np.argsort(np.argsort(c)) * 6 // 300 for c in columns]))
        read_by_tc = []

        def entropies(table, _original=measures._entropies):
            h = _original(table)

            def counted(attrs):
                read_by_tc.append(attrs)
                return h(attrs)
            return counted
        with per_set_counts() as counted_alone, fanned_sets() as fanned, \
                mock.patch.object(measures, "_entropies", entropies):
            got = run_aag(t, cap=cap)
        assert got.to_json() == run_aag(t, cap=cap).to_json()
        # total correlation's memo counts each set it reads once, alone
        assert read_by_tc and len(set(read_by_tc)) == len(read_by_tc)
        # the score arrays count the singles alone and every set of 2..cap
        # attributes in a fan, each once
        p = t.n_attrs
        assert sorted((Counter(counted_alone) - Counter(read_by_tc)).elements()) == [
            (a,) for a in range(p)]
        assert sum(fanned) == sum(math.comb(p, k) for k in range(2, cap + 1))

    @pytest.mark.parametrize("cap", [2, 3])
    def test_search_events_match_the_oracle_scored_search(self, cap):
        columns = grouped_columns(300, [4] * 10, noise=0.35, seed=23)
        # six equal-frequency bins per column, from its ranks
        codes = np.column_stack([np.argsort(np.argsort(c)) * 6 // 300 for c in columns])
        t = DiscreteTable(codes)
        assert t.n_attrs == 40
        got = run_aag(t, cap=cap)
        ref = cache(partial(oracles.sort_path_entropy, t))

        def oracle_measure(self, table, a, b, cap):
            return oracles.normalized_measure_by(ref, a, b, cap)
        # the sort path's entropies, and every pair scored by the oracle's loop
        with mock.patch.object(measures, "_entropies", lambda table: ref), \
                mock.patch.object(PairCache, "measure", oracle_measure):
            want = run_aag(t, cap=cap)
        assert got.events == want.events
        assert [e.measure.hex() for e in got.events] == [e.measure.hex() for e in want.events]
        assert got.to_json() == want.to_json()
