import json

import numpy as np
import pytest

from aag.errors import GenerationError, UndefinedStabilityError
from aag.evaluation import (
    BenchmarkSplit,
    f1_score,
    generate_setting1,
    generate_setting3,
    stability_index,
)
from aag.grouping import Subspace, SubspaceSet
from aag.preprocess import CATEGORICAL, NUMERIC, RawColumn, RawTable, load_csv


def make_raw(n_majority=100, n_minority=50, seed=0):
    rng = np.random.default_rng(seed)
    n = n_majority + n_minority
    x = rng.normal(size=n)
    y = 2.0 * x + rng.normal(scale=0.1, size=n)
    z = rng.normal(size=n)
    cls = np.array(["maj"] * n_majority + ["min"] * n_minority, dtype=object)
    return RawTable([
        RawColumn("x", NUMERIC, x),
        RawColumn("y", NUMERIC, y),
        RawColumn("z", NUMERIC, z),
        RawColumn("class", CATEGORICAL, cls),
    ])


def subspace_set(*attr_sets, level=2):
    return SubspaceSet(
        subspaces=[Subspace(tuple(a), level) for a in attr_sets],
        levels=[[tuple(a) for a in attr_sets]],
    )


class TestF1Score:
    def test_perfect_predictions(self):
        report = f1_score([0, 1, 0, 1], [0, 1, 0, 1])
        assert report.f1 == 1.0
        assert (report.tp, report.fp, report.fn, report.tn) == (2, 0, 0, 2)

    def test_all_predicted_normal_scores_zero(self):
        assert f1_score([0, 1, 1], [0, 0, 0]).f1 == 0.0

    def test_formula_arithmetic(self):
        report = f1_score([1, 1, 0, 1, 0], [1, 1, 1, 0, 0])
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.f1 == pytest.approx(2 * 2 / (4 + 1 + 1))

    def test_degenerate_all_negative(self):
        assert f1_score([0, 0], [0, 0]).f1 == 0.0

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(60)
        y = rng.integers(0, 2, size=40)
        p = rng.integers(0, 2, size=40)
        perm = rng.permutation(40)
        a = f1_score(y, p)
        b = f1_score(y[perm], p[perm])
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f1_score([0, 1], [0])


class TestSetting1:
    def test_split_sizes_and_labels(self):
        raw = make_raw()
        split = generate_setting1(raw, "class", fraction_perturbed=0.5, seed=1)
        assert split.train.n_rows == 70
        assert split.test.n_rows == 30
        assert split.test_labels.sum() == 15
        assert "class" not in split.train.names

    def test_fraction_one_perturbs_every_numeric_attribute(self):
        raw = make_raw()
        split = generate_setting1(raw, "class", fraction_perturbed=1.0, seed=2)
        assert sorted(split.provenance["perturbed_attrs"]) == ["x", "y", "z"]

    def test_tiny_fraction_floors_at_one_attribute(self):
        raw = make_raw()
        split = generate_setting1(raw, "class", fraction_perturbed=0.01, seed=3)
        assert len(split.provenance["perturbed_attrs"]) == 1

    def test_noise_variance_matches_attribute_variance(self):
        raw = make_raw(n_majority=600, n_minority=0)
        split = generate_setting1(raw, "class", fraction_perturbed=0.4, seed=4)
        name = split.provenance["perturbed_attrs"][0]
        train_var = np.var(split.train.column(name).values, ddof=1)
        anomaly_values = split.test.column(name).values[split.test_labels == 1]
        # independent noise adds one attribute variance on top
        assert np.var(anomaly_values, ddof=1) == pytest.approx(2 * train_var, rel=0.3)

    def test_train_rows_only_majority_class(self):
        raw = make_raw()
        split = generate_setting1(raw, "class", fraction_perturbed=0.5, seed=5)
        majority_x = raw.column("x").values[:100]
        assert set(np.round(split.train.column("x").values, 9)) <= set(np.round(majority_x, 9))

    def test_identical_seeds_reproduce_identically(self, tmp_path):
        raw = make_raw()
        a = generate_setting1(raw, "class", 0.5, seed=6)
        b = generate_setting1(raw, "class", 0.5, seed=6)
        a.save(tmp_path / "a")
        b.save(tmp_path / "b")
        for name in ("train.csv", "test.csv", "labels.csv", "provenance.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_no_numeric_attributes_is_an_error(self):
        n = 40
        raw = RawTable([
            RawColumn("c", CATEGORICAL, np.array(["a", "b"] * (n // 2), dtype=object)),
            RawColumn("class", CATEGORICAL, np.array(["m"] * n, dtype=object)),
        ])
        with pytest.raises(GenerationError):
            generate_setting1(raw, "class", 0.5, seed=0)

    def test_tiny_majority_is_an_error(self):
        raw = make_raw(n_majority=6, n_minority=2)
        with pytest.raises(GenerationError):
            generate_setting1(raw, "class", 0.5, seed=0)


class TestSetting3:
    def test_quoted_arithmetic(self):
        raw = make_raw(n_majority=100, n_minority=50)
        split = generate_setting3(raw, "class", minority_fraction=0.1, seed=7)
        assert split.train.n_rows == 70
        assert split.test.n_rows == 35
        assert split.test_labels.sum() == 5

    def test_full_minority_fraction(self):
        raw = make_raw(n_majority=100, n_minority=50)
        split = generate_setting3(raw, "class", minority_fraction=1.0, seed=8)
        assert split.test_labels.sum() == 50

    def test_train_and_novelties_disjoint_for_many_seeds(self):
        raw = make_raw(n_majority=60, n_minority=30)
        for seed in range(10):
            split = generate_setting3(raw, "class", 0.2, seed=seed)
            train_x = set(np.round(split.train.column("x").values, 12))
            novel_x = set(np.round(split.test.column("x").values[split.test_labels == 1], 12))
            assert not train_x & novel_x

    def test_single_class_is_an_error(self):
        raw = make_raw(n_majority=40, n_minority=0)
        with pytest.raises(GenerationError):
            generate_setting3(raw, "class", 0.1, seed=0)


class TestClassColumn:
    @pytest.mark.parametrize("generate", [generate_setting1, generate_setting3])
    @pytest.mark.parametrize("class_column", ["zzz", 4])
    def test_absent_class_column_is_a_generation_error_naming_it(self, generate, class_column):
        with pytest.raises(GenerationError, match=f"no class column {class_column!r}"):
            generate(make_raw(), class_column, 0.5, seed=0)

    def test_the_table_lookup_keeps_its_key_error(self):
        with pytest.raises(KeyError, match="no column named 'zzz'"):
            make_raw().column("zzz")


class TestStabilityIndex:
    def test_identical_runs_give_exactly_one(self):
        run = subspace_set((0, 1), (2, 3, 4))
        report = stability_index([run, run, run])
        assert report.si == 1.0

    def test_disjoint_equal_size_runs_give_zero(self):
        a = subspace_set((0, 1))
        b = subspace_set((2, 3))
        assert stability_index([a, b]).si == 0.0

    def test_three_run_group_mean(self):
        s = (0, 1, 2)
        s_prime = (1, 2, 3)  # jaccard(s, s_prime) = 2/4 = 0.5
        runs = [subspace_set(s), subspace_set(s), subspace_set(s_prime)]
        report = stability_index(runs)
        # pairs: (s, s)=1, (s, s')=0.5, (s, s')=0.5
        assert report.si == pytest.approx((1.0 + 0.5 + 0.5) / 3)

    def test_run_order_invariance(self):
        a = subspace_set((0, 1), (2, 3, 4))
        b = subspace_set((0, 2), (2, 3, 5))
        assert stability_index([a, b]).si == stability_index([b, a]).si

    def test_single_member_groups_are_excluded_and_reported(self):
        a = subspace_set((0, 1), (2, 3, 4))
        b = subspace_set((0, 1))
        report = stability_index([a, b])
        assert report.excluded_sizes == [3]
        assert report.per_size == {2: 1.0}

    def test_needs_two_runs_and_a_pairable_group(self):
        with pytest.raises(ValueError):
            stability_index([subspace_set((0, 1))])
        with pytest.raises(UndefinedStabilityError):
            stability_index([subspace_set((0, 1)), subspace_set((0, 1, 2))])


class TestPersistence:
    def test_benchmark_split_directory_layout(self, tmp_path):
        raw = make_raw()
        split = generate_setting1(raw, "class", 0.5, seed=9)
        split.save(tmp_path / "out")
        loaded_train = load_csv(tmp_path / "out" / "train.csv")
        assert loaded_train.n_rows == split.train.n_rows
        assert loaded_train.names == split.train.names
        labels = (tmp_path / "out" / "labels.csv").read_text().strip().splitlines()
        assert labels[0] == "row_index,label"
        assert len(labels) == split.test.n_rows + 1
        prov = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert prov["setting"] == 1

    def test_saved_numbers_round_trip_exactly(self, tmp_path):
        raw = make_raw(n_majority=40, n_minority=0)
        split = generate_setting1(raw, "class", 0.5, seed=10)
        split.save(tmp_path / "rt")
        loaded = load_csv(tmp_path / "rt" / "train.csv")
        assert np.array_equal(loaded.column("x").values, split.train.column("x").values)

    @staticmethod
    def saved_and_read_back(tmp_path, table):
        BenchmarkSplit(table, table, np.zeros(table.n_rows, dtype=np.int64), {}).save(tmp_path)
        return load_csv(tmp_path / "train.csv"), (tmp_path / "train.csv").read_bytes()

    @pytest.mark.parametrize("symbol", ["a,b", 'say "hi"', "two\nlines", "carriage\rreturn"])
    def test_symbols_that_need_quotes_round_trip(self, tmp_path, symbol):
        table = RawTable([
            RawColumn("c", CATEGORICAL, np.array([symbol, "plain", None], dtype=object)),
            RawColumn("x,y", NUMERIC, np.array([1.5, np.nan, -2.0])),
        ])
        loaded, _ = self.saved_and_read_back(tmp_path, table)
        assert loaded.names == ["c", "x,y"]
        assert list(loaded.column("c").values) == [symbol, "plain", None]
        assert np.array_equal(loaded.column("x,y").values, [1.5, np.nan, -2.0], equal_nan=True)

    @pytest.mark.parametrize("kind, values", [
        (CATEGORICAL, np.array(["p", None, "q"], dtype=object)),
        (NUMERIC, np.array([1.0, np.nan, 3.0])),
    ])
    def test_a_missing_cell_of_a_one_column_table_round_trips(self, tmp_path, kind, values):
        loaded, text = self.saved_and_read_back(tmp_path, RawTable([RawColumn("c", kind, values)]))
        assert text.splitlines()[2] == b'""'  # not a blank line, which reads as no row
        assert (loaded.n_rows, loaded.column("c").kind) == (3, kind)
        assert self.saved_and_read_back(tmp_path / "again", loaded)[1] == text
