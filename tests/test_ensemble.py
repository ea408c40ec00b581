import json
import re
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from aag import ensemble
from aag.ensemble import (
    EnsembleModel,
    SubspaceDetector,
    classify,
    classify_table,
    detector_predict,
    fit_detector,
    fit_ensemble,
    split_indices,
)
from aag.errors import SchemaError
from aag.preprocess import PreprocessModel
from aag.table import DiscreteTable, table_from_rows

from conftest import random_table


def table_with_masses(cells_per_code):
    """Single-attribute table whose code frequencies equal the given counts."""
    rows = []
    for code, count in enumerate(cells_per_code):
        rows.extend([[code]] * count)
    return table_from_rows(rows)


class TestFitDetector:
    def test_uniform_four_cells_all_accepted(self):
        t = table_with_masses([1, 1, 1, 1])
        d = fit_detector(t, [0], alpha=0.05)
        assert d.accepted_cells == {(0,), (1,), (2,), (3,)}

    def test_cumulative_rule_takes_every_needed_cell(self):
        t = table_with_masses([6, 3, 1])
        d = fit_detector(t, [0], alpha=0.05)
        assert d.accepted_cells == {(0,), (1,), (2,)}

    def test_prefix_stops_once_mass_reached(self):
        t = table_with_masses([10, 6, 3, 1])
        d = fit_detector(t, [0], alpha=0.1)
        assert d.accepted_cells == {(0,), (1,), (2,)}

    def test_accepted_prefix_is_minimal(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            t = random_table(rng, n_rows=int(rng.integers(10, 40)), n_attrs=2)
            alpha = float(rng.uniform(0.02, 0.3))
            d = fit_detector(t, [0, 1], alpha)
            ranked = sorted(d.cell_mass.items(), key=lambda kv: (-kv[1], kv[0]))
            # brute force over all prefixes: first prefix reaching 1 - alpha
            mass = 0.0
            for size, (_, m) in enumerate(ranked, start=1):
                mass += m
                if mass >= 1 - alpha - 1e-9:
                    break
            assert len(d.accepted_cells) == size

    def test_cell_masses_sum_to_one(self):
        rng = np.random.default_rng(51)
        t = random_table(rng, n_rows=30, n_attrs=3)
        d = fit_detector(t, [0, 2], alpha=0.1)
        assert sum(d.cell_mass.values()) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_alpha(self):
        t = table_with_masses([2, 2])
        with pytest.raises(ValueError):
            fit_detector(t, [0], alpha=0.0)
        with pytest.raises(ValueError):
            fit_detector(t, [0], alpha=1.0)


class TestDetectorPredict:
    def test_highest_mass_cell_accepted(self):
        t = table_with_masses([6, 3, 1])
        d = fit_detector(t, [0], alpha=0.4)
        assert detector_predict(d, (0,)) == 1

    def test_unseen_tuple_rejected(self):
        t = table_with_masses([6, 4])
        d = fit_detector(t, [0], alpha=0.05)
        assert detector_predict(d, (7,)) == 0

    def test_projection_uses_subspace_attributes(self):
        t = table_from_rows([[0, 5], [0, 5], [1, 5]])
        d = fit_detector(t, [0], alpha=0.05)
        assert detector_predict(d, (0, 99)) == 1  # attribute 1 ignored

    def test_vanishing_alpha_accepts_every_training_cell(self):
        t = table_with_masses([12, 5, 2, 1])
        d = fit_detector(t, [0], alpha=1e-9)
        assert d.accepted_cells == {(0,), (1,), (2,), (3,)}
        assert detector_predict(d, (9,)) == 0  # unseen still rejected


class TestFitEnsemble:
    def test_degenerate_single_subspace(self):
        t = table_from_rows([[0]] * 12)
        model = fit_ensemble(t, [(0,)], alpha=0.05, seed=1)
        assert model.weights.tolist() == [1.0]
        assert model.rho == 1.0
        scores, labels = classify_table(model, t)
        assert labels.count("anomaly") == 0

    def test_weight_normalization(self):
        det_a = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        det_b = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        model = EnsembleModel([det_a, det_b], np.array([2 / 3, 1 / 3]), rho=0.5, alpha=0.05)
        assert model.score((0,)) == pytest.approx(1.0)

    def test_errors_map_to_complement_weights(self):
        # attribute 0 is constant; attribute 1 splits the validation rows
        rng = np.random.default_rng(52)
        rows = np.column_stack([
            np.zeros(40, dtype=np.int64),
            rng.integers(0, 2, size=40),
        ])
        t = DiscreteTable(rows)
        model = fit_ensemble(t, [(0,), (1,)], alpha=0.05, seed=3)
        assert model.weights.sum() == pytest.approx(1.0)
        assert np.all(model.weights >= 0)

    def test_validation_false_positive_rate_bounded(self):
        rng = np.random.default_rng(53)
        for seed in range(10):
            t = random_table(rng, n_rows=int(rng.integers(40, 120)), n_attrs=4)
            model = fit_ensemble(t, [(0, 1), (2, 3), (0, 3)], alpha=0.05, seed=seed)
            _, val_idx = split_indices(t.n_rows, 0.3, seed)
            val = t.take_rows(np.asarray(val_idx))
            _, labels = classify_table(model, val)
            fpr = labels.count("anomaly") / val.n_rows
            assert fpr <= 0.05 + 1.0 / val.n_rows + 1e-12

    def test_detector_accepting_nothing_votes_zero(self):
        empty = SubspaceDetector((0, 1), {(0, 0): 0.5, (1, 1): 0.5}, set(), 0.05, 4)
        rows = np.array([[0, 0], [1, 1], [0, 1]])
        assert [detector_predict(empty, row) for row in rows] == [0, 0, 0]
        assert ensemble._column_vote([empty], [1.0], rows).tolist() == [0.0, 0.0, 0.0]
        # calibration: no validation row hits it, so its weight is 0.0
        t = random_table(np.random.default_rng(54), n_rows=40, n_attrs=3)

        def fit(train, subspace, alpha, _original=fit_detector):
            return empty if tuple(subspace) == (0, 1) else _original(train, subspace, alpha)
        with mock.patch.object(ensemble, "fit_detector", fit):
            model = fit_ensemble(t, [(0, 1), (2,)], seed=4)
        assert model.detectors[0] is empty
        assert model.weights.tolist() == [0.0, 1.0]

    def test_a_model_without_detectors_is_refused(self):
        with pytest.raises(ValueError, match="at least one detector"):
            EnsembleModel([], np.array([]), rho=0.5, alpha=0.05)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25], [[0.5], [0.5]]])
    def test_weights_not_one_per_detector_are_refused(self, weights):
        det = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        with pytest.raises(ValueError, match="for 2 detectors"):
            EnsembleModel([det, det], np.array(weights), rho=0.5, alpha=0.05)

    def test_rejects_empty_subspaces_and_tiny_tables(self):
        t = table_with_masses([3, 3])
        with pytest.raises(ValueError):
            fit_ensemble(t, [])
        with pytest.raises(ValueError):
            fit_ensemble(table_with_masses([2, 2]), [(0,)])


class TestClassify:
    def test_row_in_every_accepted_cell_is_normal(self):
        t = table_from_rows([[0, 0]] * 20)
        model = fit_ensemble(t, [(0,), (1,)], alpha=0.05, seed=0)
        score, label = classify(model, (0, 0))
        assert score == pytest.approx(1.0)
        assert label == "normal"

    def test_row_hitting_nothing_is_anomalous(self):
        t = table_from_rows([[0, 0]] * 20)
        model = fit_ensemble(t, [(0,), (1,)], alpha=0.05, seed=0)
        score, label = classify(model, (9, 9))
        assert score == 0.0
        assert label == "anomaly"

    def test_zero_threshold_accepts_everything(self):
        det = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        model = EnsembleModel([det], np.array([1.0]), rho=0.0, alpha=0.05)
        assert classify(model, (5,))[1] == "normal"

    def test_short_row_is_a_schema_error(self):
        det = SubspaceDetector((2,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        model = EnsembleModel([det], np.array([1.0]), rho=0.5, alpha=0.05)
        with pytest.raises(SchemaError):
            classify(model, (0,))

    def test_scores_stay_in_unit_interval_and_votes_monotone(self):
        rng = np.random.default_rng(54)
        t = random_table(rng, n_rows=60, n_attrs=4)
        model = fit_ensemble(t, [(0, 1), (2,), (1, 3)], alpha=0.1, seed=9)
        for row in t.codes[:20]:
            s = model.score(row)
            assert -1e-12 <= s <= 1 + 1e-12
        # accepting a longer ranked prefix, through the row's cell, never lowers the score
        row = tuple(int(v) for v in t.codes[0])
        forced = []
        for d in model.detectors:
            ranked, cell = ranked_cells(d), tuple(row[a] for a in d.subspace)
            k = max(len(d.accepted_cells), ranked.index(cell) + 1 if cell in ranked else 0)
            forced.append(SubspaceDetector(d.subspace, d.cell_mass, ranked[:k], d.alpha,
                                           d.fit_rows))
            assert (cell in forced[-1].accepted_cells) == (cell in ranked)
        assert replace(model, detectors=forced).score(row) >= model.score(row) - 1e-12


class TestSplitIndices:
    def test_deterministic_and_disjoint(self):
        fit_a, val_a = split_indices(50, 0.3, seed=7)
        fit_b, val_b = split_indices(50, 0.3, seed=7)
        assert fit_a.tolist() == fit_b.tolist()
        assert val_a.tolist() == val_b.tolist()
        assert set(fit_a) | set(val_a) == set(range(50))
        assert not set(fit_a) & set(val_a)
        assert len(val_a) == 15


class TestEnsembleSerialization:
    def test_json_round_trip_preserves_behavior(self):
        rng = np.random.default_rng(55)
        t = random_table(rng, n_rows=50, n_attrs=3)
        model = fit_ensemble(t, [(0, 1), (2,)], alpha=0.05, seed=2)
        loaded = EnsembleModel.from_json(model.to_json())
        assert loaded.to_json() == model.to_json()
        for row in t.codes[:10]:
            assert classify(loaded, row) == classify(model, row)

    def test_model_file_is_one_line_of_compact_sorted_json(self):
        t = random_table(np.random.default_rng(56), n_rows=50, n_attrs=3)
        model = fit_ensemble(t, [(0, 1), (1, 2)], alpha=0.05, seed=2)
        text = model.to_json()
        assert text == json.dumps(model.to_json_dict(), separators=(",", ":"), sort_keys=True) + "\n"
        assert text.count("\n") == 1

    def test_indented_file_from_an_earlier_version_loads(self):
        t = random_table(np.random.default_rng(57), n_rows=50, n_attrs=3)
        doc = fit_ensemble(t, [(0, 1), (2,)], alpha=0.05, seed=2).to_json_dict()
        indented = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert EnsembleModel.from_json(indented).to_json_dict() == doc


# A small fit with unequal masses, a rejected cell and ties in rank.
PINNED_ROWS = [[0, 1]] * 6 + [[1, 1]] * 5 + [[1, 0]] * 3 + [[2, 0]] * 2 + [[0, 2], [2, 2]]
# ... as versions before the count layout wrote it, in the explicit layout,
# which the reader refuses
PINNED_EXPLICIT = (
    '{"alpha":0.1,"detectors":[{"accepted":[[0],[1],[2]],"attrs":[0],"cells":[[[0],'
    '0.3076923076923077],[[1],0.46153846153846156],[[2],0.23076923076923078]]},{"accepted":'
    '[[0,1],[0,2],[1,0],[1,1],[2,0]],"attrs":[0,1],"cells":[[[0,1],0.23076923076923078],'
    '[[0,2],0.07692307692307693],[[1,0],0.15384615384615385],[[1,1],0.3076923076923077],'
    '[[2,0],0.15384615384615385],[[2,2],0.07692307692307693]]}],"rho":1.0,"weights":[0.5,0.5]}\n'
)
# ... and in the count layout: (1, 0) ranks before (2, 0), and (0, 2) before
# the rejected (2, 2), ties in tuple order
PINNED_COUNT = (
    '{"alpha":0.1,"detectors":[{"accepted":3,"attrs":[0],"cells":[1,0,2],"counts":[6,4,3]},'
    '{"accepted":5,"attrs":[0,1],"cells":[1,1,0,1,1,0,2,0,0,2,2,2],"counts":[4,3,2,2,1,1]}],'
    '"rho":1.0,"weights":[0.5,0.5]}\n'
)


def pinned_model():
    return fit_ensemble(table_from_rows(PINNED_ROWS), [(0,), (0, 1)], alpha=0.1, seed=0)


def detector_fields(model):
    return [(d.subspace, d.cell_mass, d.accepted_cells, d.alpha) for d in model.detectors]


def repeat_first_cell(det):
    """Lists a count-layout detector's first cell twice, in place of its second."""
    width = len(det["attrs"])
    det["cells"][width:2 * width] = det["cells"][:width]


# edits of the pinned fit's document that its reader refuses, each with the
# field its SchemaError names
FIELD_EDITS = [
    (lambda d: d.pop("detectors"), "detectors"),
    (lambda d: d.update(detectors={}), "detectors"),
    (lambda d: d.update(detectors=[]), "detectors"),
    (lambda d: d.pop("weights"), "weights"),
    (lambda d: d["weights"].append(0.5), "weights"),
    (lambda d: d.update(weights=["a", 1]), "weights"),
    (lambda d: d.pop("rho"), "rho"),
    (lambda d: d.update(rho="high"), "rho"),
    (lambda d: d.pop("alpha"), "alpha"),
    (lambda d: d.update(alpha=True), "alpha"),
    (lambda d: d["detectors"][1].pop("attrs"), "attrs"),
    (lambda d: d["detectors"][1].update(attrs=[0, "1"]), "attrs"),
    (lambda d: d["detectors"][1].update(attrs=[]), "attrs"),
    (lambda d: d["detectors"].__setitem__(0, [0]), "attrs"),
    (lambda d: d.update(preprocess={"bins": 10}), "preprocess"),
    (lambda d: d.update(preprocess={"bins": 10, "columns": {}}), "preprocess"),
    (lambda d: d.update(preprocess={"bins": 10, "columns": []}), "preprocess"),
    (lambda d: d.update(preprocess={"bins": 10, "columns": "ab"}), "preprocess"),
    (lambda d: d["weights"].__setitem__(0, float("nan")), "weights"),
    (lambda d: d["weights"].__setitem__(1, float("inf")), "weights"),
    (lambda d: d["weights"].__setitem__(1, 10**400), "weights"),
    (lambda d: d.update(rho=float("nan")), "rho"),
    (lambda d: d.update(rho=float("-inf")), "rho"),
    (lambda d: d.update(alpha=float("nan")), "alpha"),
]
# ... and of a count-layout detector entry
COUNT_FIELD_EDITS = [
    (lambda d: d.pop("attrs"), "attrs"),
    (lambda d: d.update(attrs=[0, True]), "attrs"),
    (lambda d: d.pop("cells"), "cells"),
    (lambda d: d.pop("counts"), "counts"),
    (lambda d: d.pop("accepted"), "accepted"),
    (lambda d: d.update(cells={}), "cells"),
    (lambda d: d.update(counts=3), "counts"),
    (lambda d: d["cells"].__setitem__(0, 1.5), "cells"),
    (lambda d: d["cells"].__setitem__(0, 1.0), "cells"),
    (lambda d: d["cells"].__setitem__(0, True), "cells"),
    (lambda d: d["cells"].__setitem__(0, "1"), "cells"),
    (lambda d: d["cells"].__setitem__(0, -1), "cells"),
    (lambda d: d["cells"].__setitem__(0, 2**63), "cells"),
    (lambda d: d["cells"].pop(), "cells"),
    (lambda d: d["cells"].append(0), "cells"),
    (lambda d: d["counts"].pop(), "cells"),
    (lambda d: d["counts"].__setitem__(0, 0), "counts"),
    (lambda d: d["counts"].__setitem__(0, -2), "counts"),
    (lambda d: d["counts"].__setitem__(0, 4.0), "counts"),
    (lambda d: d["counts"].__setitem__(0, True), "counts"),
    (lambda d: d.update(accepted=-1), "accepted"),
    (lambda d: d.update(accepted=7), "accepted"),
    (lambda d: d.update(accepted=5.0), "accepted"),
    (lambda d: d.update(accepted=True), "accepted"),
    (lambda d: d.update(accepted=[[0, 1]]), "accepted"),
    (repeat_first_cell, "cells"),
    (lambda d: d["counts"].__setitem__(0, 2**53), "counts"),
    (lambda d: d["counts"].__setitem__(0, 2**70), "counts"),
    (lambda d: d["counts"].reverse(), "cells"),
]


def read_text_of(doc):
    """``from_json`` of the document as ``to_json`` lays it out, so that its
    ``cells`` and ``counts`` lists of digits are lifted and parsed in numpy."""
    return EnsembleModel.from_json(json.dumps(doc, separators=(",", ":")))


# the two ways a document is read: as it is, and from its text
DOCUMENT_READERS = (EnsembleModel.from_json_dict, read_text_of)


class TestModelFileValidation:
    @staticmethod
    def doc():
        return json.loads(PINNED_COUNT)

    @pytest.mark.parametrize("edit, field", FIELD_EDITS)
    def test_malformed_field_is_a_schema_error_naming_it(self, edit, field):
        doc = self.doc()
        edit(doc)
        with pytest.raises(SchemaError, match=f"'{field}'"):
            EnsembleModel.from_json_dict(doc)

    @pytest.mark.parametrize("edit, field", COUNT_FIELD_EDITS)
    def test_malformed_count_layout_field_is_a_schema_error_naming_it(self, edit, field):
        doc = self.doc()
        edit(doc["detectors"][1])
        for read in DOCUMENT_READERS:
            with pytest.raises(SchemaError, match=f"detector 1 .*'{field}'"):
                read(doc)

    def test_the_pinned_document_is_read_from_lifted_arrays(self):
        with mock.patch.object(ensemble, "_integers", wraps=ensemble._integers) as parse:
            read_text_of(self.doc())
        (bodies,), _ = parse.call_args
        assert len(bodies) == 4  # each detector's cells and counts

    def test_count_layout_edges_are_read(self):
        doc = self.doc()
        det = doc["detectors"][1]
        det.update(accepted=0, cells=[0, 2**63 - 1], counts=[2**53 - 1])
        d = EnsembleModel.from_json_dict(doc).detectors[1]
        assert (d.cell_mass, d.accepted_cells, d.fit_rows) == ({(0, 2**63 - 1): 1.0}, set(),
                                                              2**53 - 1)
        det.update(accepted=0, cells=[], counts=[])
        d = EnsembleModel.from_json_dict(doc).detectors[1]
        assert (d.cell_mass, d.accepted_cells, d.fit_rows) == ({}, set(), 0)
        assert EnsembleModel.from_json_dict(doc).to_json_dict() == doc

    @pytest.mark.parametrize("counts", [
        # one count of 16 digits, which from_json parses in numpy, and one of
        # 22, which sends the whole text through json
        [2**53], [2**70], [2**52, 2**52],
        # 2 049 counts of 2**53 - 1 and one of 2 048 sum to 2**64 + 2**53 - 1,
        # which int64 wraps to 2**53 - 1
        [2**53 - 1] * 2049 + [2048],
        # an int64 count whose first partial sum already wraps int64
        [2**52, 2**63 - 1],
    ])
    def test_counts_summing_to_2_53_or_more_are_refused(self, counts):
        doc = self.doc()
        doc["detectors"][1].update(accepted=0, cells=list(range(2 * len(counts))), counts=counts)
        for read in DOCUMENT_READERS:
            with pytest.raises(SchemaError, match="detector 1 field 'counts' must sum to below 2"):
                read(doc)

    def test_a_count_its_mass_does_not_give_back_is_refused(self):
        counts = [3680419207728641, 2604612007400664]
        n = sum(counts)
        assert round(counts[0] / n * n) == counts[0] - 1
        doc = self.doc()
        doc["detectors"][1].update(accepted=1, cells=[0, 0, 0, 1], counts=counts)
        with pytest.raises(SchemaError, match="detector 1 field 'counts' holds a count that its"):
            EnsembleModel.from_json_dict(doc)
        # the constructor cannot read that count back from its mass either
        with pytest.raises(ValueError):
            SubspaceDetector((0, 1), {(0, 0): counts[0] / n, (0, 1): counts[1] / n}, {(0, 0)},
                             0.1, n)

    def test_explicit_file_is_refused_naming_the_layout(self):
        model = pinned_model()
        assert model.to_json() == PINNED_COUNT
        loaded = EnsembleModel.from_json(PINNED_COUNT)
        assert detector_fields(loaded) == detector_fields(model)
        assert [d.fit_rows for d in loaded.detectors] == [d.fit_rows for d in model.detectors]
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert (loaded.rho, loaded.alpha) == (model.rho, model.alpha)
        for read in (EnsembleModel.from_json, read_as_json_does):
            with pytest.raises(SchemaError, match="detector 0 is in the explicit layout.*retrain"):
                read(PINNED_EXPLICIT)

    def test_non_object_and_non_json_files_are_schema_errors(self):
        with pytest.raises(SchemaError, match="'detectors'"):
            EnsembleModel.from_json("[1, 2]")
        with pytest.raises(SchemaError, match="not JSON"):
            EnsembleModel.from_json("{")

    def test_well_formed_document_round_trips(self):
        doc = self.doc()
        assert EnsembleModel.from_json_dict(json.loads(json.dumps(doc))).to_json_dict() == doc


@st.composite
def vote_cases(draw):
    """A fit table, subspaces, alpha and a longer score table, drawn from a seed.

    One subspace spans at least 24 attributes of arity at least 8, so its
    cell space exceeds 2^63. Half the score rows repeat fit rows; the rest
    draw codes up to two past each fit arity, so some cells are unseen.
    Score tables may hold over 2 000 rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_attrs = draw(st.integers(24, 30))
    wide = rng.permutation(n_attrs)[:draw(st.integers(24, n_attrs))]
    arities = rng.integers(1, 5, size=n_attrs)
    arities[wide] = rng.integers(8, 12, size=wide.size)
    n_fit = draw(st.integers(10, 80))
    fit = rng.integers(0, arities, size=(n_fit, n_attrs))
    subspaces = [tuple(sorted(wide.tolist()))]
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(1, 4))
        subspaces.append(tuple(sorted(rng.choice(n_attrs, size=size, replace=False).tolist())))
    alpha = draw(st.floats(0.01, 0.5))
    n_score = draw(st.integers(1, 60) | st.integers(2046, 2348))
    score = rng.integers(0, arities + 2, size=(n_score, n_attrs))
    copied = rng.random(n_score) < 0.5  # fit rows, which the wide subspace mostly accepts
    score[copied] = fit[rng.integers(0, n_fit, size=int(copied.sum()))]
    return DiscreteTable(fit), subspaces, alpha, DiscreteTable(score)


class TestVoteKernelAgainstReference:
    @settings(max_examples=30)
    @given(vote_cases())
    def test_fit_detector_matches_dict_counting(self, case):
        fit, subspaces, alpha, _ = case
        for attrs in subspaces:
            d = fit_detector(fit, attrs, alpha)
            mass, accepted = oracles.detector_cells_of(fit, attrs, alpha)
            assert d.cell_mass == mass
            assert d.accepted_cells == accepted

    @settings(max_examples=30)
    @given(vote_cases())
    def test_calibration_matches_reference_cut(self, case):
        fit, subspaces, alpha, _ = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        _, val_idx = split_indices(fit.n_rows, 0.3, 4)
        weights, rho = oracles.calibration_of(model.detectors, fit.codes[val_idx], alpha)
        assert model.weights.tolist() == weights.tolist()
        assert model.rho == rho

    @settings(max_examples=20)
    @given(vote_cases())
    def test_table_scores_match_row_calls_and_reference(self, case):
        fit, subspaces, alpha, score = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        scores, labels = classify_table(model, score)
        for i, row in enumerate(score.codes):
            as_given = row if i % 2 else tuple(int(v) for v in row)
            want = oracles.score_of(model.detectors, model.weights, row)
            assert classify(model, as_given) == (scores[i], labels[i])
            assert scores[i] == want
            assert labels[i] == ("normal" if want >= model.rho else "anomaly")
            assert model.score(as_given) == want
        for d in model.detectors:
            row = score.codes[0]
            assert detector_predict(d, row) == oracles.vote_of(d, row)

    @settings(max_examples=20)
    @given(vote_cases())
    def test_model_read_back_from_its_file_scores_bit_for_bit(self, case):
        fit, subspaces, alpha, score = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        loaded = EnsembleModel.from_json(model.to_json())
        assert loaded.rho == model.rho
        assert loaded.weights.tobytes() == model.weights.tobytes()
        scores, labels = classify_table(model, score)
        loaded_scores, loaded_labels = classify_table(loaded, score)
        assert loaded_scores.tobytes() == scores.tobytes()
        assert loaded_labels == labels
        for i, row in enumerate(score.codes[:60]):
            assert classify(loaded, row) == (scores[i], labels[i])


HUGE = 2**62 + 3  # a code near 2**62: its column's arity passes any key budget


@st.composite
def table_kernel_cases(draw):
    """A model read from a file, and a score table, drawn from a seed.

    Detectors list their ``attrs`` in any order and may repeat one; any
    subset of a detector's cells, the empty one too, is accepted: those
    cells are counted twice and the rest once, so they rank first.
    Weights mix 0.0 and -0.0 with nonzero weights of several magnitudes,
    so a sum in another order would differ in the last bit. Score rows
    and accepted cells may hold codes near 2**62 and codes past every
    other row's; score tables may hold over 2 000 rows. A wide case has
    subspaces of 6-10 attributes and hundreds of cells, so partial keys
    pass the key budget and are renumbered mid-key even where no code is
    near 2**62.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = draw(st.integers(0, 3)) == 0
    n_attrs = int(rng.integers(6, 11)) if wide else int(rng.integers(2, 7))
    n_score = draw(st.integers(1, 40) | st.integers(2046, 2248))
    codes = rng.integers(0, rng.integers(1, 5, size=n_attrs), size=(n_score, n_attrs))
    if draw(st.booleans()):
        codes[rng.random(codes.shape) < 0.05] = HUGE
    detectors, weights = [], []
    for _ in range(draw(st.integers(1, 6))):
        width = int(rng.integers(6, n_attrs + 1)) if wide else int(rng.integers(1, 4))
        attrs = rng.integers(0, n_attrs, size=width).tolist()
        seen = codes[rng.integers(0, n_score, size=int(rng.integers(0, 6)))][:, attrs]
        n_other = int(rng.integers(100, 400) if wide else rng.integers(0, 6))
        other = rng.integers(0, 9, size=(n_other, len(attrs)))
        if rng.random() < 0.3 and other.size:
            other[0, rng.integers(len(attrs))] = HUGE + int(rng.integers(0, 2))
        cells = sorted({tuple(c) for c in np.concatenate([seen, other]).tolist()})
        keep = 0.8 if rng.random() < 0.8 else 0.0  # sometimes an empty accepted list
        counts = [2 if rng.random() < keep else 1 for _ in cells]
        ranked = sorted(zip(counts, cells), key=lambda pair: (-pair[0], pair[1]))
        detectors.append({"attrs": attrs, "cells": [x for _, cell in ranked for x in cell],
                          "counts": [n for n, _ in ranked], "accepted": counts.count(2)})
        weights.append(draw(st.sampled_from([0.0, -0.0, 1.0]))
                       * float(rng.random() * 10.0 ** rng.integers(-3, 3)))
    doc = {"alpha": 0.05, "rho": draw(st.sampled_from([0.0, 0.3, 1.0])), "weights": weights,
           "detectors": detectors}
    return EnsembleModel.from_json(json.dumps(doc)), DiscreteTable(codes)


class TestTableKernel:
    @settings(max_examples=40)
    @given(table_kernel_cases())
    def test_table_scores_match_reference_and_row_calls_bit_for_bit(self, case):
        model, table = case
        scores, labels = classify_table(model, table)
        want = [oracles.score_of(model.detectors, model.weights, row) for row in table.codes]
        assert scores.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert labels == ["normal" if s >= model.rho else "anomaly" for s in want]
        for i, row in enumerate(table.codes):
            score, label = classify(model, row)
            assert np.float64(score).tobytes() == scores[i].tobytes()
            assert label == labels[i]

    @pytest.mark.parametrize("rows, cell", [
        # past every row's code: (0, 3) would key as (1, 1) at radix 2
        ([[1, 1], [0, 0]], (0, 3)),
        # 4 * (2**62 + 4) wraps int64 to 16, the key of (0, 16)
        ([[4, 0], [0, HUGE]], (0, 16)),
    ])
    def test_a_cell_never_accepts_a_row_with_other_codes(self, rows, cell):
        det = SubspaceDetector((0, 1), {cell: 1.0}, {cell}, 0.05, 1)
        model = EnsembleModel([det], np.array([1.0]), rho=0.5, alpha=0.05)
        assert classify_table(model, table_from_rows(rows))[0].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("wide_weight", [0.0, -0.0, 0.5])
    def test_table_narrower_than_the_model_is_a_schema_error(self, wide_weight):
        near = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        wide = SubspaceDetector((0, 3), {(0, 0): 1.0}, {(0, 0)}, 0.05, 1)
        model = EnsembleModel([near, wide], np.array([1.0, wide_weight]), rho=0.5, alpha=0.05)
        table = table_from_rows([[0, 0, 0]] * 3)
        with pytest.raises(SchemaError, match="model needs at least 4"):
            classify_table(model, table)
        with pytest.raises(SchemaError, match="model needs at least 4"):
            model.score((0, 0, 0))
        with pytest.raises(SchemaError, match="model needs at least 4"):
            classify(model, (0, 0, 0))


class TestRowKernel:
    def test_one_attribute_detectors_vote_as_the_reference(self):
        rng = np.random.default_rng(61)
        # skewed codes, so a one-attribute detector rejects its rarest code
        fit = DiscreteTable(rng.choice(3, p=[0.6, 0.3, 0.1], size=(80, 4)))
        model = fit_ensemble(fit, [(0,), (2,), (1, 3), (3,)], alpha=0.2, seed=4)
        _, val_idx = split_indices(fit.n_rows, 0.3, 4)
        weights, rho = oracles.calibration_of(model.detectors, fit.codes[val_idx], 0.2)
        assert model.weights.tolist() == weights.tolist()
        assert model.rho == rho
        rows = rng.integers(0, 4, size=(40, 4))  # code 3 was never fit
        for d in model.detectors:
            assert {oracles.vote_of(d, row) for row in rows} == {0, 1}
        for row in rows:
            want = oracles.score_of(model.detectors, model.weights, row)
            assert classify(model, row) == (want, "normal" if want >= rho else "anomaly")
            assert model.score(row.tolist()) == want
            for d in model.detectors:
                assert detector_predict(d, row) == oracles.vote_of(d, row)

    def test_a_detector_with_unordered_repeated_attrs_scores_as_the_reference(self):
        # the cell (1, 0, 2) can never match: attribute 2 cannot hold 1 and 2 at once
        doc = {"alpha": 0.05, "rho": 0.5, "weights": [0.75, 0.25], "detectors": [
            {"attrs": [2, 0, 2], "cells": [1, 0, 1, 1, 0, 2], "counts": [1, 1], "accepted": 2},
            {"attrs": [1], "cells": [0], "counts": [1], "accepted": 1},
        ]}
        model = EnsembleModel.from_json(json.dumps(doc))
        table = table_from_rows([[0, 0, 1], [0, 1, 1], [0, 0, 2], [1, 0, 1], [0, 5, 0]])
        want = [1.0, 0.75, 0.25, 0.25, 0.0]
        assert [oracles.score_of(model.detectors, model.weights, r) for r in table.codes] == want
        assert classify_table(model, table)[0].tolist() == want
        assert [model.score(row) for row in table.codes] == want
        assert [classify(model, row)[0] for row in table.codes] == want
        assert [detector_predict(model.detectors[0], row) for row in table.codes] == [1, 1, 0, 0, 0]


def fits_count_layout(cell_mass, accepted_cells, n) -> bool:
    """Whether the constructor's masses, accepted cells and ``fit_rows`` are
    a detector's counts, by the plain rules: each mass ``count / n`` for an
    int count of at least 1, the counts summing to ``n`` below 2**53, and
    the accepted cells the first cells by descending count, ties in tuple
    order."""
    if type(n) is not int or not 0 <= n < 2**53 or not all(
            0 < m <= 1 for m in cell_mass.values()):
        return False
    counts = {cell: round(mass * n) for cell, mass in cell_mass.items()}
    ranked = sorted(counts, key=lambda cell: (-counts[cell], cell))
    return (all(c >= 1 and c / n == cell_mass[cell] for cell, c in counts.items())
            and sum(counts.values()) == n
            and set(ranked[:len(accepted_cells)]) == set(accepted_cells))


def assert_read_back(loaded, model, text):
    assert loaded.detectors == model.detectors
    assert detector_fields(loaded) == detector_fields(model)
    assert [d.fit_rows for d in loaded.detectors] == [d.fit_rows for d in model.detectors]
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert (loaded.rho, loaded.alpha) == (model.rho, model.alpha)
    assert loaded.to_json() == text


# edits of a fitted detector's views that no detector's counts can give
BREAKING_EDITS = ("accept-unseen", "mass-ulp", "add-cell")


class TestModelFileLayouts:
    @settings(max_examples=30)
    @given(vote_cases(), st.booleans())
    def test_fitted_model_round_trips_in_the_count_layout(self, case, huge):
        fit, subspaces, alpha, _ = case
        if huge:  # codes near 2**62 in some cells
            fit = DiscreteTable(np.where(fit.codes % 3 == 1, HUGE, fit.codes))
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        text = model.to_json()
        assert [set(d) for d in json.loads(text)["detectors"]] == [
            {"attrs", "cells", "counts", "accepted"}] * len(model.detectors)
        assert all(fits_count_layout(d.cell_mass, d.accepted_cells, d.fit_rows)
                   for d in model.detectors)
        assert_read_back(EnsembleModel.from_json(text), model, text)

    @settings(max_examples=30)
    @given(vote_cases(), st.data())
    def test_edited_detectors_are_rebuilt_or_refused(self, case, data):
        fit, subspaces, alpha, _ = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        edits = data.draw(st.lists(
            st.sampled_from((None, "accept-next", "drop-top", "reordered", "more-rows",
                             *BREAKING_EDITS)),
            min_size=len(model.detectors), max_size=len(model.detectors)))
        unseen = int(fit.codes.max()) + 1
        built = []
        for d, edit in zip(model.detectors, edits):  # each edit is made to a copy of the views
            ranked = ranked_cells(d)
            cell_mass, accepted, fit_rows = dict(d.cell_mass), set(d.accepted_cells), d.fit_rows
            if edit == "reordered":  # the same cells, not in tuple order
                cell_mass = dict(reversed(cell_mass.items()))
            elif edit == "accept-unseen":
                accepted.add((unseen,) * len(d.subspace))
            elif edit == "add-cell":  # a count of one more row
                cell_mass[(unseen,) * len(d.subspace)] = 1 / d.fit_rows
            elif edit == "mass-ulp":
                cell_mass[ranked[-1]] = float(np.nextafter(cell_mass[ranked[-1]], 2.0))
            elif edit == "more-rows":  # the masses over one row more
                fit_rows += 1
            elif edit == "accept-next":  # still a ranked prefix, one cell longer
                accepted.update(ranked[:len(accepted) + 1])
            elif edit == "drop-top":
                accepted.discard(ranked[0])
            args = (d.subspace, cell_mass, accepted, d.alpha, fit_rows)
            if fits_count_layout(cell_mass, accepted, fit_rows):
                assert edit not in BREAKING_EDITS
                built.append(SubspaceDetector(*args))
            else:
                with pytest.raises(ValueError):
                    SubspaceDetector(*args)
                built.append(d)
        model = replace(model, detectors=built)
        text = model.to_json()
        assert_read_back(EnsembleModel.from_json(text), model, text)
        # the bytes do not depend on the order of cell_mass
        in_order = [SubspaceDetector(d.subspace, dict(sorted(d.cell_mass.items())),
                                     d.accepted_cells, d.alpha, d.fit_rows) for d in built]
        assert replace(model, detectors=in_order).to_json() == text


@st.composite
def constructor_args(draw, fitting=False):
    """The constructor's arguments, drawn from cells of codes 0 to 2**63 - 1.

    Masses are counts over their sum or any finite floats; the accepted
    cells are a ranked prefix or any set, cells outside ``cell_mass``
    included; ``fit_rows`` is the counts' sum or one more. With
    ``fitting``, the masses are counts over ``fit_rows`` and the accepted
    cells a ranked prefix.
    """
    width = draw(st.integers(1, 4))
    cell = st.tuples(*[st.sampled_from([0, 1, 2, 9, 10, HUGE, 2**63 - 1])] * width)
    cells = draw(st.lists(cell, unique=True, max_size=8))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(cells), max_size=len(cells)))
    n = sum(counts)
    masses = ([c / n for c in counts] if fitting or draw(st.booleans()) else
              draw(st.lists(st.floats(-1e300, 1e300),
                            min_size=len(cells), max_size=len(cells))))
    cell_mass = dict(zip(cells, masses))
    ranked = sorted(cells, key=lambda c: (-cell_mass[c], c))
    accepted = (set(ranked[:draw(st.integers(0, len(cells)))]) if fitting or draw(st.booleans())
                else set(draw(st.lists(cell, max_size=4))))
    subspace = draw(st.lists(st.integers(0, 5), min_size=width, max_size=width))
    return subspace, cell_mass, accepted, 0.1, n if fitting else draw(st.sampled_from([n, n + 1]))


def constructed_detectors():
    """Detectors built through the constructor from drawn counts."""
    return constructor_args(fitting=True).map(lambda args: SubspaceDetector(*args))


# 2 049 masses of 1.0 and one of 2 048 / (2**53 - 1): counts summing to
# 2**64 + 2**53 - 1, which int64 wraps to fit_rows
WRAPPING = {(i,): 1.0 for i in range(2049)} | {(2049,): 2048 / (2**53 - 1)}


class TestDetectorConstructor:
    @settings(max_examples=30)
    @given(vote_cases())
    def test_a_fitted_detector_rebuilt_from_its_views_is_the_same(self, case):
        fit, subspaces, alpha, score = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        rebuilt = [SubspaceDetector(d.subspace, dict(d.cell_mass), set(d.accepted_cells),
                                    d.alpha, d.fit_rows) for d in model.detectors]
        assert rebuilt == model.detectors
        assert replace(model, detectors=rebuilt).to_json() == model.to_json()
        rows = score.codes
        for d, r in zip(model.detectors, rebuilt):
            votes = ensemble._column_vote([d], [1.0], rows)
            assert votes.tobytes() == ensemble._column_vote([r], [1.0], rows).tobytes()
            row_layouts = [ensemble._Layout.of([x], [1.0]) for x in (d, r)]
            assert [[ensemble._vote(layout, row) for row in rows[:60]]
                    for layout in row_layouts] == [votes[:60].tolist()] * 2

    @settings(max_examples=100)
    @given(st.lists(constructor_args(fitting=True) | constructor_args(), min_size=1, max_size=4))
    # more than 1 024 counts near 2**53: their int64 sum wraps, once to fit_rows
    @example(drawn=[((0,), {(i,): 1.0 for i in range(1025)}, set(), 0.1, 2**53 - 1)])
    @example(drawn=[((0,), WRAPPING, set(), 0.1, 2**53 - 1)])
    def test_the_constructor_takes_exactly_the_detectors_of_counts(self, drawn):
        detectors = []
        for args in drawn:
            if fits_count_layout(*args[1:3], args[4]):
                detectors.append(SubspaceDetector(*args))
            else:
                with pytest.raises(ValueError):
                    SubspaceDetector(*args)
        if not detectors:
            return
        model = EnsembleModel(detectors, np.full(len(detectors), 0.5), rho=0.5, alpha=0.1)
        text = model.to_json()
        loaded = EnsembleModel.from_json(text)
        assert loaded.detectors == detectors
        assert loaded.to_json() == text
        rebuilt = [SubspaceDetector(d.subspace, d.cell_mass, d.accepted_cells, d.alpha,
                                    d.fit_rows) for d in loaded.detectors]
        assert rebuilt == detectors
        assert replace(model, detectors=rebuilt).to_json() == text

    @pytest.mark.parametrize("subspace, cell_mass, accepted_cells", [
        ((), {}, set()),
        ((0, -1), {}, set()),
        ((0, True), {}, set()),
        # cells of the wrong width: flat codes would regroup them
        ((0, 1), {(0, 1, 2): 0.5, (3,): 0.5}, {(0, 1, 2)}),
        ((0, 1), {(0, 1): 1.0}, {(0,)}),
        ((0, 1), {(0, 2**63): 1.0}, set()),
        ((0, 1), {(0, 1): 1.0}, {(0, 2**63)}),
        ((0, 1), {(0, -1): 1.0}, set()),
        ((0, 1), {(0, 1): 1.0}, {(-2**63 - 1, 0)}),
        ((0, 1), {(0, True): 1.0}, set()),
        ((0, 1), {(0, 1.0): 1.0}, set()),
        ((0, 1), {(0, 1): float("nan")}, set()),
        ((0, 1), {(0, 1): float("-inf")}, set()),
        ((0, 1), {(0, 1): 10**400}, set()),
        ((0, 1), {(0, 1): "1.0"}, set()),
    ])
    def test_what_no_model_file_can_hold_is_refused(self, subspace, cell_mass, accepted_cells):
        with pytest.raises(ValueError):
            SubspaceDetector(subspace, cell_mass, accepted_cells, 0.05, 1)

    def test_fit_rows_is_required(self):
        cell_mass = {(0,): 0.5, (1,): 0.5}
        assert SubspaceDetector((0,), cell_mass, set(), 0.05, np.int64(2)).fit_rows == 2
        with pytest.raises(TypeError):
            SubspaceDetector((0,), cell_mass, set(), 0.05)

    @pytest.mark.parametrize("fit_rows", [None, 2.0, True, np.float64(2), -2, 3, 2**53])
    def test_fit_rows_that_do_not_count_the_masses_are_refused(self, fit_rows):
        with pytest.raises(ValueError):
            SubspaceDetector((0,), {(0,): 0.5, (1,): 0.5}, set(), 0.05, fit_rows)

    def test_views_cannot_be_assigned_or_mutated(self):
        model = pinned_model()
        text = model.to_json()
        assert classify(model, (2, 2)) == (0.5, "anomaly")
        layout = model._layout
        for d in model.detectors:
            for name in ("subspace", "cell_mass", "accepted_cells", "alpha", "fit_rows"):
                with pytest.raises(AttributeError):
                    setattr(d, name, getattr(d, name))
                with pytest.raises(AttributeError):
                    delattr(d, name)
            with pytest.raises(TypeError):
                d.cell_mass[(2,) * len(d.subspace)] = 1.0
            with pytest.raises(AttributeError):
                d.accepted_cells.add((2,) * len(d.subspace))
        assert classify(model, (2, 2)) == (0.5, "anomaly")
        assert model._layout is layout
        assert model.to_json() == text


def touched(detectors):
    """The detectors, each with its views read and kept."""
    for d in detectors:
        d.cell_mass
    return detectors


def ranked_cells(d):
    """A detector's cells by descending count, ties in tuple order, read from its views."""
    return sorted(d.cell_mass, key=lambda cell: (-d.cell_mass[cell], cell))


class TestArrayBackedDetectors:
    @settings(max_examples=30)
    @given(vote_cases())
    def test_fitted_and_read_back_arrays_score_and_write_as_their_views(self, case):
        fit, subspaces, alpha, score = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        text = model.to_json()
        for held in (model, EnsembleModel.from_json(text)):
            viewed = EnsembleModel.from_json(text)
            touched(viewed.detectors)  # reading the views changes no path
            assert held.detectors == viewed.detectors
            assert held.to_json() == viewed.to_json() == text
            assert (classify_table(held, score)[0].tobytes()
                    == classify_table(viewed, score)[0].tobytes())

    @settings(max_examples=30)
    @given(vote_cases())
    def test_arrays_equal_the_views_they_build(self, case):
        fit, subspaces, alpha, _ = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        for held in (model, EnsembleModel.from_json(model.to_json())):
            for d in held.detectors:
                cells, counts, k = d._cells, d._counts, len(d._accepted)
                assert d._accepted.tobytes() == cells[:k].tobytes()
                assert d.fit_rows == int(counts.sum())
                ranked = ranked_cells(d)
                assert [tuple(c) for c in cells.tolist()] == ranked
                assert [d.cell_mass[c] for c in ranked] == [c / d.fit_rows for c in counts.tolist()]
                assert d.accepted_cells == set(ranked[:k])

    @settings(max_examples=30)
    @given(vote_cases())
    def test_calibration_votes_and_rho_match_the_view_path(self, case):
        fit, subspaces, alpha, _ = case
        model = fit_ensemble(fit, subspaces, alpha=alpha, seed=4)
        # each detector's validation votes, one detector at a time
        _, val_idx = split_indices(fit.n_rows, 0.3, 4)
        val = fit.codes[val_idx]
        for d in model.detectors:
            votes = ensemble._column_vote([d], [1.0], val)
            assert votes.tolist() == [oracles.vote_of(d, row) for row in val]

    @settings(max_examples=20)
    @given(vote_cases(), st.data())
    def test_a_cell_listed_twice_is_refused_on_a_wide_subspace(self, case, data):
        fit, subspaces, alpha, _ = case
        doc = fit_ensemble(fit, subspaces, alpha=alpha, seed=4).to_json_dict()
        det = doc["detectors"][0]  # the subspace whose cell space passes 2^63
        width, n_cells = len(det["attrs"]), len(det["counts"])
        assert width >= 24 and n_cells >= 2
        i, j = sorted(data.draw(st.lists(st.integers(0, n_cells - 1), min_size=2, max_size=2,
                                         unique=True)))
        det["cells"][j * width:(j + 1) * width] = det["cells"][i * width:(i + 1) * width]
        with pytest.raises(SchemaError, match="detector 0 field 'cells' lists a cell twice"):
            EnsembleModel.from_json_dict(doc)

    @pytest.mark.parametrize("cells, counts", [
        # the tied (0, 2) and (2, 2) swapped
        ([1, 1, 0, 1, 1, 0, 2, 0, 2, 2, 0, 2], [4, 3, 2, 2, 1, 1]),
        # the tied (1, 0) and (2, 0) swapped
        ([1, 1, 0, 1, 2, 0, 1, 0, 0, 2, 2, 2], [4, 3, 2, 2, 1, 1]),
        # a count above the one before it
        ([1, 1, 0, 1, 1, 0, 2, 0, 0, 2, 2, 2], [4, 3, 2, 2, 1, 2]),
    ])
    def test_a_file_not_in_rank_order_is_refused(self, cells, counts):
        doc = json.loads(PINNED_COUNT)
        doc["detectors"][1].update(cells=cells, counts=counts)
        for read in DOCUMENT_READERS:
            with pytest.raises(SchemaError, match="detector 1 field 'cells' must be ranked"):
                read(doc)

    def test_a_cell_accepted_through_the_constructor_votes_in_both_kernels_and_is_written(self):
        model = pinned_model()
        table = table_from_rows([[2, 2], [0, 1]])
        assert classify(model, (2, 2)) == (0.5, "anomaly")
        d = model.detectors[1]
        wider = SubspaceDetector(d.subspace, d.cell_mass, d.accepted_cells | {(2, 2)}, d.alpha,
                                 d.fit_rows)
        model = replace(model, detectors=[model.detectors[0], wider])
        assert classify(model, (2, 2)) == (1.0, "normal")
        assert classify_table(model, table)[0].tolist() == [1.0, 1.0]
        # every cell is accepted now, still a ranked prefix
        assert json.loads(model.to_json())["detectors"][1]["accepted"] == 6

    @settings(max_examples=30)
    @given(vote_cases())
    def test_one_row_calls_leave_the_arrays_holding_the_model(self, case):
        fit, subspaces, alpha, score = case
        text = fit_ensemble(fit, subspaces, alpha=alpha, seed=4).to_json()
        model, fresh, viewed = (EnsembleModel.from_json(text) for _ in range(3))
        want = [oracles.score_of(viewed.detectors, viewed.weights, row) for row in score.codes]
        assert [classify(model, row)[0] for row in score.codes] == want
        assert [detector_predict(d, score.codes[0]) for d in model.detectors] == [
            oracles.vote_of(d, score.codes[0]) for d in viewed.detectors]
        assert (classify_table(model, score)[0].tobytes()
                == classify_table(fresh, score)[0].tobytes())
        assert model.to_json() == text

    def test_equality_compares_the_arrays(self):
        a, b = pinned_model().detectors[1], pinned_model().detectors[1]
        assert a == b and a is not b
        assert not {"cell_mass", "accepted_cells"} & (a.__dict__.keys() | b.__dict__.keys())
        # the same cells and masses, and another accepted prefix or fit_rows
        assert SubspaceDetector(a.subspace, a.cell_mass, set(), a.alpha, a.fit_rows) != a
        one = SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)
        assert SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 2) != one
        assert one == SubspaceDetector((0,), {(0,): 1.0}, {(0,)}, 0.05, 1)

    def test_threads_scoring_a_fresh_model_agree(self):
        rng = np.random.default_rng(62)
        fit = random_table(rng, n_rows=200, n_attrs=6)
        text = fit_ensemble(fit, [(0, 1, 2), (3, 4), (5,), (1, 4)], alpha=0.1, seed=4).to_json()
        rows = fit.codes[:50]
        want = [classify(EnsembleModel.from_json(text), row) for row in rows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                model = EnsembleModel.from_json(text)
                got = [None] * 6

                def score(i, model=model, got=got):
                    got[i] = [classify(model, row) for row in rows]

                threads = [threading.Thread(target=score, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert got == [want] * 6
                assert [cells for _, cells, _ in model._layout.parts] == [
                    d.accepted_cells for d in model.detectors]
        finally:
            sys.setswitchinterval(interval)


# 0, 9, 10, 99, 100, ..., 10**18 - 1, 10**18 and 2**63 - 1: a value of every decimal width
DIGIT_EDGES = [0, *(10**k + d for k in range(1, 19) for d in (-1, 0)), 2**63 - 1]
# how a drawn model's detector is held when it is written
HOLDS = ("arrays", "accept-next", "built", "numpy", "near-2^53")
NAMES = ["é", "☃ snow", "\u2028line", 'q"uo\\te', "😀", "\x7f\x00"]
SYMBOLS = ["ü", "中文", "a\tb", "🎲", "plain"]


def preprocess_of(rng, n_attrs: int) -> PreprocessModel:
    """A preprocessing model whose column names and symbols need escapes."""
    columns = []
    for j in range(n_attrs):
        name = f"{NAMES[j % len(NAMES)]}{j}"
        if j % 2:
            columns.append({"name": name, "kind": "numeric", "mean": float(rng.normal()),
                            "edges": np.sort(rng.normal(size=3)).tolist()})
        else:
            symbols = rng.permutation(SYMBOLS).tolist()
            columns.append({"name": name, "kind": "categorical", "mode": symbols[0],
                            "symbols": symbols})
    return PreprocessModel.from_json_dict({"bins": 4, "columns": columns})


def near_2_53(rng, d: SubspaceDetector) -> SubspaceDetector:
    """A detector of ``d``'s cells read from a file whose counts lie just below 2**53."""
    cells = ranked_cells(d)
    small = rng.integers(1, 4, size=len(cells) - 1).tolist()
    counts = [2**53 - int(rng.integers(1, 64)) - sum(small), *small]
    ranked = sorted(zip(counts, cells), key=lambda pair: (-pair[0], pair[1]))
    entry = {"attrs": list(d.subspace), "cells": [x for _, cell in ranked for x in cell],
             "counts": [n for n, _ in ranked], "accepted": int(rng.integers(0, len(cells) + 1))}
    doc = {"alpha": d.alpha, "rho": 0.5, "weights": [1.0], "detectors": [entry]}
    return EnsembleModel.from_json_dict(doc).detectors[0]


@st.composite
def written_models(draw, digits=19):
    """A fitted model whose detectors are held each way one can be written.

    One column holds a code of every decimal width up to ``digits`` (19:
    up to 2**63 - 1), the others a few of them. A detector is left as
    fitted, rebuilt through the constructor with one more ranked cell
    accepted, rebuilt from Python or numpy codes, masses and fit_rows, or
    replaced by one read from a file whose counts lie just below 2**53.
    Half the models carry a preprocessing model of non-ASCII names and
    symbols.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.array([x for x in DIGIT_EDGES if len(str(x)) <= digits], dtype=np.int64)
    n_attrs, n_rows = int(rng.integers(1, 5)), int(rng.integers(edges.size, 120))
    codes = np.stack([rng.choice(rng.choice(edges, size=int(rng.integers(1, 5))), size=n_rows)
                      for _ in range(n_attrs)], axis=1)
    codes[:edges.size, rng.integers(n_attrs)] = edges
    subspaces = [tuple(sorted(rng.choice(n_attrs, size=int(rng.integers(1, n_attrs + 1)),
                                         replace=False).tolist()))
                 for _ in range(int(rng.integers(1, 5)))]
    pp = preprocess_of(rng, n_attrs) if draw(st.booleans()) else None
    model = fit_ensemble(DiscreteTable(codes), subspaces, alpha=draw(st.floats(0.01, 0.5)),
                         seed=4, preprocess=pp)
    holds = draw(st.lists(st.sampled_from(HOLDS), min_size=len(subspaces),
                          max_size=len(subspaces)))
    for i, (d, hold) in enumerate(zip(model.detectors, holds)):
        if hold == "accept-next":  # one more ranked cell accepted: still a ranked prefix
            model.detectors[i] = SubspaceDetector(
                d.subspace, d.cell_mass, ranked_cells(d)[:len(d.accepted_cells) + 1], d.alpha,
                d.fit_rows)
        elif hold == "built":
            model.detectors[i] = SubspaceDetector(d.subspace, dict(d.cell_mass),
                                                  set(d.accepted_cells), d.alpha, d.fit_rows)
        elif hold == "numpy":
            model.detectors[i] = SubspaceDetector(
                d.subspace, {tuple(np.array(c)): np.float64(m) for c, m in d.cell_mass.items()},
                {tuple(np.array(c)) for c in d.accepted_cells}, d.alpha, np.int64(d.fit_rows))
        elif hold == "near-2^53":
            model.detectors[i] = near_2_53(rng, d)
    return model


class NoToList(np.ndarray):
    def tolist(self):
        raise AssertionError("a cell array was listed")


class TestModelWriter:
    @settings(max_examples=40)
    @given(written_models())
    def test_to_json_writes_the_document_to_json_dict_gives(self, model):
        for held in (model, EnsembleModel.from_json(model.to_json())):
            text = held.to_json()
            assert text == json.dumps(held.to_json_dict(), separators=(",", ":"),
                                      sort_keys=True) + "\n"
            assert EnsembleModel.from_json(text).to_json() == text

    def test_decimal_kernel_writes_what_str_writes(self):
        a = np.array(DIGIT_EDGES, dtype=np.int64)
        for values in (a, a[::-1], a[5:6]):
            assert ensemble._decimal(values) == ",".join(map(str, values.tolist()))
        assert ensemble._decimal(np.array([], dtype=np.int64)) == ""

    def test_writing_an_array_held_model_lists_no_cell_array(self):
        model = pinned_model()
        for d in model.detectors:
            d.__dict__.update(_cells=d._cells.view(NoToList), _counts=d._counts.view(NoToList))
        assert model.to_json() == PINNED_COUNT

    def test_a_detector_of_numpy_codes_and_masses_writes_reads_back_and_scores_the_same(self):
        codes = np.array([[0, 1], [1, 0]])
        dets = [SubspaceDetector((0, 1), {tuple(codes[0]): 2 / 3, tuple(codes[1]): 1 / 3},
                                 {tuple(codes[0])}, 0.05, np.int64(3)),
                SubspaceDetector((1,), {(np.int64(0),): np.float64(0.25), (np.int64(1),): 0.75},
                                 {(np.int64(1),)}, 0.05, 4)]
        model = EnsembleModel(dets, np.array([0.5, 0.5]), rho=np.float32(0.5),
                              alpha=np.float64(0.05))
        loaded = EnsembleModel.from_json(model.to_json())
        assert detector_fields(loaded) == detector_fields(model)
        assert (loaded.rho, loaded.alpha) == (0.5, 0.05)
        table = table_from_rows([[0, 1], [1, 0], [1, 1], [2, 1]])
        want = [1.0, 0.0, 0.5, 0.5]
        assert classify_table(loaded, table)[0].tolist() == want
        assert classify_table(model, table)[0].tolist() == want
        assert [classify(loaded, row) for row in table.codes] == [
            classify(model, row) for row in table.codes]
        assert loaded.to_json() == model.to_json()


def read_as_json_does(text):
    """The reference reader: ``json.loads``, then ``from_json_dict``; a text
    that is not JSON raises as ``from_json`` words it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not JSON: {exc}") from exc
    return EnsembleModel.from_json_dict(doc)


def outcome(read, text):
    """What a reader makes of a text: the model's bytes, views, arrays and
    parameters, or the type and message of what it raised."""
    try:
        model = read(text)
        return (model.to_json(), detector_fields(model), [d.fit_rows for d in model.detectors],
                [(d._cells.dtype, d._counts.dtype) for d in model.detectors],
                model.weights.tobytes(), model.rho, model.alpha,
                model.preprocess and model.preprocess.to_json_dict())
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)


# a count-layout array as the numpy reader finds it
ARRAY = re.compile(r'"(?:cells|counts)":\[([0-9,]*)\]')
# items past what the numpy reader parses (19 and 21 digits), and the widest it does
LONG_ITEMS = ("999999999999999999", "1000000000000000000", str(2**63 - 1), str(10**20))
TEXT_EDITS = ("leading-zero", "empty", "long-item", "nested", "duplicate", "forged", "nul",
              "name-object", "truncate", "indent", "field-edit", "count-field-edit")


def edited(draw, text: str, edit: str) -> str:
    """The text with one drawn edit of kind ``edit``, or as it is where the
    edit finds nothing to change."""
    arrays = list(ARRAY.finditer(text))
    full = [m for m in arrays if m[1]]
    entries = [m.start() + 1 for m in re.finditer(r'\{"accepted"', text)]
    if edit in ("leading-zero", "long-item") and full:
        m = draw(st.sampled_from(full))
        starts = [m.start(1)] + [m.start(1) + i + 1 for i, c in enumerate(m[1]) if c == ","]
        at = draw(st.sampled_from(starts))
        if edit == "leading-zero":
            return text[:at] + "0" + text[at:]
        end = text.find(",", at, m.end(1))
        end = m.end(1) if end < 0 else end
        return text[:at] + draw(st.sampled_from(LONG_ITEMS)) + text[end:]
    if edit == "empty" and arrays:
        m = draw(st.sampled_from(arrays))
        return text[:m.start(1)] + text[m.end(1):]
    if edit in ("nested", "duplicate") and entries:
        at = draw(st.sampled_from(entries))
        field = (draw(st.sampled_from(('"cells":[1,2],', '"counts":[3],', '"cells":[],')))
                 if edit == "duplicate" else '"x":{"cells":[1,2]},')
        return text[:at] + field + text[at:]
    if edit == "forged":  # a placeholder string after a lifted array, so it is the one kept
        counts = [m for m in re.finditer(r'"counts":\[[0-9,]*\]', text)]
        if counts:
            m = draw(st.sampled_from(counts))
            return f'{text[:m.end()]},"cells":"\\u000{draw(st.integers(0, 3))}"{text[m.end():]}'
    if edit == "nul":  # in a column name, or a key of the document
        at = text.find('"name":"') + len('"name":"')
        if draw(st.booleans()) and at >= len('"name":"'):
            return text[:at] + "\\u0000" + text[at:]
        return text.replace("{", '{"\\u0000":0,', 1)
    if edit == "name-object":  # a column name that is an object holding 'cells'
        return text.replace('"name":', '"name":{"cells":[1,2]},"was":', 1)
    if edit == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return text
    if edit == "indent":
        return json.dumps(doc, indent=draw(st.integers(0, 2)), sort_keys=draw(st.booleans()))
    try:
        if edit == "field-edit":
            draw(st.sampled_from(FIELD_EDITS))[0](doc)
        elif edit == "count-field-edit":
            counted = [d for d in doc["detectors"] if isinstance(d, dict) and "counts" in d]
            if counted:
                draw(st.sampled_from(COUNT_FIELD_EDITS))[0](draw(st.sampled_from(counted)))
    except (LookupError, TypeError, AttributeError):
        pass  # an edit made for another document
    return json.dumps(doc, separators=(",", ":"), sort_keys=draw(st.booleans()))


@st.composite
def model_texts(draw):
    """A model file, fitted or built, then edited up to twice (``TEXT_EDITS``)."""
    base = draw(st.sampled_from(("written", "parsed", "constructed", "pinned")))
    if base == "written":
        text = draw(written_models()).to_json()
    elif base == "parsed":  # codes of at most 18 digits, which the numpy reader parses
        text = draw(written_models(18)).to_json()
    elif base == "constructed":
        detectors = draw(st.lists(constructed_detectors(), min_size=1, max_size=3))
        text = EnsembleModel(detectors, np.full(len(detectors), 0.5), rho=0.5,
                             alpha=0.1).to_json()
    else:
        text = draw(st.sampled_from((PINNED_COUNT, PINNED_EXPLICIT)))
    for edit in draw(st.lists(st.sampled_from(TEXT_EDITS), max_size=2)):
        text = edited(draw, text, edit)
    return text


class TestModelReader:
    @settings(max_examples=500)
    @given(model_texts())
    # a 'cells' array that is no detector's field, where the model keeps it
    @example(text=PINNED_COUNT.replace('"rho"', '"preprocess":{"bins":2,"columns":[{"kind":'
                                       '"categorical","mode":"a","name":{"cells":[1,2]},'
                                       '"symbols":["a"]}]},"rho"'))
    @example(text='{"alpha":0.1,"detectors":[{"accepted":[],"attrs":[0],"cells":[]}],'
                  '"rho":0.5,"weights":[1.0]}\n')
    @example(text=PINNED_COUNT.replace('"counts":[6,4,3]', '"counts":[06,4,3]'))
    @example(text=PINNED_COUNT.replace('"counts":[6,4,3]', '"counts":[6,4,3],"cells":"\\u00000"'))
    def test_a_text_reads_as_json_then_from_json_dict_read_it(self, text):
        assert outcome(EnsembleModel.from_json, text) == outcome(read_as_json_does, text)

    @settings(max_examples=200)
    @given(model_texts())
    def test_every_detector_read_is_the_one_its_views_build(self, text):
        try:
            model = EnsembleModel.from_json(text)
        except SchemaError:
            return
        rebuilt = [SubspaceDetector(d.subspace, d.cell_mass, d.accepted_cells, d.alpha,
                                    d.fit_rows) for d in model.detectors]
        assert rebuilt == model.detectors
        assert replace(model, detectors=rebuilt).to_json() == model.to_json()

    def test_a_fitted_model_file_leaves_json_only_the_rest(self):
        t = random_table(np.random.default_rng(58), n_rows=200, n_attrs=4)
        text = fit_ensemble(t, [(0, 1, 2), (1, 3)], alpha=0.05, seed=2).to_json()
        with mock.patch.object(ensemble.json, "loads", wraps=json.loads) as loads:
            loaded = EnsembleModel.from_json(text)
        (remainder,), _ = loads.call_args
        assert loads.call_count == 1 and ARRAY.search(remainder) is None
        assert remainder.count('"\\u0000') == 2 * len(loaded.detectors)  # a placeholder each
        assert loaded.to_json() == text

    @pytest.mark.parametrize("run_chars", [1, 40, 1 << 16])
    def test_items_are_read_as_decimal_writes_them_up_to_18_digits(self, run_chars):
        a = np.array([x for x in DIGIT_EDGES if x < 10**18], dtype=np.int64)
        with mock.patch.object(ensemble, "_PARSE_CHARS", run_chars):
            arrays = ensemble._integers(
                [ensemble._decimal(a), "", ensemble._decimal(a[::-1]), "0", "7,8"])
            assert [x.tolist() for x in arrays] == [a.tolist(), [], a[::-1].tolist(), [0], [7, 8]]
            assert all(x.dtype == np.int64 for x in arrays)
            for body in ("01", "00", "1,,2", ",1", "1,", ",", "1" * 19):
                assert ensemble._integers(["5", body, "6"]) is None
