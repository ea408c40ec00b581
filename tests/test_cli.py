import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aag
from aag import cli
from aag.cli import main

from synth import grouped_csv_text, two_class_csv_text
from test_ensemble import PINNED_EXPLICIT


@pytest.fixture()
def grouped_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(grouped_csv_text(n_rows=240, group_sizes=(3, 3), seed=5), encoding="utf-8")
    return path


@pytest.fixture()
def two_class_csv(tmp_path):
    path = tmp_path / "classes.csv"
    path.write_text(two_class_csv_text(n_majority=200, n_minority=60, seed=6), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSubspaces:
    def test_writes_parseable_subspace_json(self, tmp_path, grouped_csv):
        out = tmp_path / "subspaces.json"
        assert run("subspaces", "--input", grouped_csv, "--output", out) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"levels", "subspaces"}
        assert all(set(s) == {"attrs", "level"} for s in doc["subspaces"])
        # the class column is constant, every real attribute appears at level 1
        assert sorted(a for (a,) in doc["levels"][0]) == list(range(7))

    def test_finds_a_planted_group(self, tmp_path, grouped_csv):
        out = tmp_path / "subspaces.json"
        run("subspaces", "--input", grouped_csv, "--output", out)
        found = {tuple(s["attrs"]) for s in json.loads(out.read_text())["subspaces"]}
        assert any(set(a) >= {0, 1, 2} or set(a) >= {3, 4, 5} for a in found)

    def test_include_singletons_flag(self, tmp_path, grouped_csv):
        out = tmp_path / "with.json"
        run("subspaces", "--input", grouped_csv, "--output", out, "--include-singletons")
        doc = json.loads(out.read_text())
        assert any(len(s["attrs"]) == 1 for s in doc["subspaces"])


class TestTrainAndScore:
    def test_train_writes_complete_model(self, tmp_path, grouped_csv):
        model_path = tmp_path / "model.json"
        assert run("train", "--input", grouped_csv, "--output", model_path, "--seed", 3) == 0
        doc = json.loads(model_path.read_text())
        assert set(doc) == {"alpha", "rho", "weights", "detectors", "preprocess"}
        assert doc["alpha"] == 0.05
        assert 0.0 <= doc["rho"] <= 1.0
        assert abs(sum(doc["weights"]) - 1.0) < 1e-9

    def test_score_emits_row_per_input(self, tmp_path, grouped_csv):
        model_path = tmp_path / "model.json"
        scores_path = tmp_path / "scores.csv"
        run("train", "--input", grouped_csv, "--output", model_path)
        assert run("score", "--input", grouped_csv, "--model", model_path,
                   "--output", scores_path) == 0
        lines = scores_path.read_text().strip().splitlines()
        assert lines[0] == "row_index,score,label"
        assert len(lines) == 241
        assert all(line.split(",")[2] in {"normal", "anomaly"} for line in lines[1:])

    def test_score_schema_mismatch_exits_2_naming_column(self, tmp_path, grouped_csv, capsys):
        model_path = tmp_path / "model.json"
        run("train", "--input", grouped_csv, "--output", model_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("z0,z1\n1.0,2.0\n", encoding="utf-8")
        code = run("score", "--input", bad, "--model", model_path,
                   "--output", tmp_path / "s.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "a0" in err or "columns" in err

    def test_score_file_with_an_all_missing_numeric_column(self, tmp_path):
        rng = np.random.default_rng(8)
        train = tmp_path / "train.csv"
        train.write_text("a,b,c\n" + "".join(
            f"{x:.3f},{x + rng.normal(0, 0.1):.3f},{'pq'[i % 2]}\n"
            for i, x in enumerate(rng.normal(size=60))), encoding="utf-8")
        model_path = tmp_path / "model.json"
        assert run("train", "--input", train, "--output", model_path) == 0
        score_in = tmp_path / "score.csv"
        score_in.write_text("a,b,c\n0.5,?,p\n-1.0,,q\n", encoding="utf-8")
        scores_path = tmp_path / "scores.csv"
        assert run("score", "--input", score_in, "--model", model_path,
                   "--output", scores_path) == 0
        lines = scores_path.read_text().splitlines()
        assert lines[0] == "row_index,score,label"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_a_column_near_the_float_range_trains_and_scores(self, tmp_path):
        # the column's sum and its midpoints pass the float range
        data = tmp_path / "huge.csv"
        data.write_text("a,b\n" + "".join(f"{(1.7e308, -1.7e308, 1.5e308)[i % 3]!r},{i % 4}\n"
                                          for i in range(60)), encoding="utf-8")
        model_path = tmp_path / "model.json"
        assert run("train", "--input", data, "--output", model_path) == 0
        text = model_path.read_text(encoding="utf-8")
        assert "Infinity" not in text and "NaN" not in text
        assert run("score", "--input", data, "--model", model_path,
                   "--output", tmp_path / "scores.csv") == 0

    def test_indented_model_from_an_earlier_version_scores_the_same(self, tmp_path, grouped_csv):
        model_path = tmp_path / "model.json"
        assert run("train", "--input", grouped_csv, "--output", model_path) == 0
        text = model_path.read_text(encoding="utf-8")
        assert text.count("\n") == 1
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        outputs = []
        for path in (model_path, indented):
            out = tmp_path / f"scores-{path.stem}.csv"
            assert run("score", "--input", grouped_csv, "--model", path, "--output", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_input_exits_2(self, tmp_path, grouped_csv):
        model_path = tmp_path / "model.json"
        run("train", "--input", grouped_csv, "--output", model_path)
        code = run("score", "--input", tmp_path / "absent.csv", "--model", model_path,
                   "--output", tmp_path / "s.csv")
        assert code == 2

    @pytest.mark.parametrize("edit", [
        lambda pp: pp["columns"][-1].update(mode="absent"),
        lambda pp: pp["columns"][-1].update(symbols="n"),
        lambda pp: pp["columns"][-1].update(symbols=["n", "n"]),
        lambda pp: pp["columns"][-1].update(symbols=["n", 1]),
        lambda pp: pp["columns"][-1].update(kind="ordinal"),
        lambda pp: pp["columns"][0].update(edges=pp["columns"][0]["edges"][::-1]),
        lambda pp: pp["columns"][0].update(edges=[0.0, 0.0]),
        lambda pp: pp["columns"][0].update(edges=[0.0, float("inf")]),
        lambda pp: pp["columns"][0].update(edges=[0.0, "1.0"]),
        lambda pp: pp["columns"][0].update(edges=0.5),
        lambda pp: pp["columns"][0].update(mean=float("nan")),
        lambda pp: pp["columns"][0].update(mean="0.5"),
        lambda pp: pp.update(bins=1),
        lambda pp: pp.update(bins="10"),
        lambda pp: pp.update(bins=10.0),
        lambda pp: pp.update(bins=True),
    ], ids=["mode-not-a-symbol", "symbols-a-string", "repeated-symbols", "non-string-symbol",
            "unknown-kind", "descending-edges", "equal-edges", "infinite-edge", "string-edge",
            "edges-not-a-list", "nan-mean", "string-mean", "one-bin", "string-bins",
            "float-bins", "bool-bins"])
    def test_malformed_preprocess_section_exits_2(self, tmp_path, grouped_csv, capsys, edit):
        model_path = tmp_path / "model.json"
        assert run("train", "--input", grouped_csv, "--output", model_path) == 0
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        edit(doc["preprocess"])  # column a0 is numeric, the last (class) categorical
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        code = run("score", "--input", grouped_csv, "--model", model_path,
                   "--output", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "'preprocess'" in err
        assert "internal error" not in err

    def test_input_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, grouped_csv, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(grouped_csv.read_bytes() + b"\xff,1,2,3,4,5,x\n")
        code = run("train", "--input", bad, "--output", tmp_path / "model.json")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "latin1.csv: not UTF-8" in err

    def test_model_that_is_not_utf8_exits_2(self, tmp_path, grouped_csv, capsys):
        model_path = tmp_path / "model.json"
        assert run("train", "--input", grouped_csv, "--output", model_path) == 0
        model_path.write_bytes(model_path.read_bytes().replace(b'"alpha"', b'"\xffalpha"'))
        code = run("score", "--input", grouped_csv, "--model", model_path,
                   "--output", tmp_path / "s.csv")
        err = capsys.readouterr().err
        assert code == 2, err
        assert "model file is not UTF-8" in err

    def test_malformed_model_exits_2_naming_field(self, tmp_path, grouped_csv, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"alpha": 0.05}', encoding="utf-8")
        code = run("score", "--input", grouped_csv, "--model", model_path,
                   "--output", tmp_path / "s.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "'detectors'" in err
        assert "internal error" not in err

    def test_explicit_layout_model_exits_2_saying_to_retrain(self, tmp_path, grouped_csv,
                                                             capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(PINNED_EXPLICIT, encoding="utf-8")
        code = run("score", "--input", grouped_csv, "--model", model_path,
                   "--output", tmp_path / "s.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "detector 0 is in the explicit layout" in err and "retrain" in err
        assert not (tmp_path / "s.csv").exists()


class TestBench:
    def test_setting1_rows_and_mean(self, tmp_path, grouped_csv, capsys):
        out = tmp_path / "bench.csv"
        code = run("bench", "--input", grouped_csv, "--output", out, "--class-column", "class",
                   "--setting", 1, "--fraction", 0.2, "--repeats", 3, "--seed", 11)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "repeat,seed,tp,fp,fn,tn,f1"
        assert len(lines) == 5
        f1s = [float(line.split(",")[-1]) for line in lines[1:4]]
        mean = float(lines[4].split(",")[-1])
        assert mean == pytest.approx(sum(f1s) / 3, abs=1e-6)
        assert "mean_f1" in capsys.readouterr().out

    def test_setting3_detects_structure_breaking_novelties(self, tmp_path, two_class_csv):
        out = tmp_path / "bench3.csv"
        code = run("bench", "--input", two_class_csv, "--output", out,
                   "--class-column", "class", "--setting", 3,
                   "--minority-fraction", 0.2, "--repeats", 2, "--seed", 12)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        # the minority class keeps per-attribute ranges but breaks the joint
        # structure, so the ensemble should catch most of it
        assert float(lines[-1].split(",")[-1]) > 0.5

    def test_identical_seeds_are_byte_identical(self, tmp_path, grouped_csv):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            run("bench", "--input", grouped_csv, "--output", out, "--class-column", "class",
                "--setting", 1, "--fraction", 0.2, "--repeats", 2, "--seed", 13)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_class_data_fails_setting3(self, tmp_path, grouped_csv):
        code = run("bench", "--input", grouped_csv, "--output", tmp_path / "x.csv",
                   "--class-column", "class", "--setting", 3, "--repeats", 1)
        assert code == 2

    @pytest.mark.parametrize("setting", [1, 3])
    def test_absent_class_column_exits_2_naming_it(self, tmp_path, two_class_csv, capsys,
                                                   setting):
        code = run("bench", "--input", two_class_csv, "--output", tmp_path / "x.csv",
                   "--class-column", "zzz", "--setting", setting, "--repeats", 1)
        assert code == 2
        assert "no class column 'zzz'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestStability:
    def test_report_written(self, tmp_path, grouped_csv, capsys):
        out = tmp_path / "stability.json"
        code = run("stability", "--input", grouped_csv, "--output", out,
                   "--repeats", 3, "--seed", 14)
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["si"] <= 1.0
        assert doc["run_count"] == 3
        assert "si=" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self):
        assert run("subspaces", "--input", "x.csv") == 1

    def test_unknown_command_exits_1(self):
        assert run("frobnicate") == 1

    def test_bad_alpha_exits_1(self, tmp_path, grouped_csv):
        code = run("train", "--input", grouped_csv, "--output", tmp_path / "m.json",
                   "--alpha", 2.0)
        assert code == 1

    @pytest.mark.parametrize("flag,value,command", [
        *((flag, value, command)
          for command in ("subspaces", "train", "bench", "stability")
          for flag, value in (("--cap", 1), ("--cap", 4), ("--alpha", 0), ("--alpha", 1.5),
                              ("--alpha", "nan"), ("--val-fraction", 0), ("--val-fraction", 1),
                              ("--bins", 1), ("--bins", "two"))),
        ("--repeats", 0, "bench"), ("--repeats", -1, "bench"), ("--repeats", "two", "bench"),
        ("--repeats", 1, "stability"), ("--repeats", 0, "stability"),
        ("--fraction", 0, "bench"), ("--fraction", 1.5, "bench"), ("--fraction", "nan", "bench"),
        ("--minority-fraction", 0, "bench"), ("--minority-fraction", 2, "bench"),
        *(("--seed", -1, command) for command in ("subspaces", "train", "bench", "stability")),
        *(("--delimiter", value, command)
          for command in ("subspaces", "train", "score", "bench", "stability")
          for value in (";;", "")),
    ])
    def test_bad_fit_parameter_exits_1_before_reading_input(self, tmp_path, capsys,
                                                            command, flag, value):
        extra = {"bench": ["--class-column", "class", "--setting", 1],
                 "score": ["--model", tmp_path / "absent.json"]}.get(command, [])
        code = run(command, "--input", tmp_path / "absent.csv", "--output", tmp_path / "out",
                   *extra, flag, value)
        assert code == 1
        assert f"argument {flag}" in capsys.readouterr().err


def _csv_lines(n_rows, n_cols):
    """The header and first ``n_rows`` rows of a two-class CSV, last ``n_cols`` columns only."""
    lines = two_class_csv_text(n_majority=200, n_minority=60, seed=6).splitlines()
    return "".join(",".join(line.split(",")[-n_cols:]) + "\n" for line in lines[:n_rows + 1])


class TestDataFaults:
    """Input a command cannot use exits 2 naming the cause, whatever the library raises."""

    @pytest.mark.parametrize("command,text,extra,cause", [
        ("train", _csv_lines(9, 7), [], "need at least 10 training rows"),
        ("train", _csv_lines(260, 1), [], "grouping needs at least two attributes"),
        ("subspaces", _csv_lines(260, 1), [], "grouping needs at least two attributes"),
        ("stability", _csv_lines(260, 1), ["--repeats", 2],
         "grouping needs at least two attributes"),
        ("train", "\n\n", [], "no column names"),
        ("train", "", [], "empty file"),
        ("bench", _csv_lines(260, 1), ["--class-column", "class", "--setting", 3,
                                       "--repeats", 1], "training table is empty"),
        ("subspaces", _csv_lines(20, 2) + "x" * 140_000 + ",1\n", [],
         "line 22: field larger than field limit"),
    ], ids=["nine-rows", "one-column-train", "one-column-subspaces", "one-column-stability",
            "blank-header", "empty-file", "only-the-class-column", "overlong-field"])
    def test_unusable_input_exits_2_naming_the_cause(self, tmp_path, capsys,
                                                      command, text, extra, cause):
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        code = run(command, "--input", data, "--output", tmp_path / "out", *extra)
        err = capsys.readouterr().err
        assert code == 2, err
        assert cause in err
        assert "internal error" not in err
        assert not (tmp_path / "out").exists()


def _small_csv_text():
    return two_class_csv_text(n_majority=24, n_minority=8, group_sizes=(2, 2), seed=0)


@st.composite
def mutated_csvs(draw, text=None):
    """A valid CSV, by default the small one, with one to three faults drawn into it."""
    rows = [line.split(",") for line in (text or _small_csv_text()).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(("truncate", "drop-column", "blank-header", "cell",
                                      "repeat-row", "numbers-only")))
        data = rows[1:]
        if fault == "truncate":
            rows = rows[:1 + draw(st.integers(0, len(data)))]
        elif fault == "drop-column" and rows[0]:
            j = draw(st.integers(0, len(rows[0]) - 1))
            rows = [row[:j] + row[j + 1:] for row in rows]
        elif fault == "blank-header":
            rows = [[], *data]
        elif fault == "cell" and data:
            row = data[draw(st.integers(0, len(data) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(("", "?", "nan", "1e999", "text")))
        elif fault == "repeat-row" and data:
            repeated = data[draw(st.integers(0, len(data) - 1))]
            rows = [rows[0], *(list(repeated) for _ in data)]
        elif fault == "numbers-only" and data and rows[0]:
            # a column's cells that are not numbers become numbers
            j = draw(st.integers(0, len(rows[0]) - 1))
            for row in data:
                if j < len(row) and not _is_number(row[j]):
                    row[j] = draw(st.sampled_from(("1", "2", " 2 ", "0.5")))
    return "".join(",".join(row) + "\n" for row in rows)


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.fixture(scope="module")
def fault_dir(tmp_path_factory):
    """A directory holding a model trained on the unmutated CSV."""
    path = tmp_path_factory.mktemp("faults")
    clean = path / "clean.csv"
    clean.write_text(_small_csv_text(), encoding="utf-8")
    assert run("train", "--input", clean, "--output", path / "model.json") == 0
    return path


@settings(max_examples=50)
@given(text=mutated_csvs())
def test_a_mutated_csv_exits_0_or_2_from_every_command(fault_dir, text):
    data = fault_dir / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = fault_dir / "out"
    for command in (["subspaces"], ["train"], ["score", "--model", fault_dir / "model.json"],
                    ["bench", "--class-column", "class", "--setting", 1, "--repeats", 1],
                    ["bench", "--class-column", "class", "--setting", 3, "--repeats", 1],
                    ["stability", "--repeats", 2]):
        code = run(*command, "--input", data, "--output", out)
        assert code in (0, 2), (command, code)


def explicit_layout(doc):
    """A count-layout model document in the explicit layout that versions
    before the count layout wrote: ``[cell, mass]`` pairs in tuple order
    and the list of accepted cells."""
    doc = json.loads(json.dumps(doc))
    for d in doc["detectors"]:
        width, n = len(d["attrs"]), sum(d["counts"])
        cells = [d["cells"][j:j + width] for j in range(0, len(d["cells"]), width)]
        d["accepted"] = sorted(cells[:d["accepted"]])
        d["cells"] = sorted([cell, count / n] for cell, count in zip(cells, d.pop("counts")))
    return doc


@pytest.fixture(scope="module")
def model_docs(fault_dir):
    """The fault_dir model's document in the count layout, and in the explicit one."""
    count = json.loads((fault_dir / "model.json").read_text(encoding="utf-8"))
    assert [set(d) for d in count["detectors"]] == [
        {"attrs", "cells", "counts", "accepted"}] * len(count["detectors"])
    return {"count": count, "explicit": explicit_layout(count)}


BAD_CODES = (-1, 2**63, 1.5, True, "0", None)


@st.composite
def mutated_models(draw, docs):
    """A model document of either layout with one to three faults drawn
    into it, and its layout."""
    layout = draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[layout]))
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(("drop", "retype", "code", "count", "accepted",
                                      "truncate", "repeat")))
        dets = doc.get("detectors")
        dets = [d for d in dets if isinstance(d, dict)] if isinstance(dets, list) else []
        target = draw(st.sampled_from([doc, *dets]))
        if fault in ("drop", "retype"):
            if target:
                key = draw(st.sampled_from(sorted(target)))
                if fault == "drop":
                    del target[key]
                else:
                    target[key] = draw(st.sampled_from(("x", [], {}, 1.5, True, None, -1)))
            continue
        cells, counts = target.get("cells"), target.get("counts")
        if not isinstance(cells, list) or not cells:
            continue
        j = draw(st.integers(0, len(cells) - 1))
        if fault == "code":
            bad = draw(st.sampled_from(BAD_CODES))
            if isinstance(cells[j], list) and cells[j] and isinstance(cells[j][0], list):
                cells[j][0][0] = bad  # [cell, mass]
            else:
                cells[j] = bad
        elif fault == "count":
            if isinstance(counts, list) and counts:
                counts[j % len(counts)] = draw(st.sampled_from((0, -1, 2.5, True)))
            elif isinstance(cells[j], list) and len(cells[j]) == 2:
                cells[j][1] = draw(st.sampled_from((0.0, -1.0, float("nan"), 10**400, "x")))
        elif fault == "accepted":
            n_cells = len(counts) if isinstance(counts, list) else len(cells)
            target["accepted"] = draw(st.sampled_from((-1, n_cells + 1, [0], [[0]], 2.0)))
        elif fault == "truncate":
            target["cells"] = cells[:j]
        elif fault == "repeat":  # the first cell in place of the second
            if isinstance(counts, list) and len(counts) > 1:
                width = len(cells) // len(counts)
                cells[width:2 * width] = cells[:width]
            else:
                cells[-1] = cells[0]
    return layout, doc


@settings(max_examples=60)
@given(data=st.data())
def test_a_mutated_model_exits_0_or_2_from_score(fault_dir, model_docs, data):
    layout, doc = data.draw(mutated_models(model_docs))
    model_path = fault_dir / "mutated.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    code = run("score", "--input", fault_dir / "clean.csv", "--model", model_path,
               "--output", fault_dir / "mutated_scores.csv")
    # the explicit layout is refused, whatever the faults
    assert code == 2 if layout == "explicit" else code in (0, 2), doc


def _symbol_csv_text():
    """The small CSV with a categorical column 'c' of the symbols 1, 2 and a."""
    lines = _small_csv_text().splitlines()
    return "".join(f"{line},{'c' if i == 0 else '12a'[i % 3]}\n" for i, line in enumerate(lines))


@pytest.fixture(scope="module")
def symbol_dir(tmp_path_factory):
    """A directory holding a model trained on ``_symbol_csv_text``."""
    path = tmp_path_factory.mktemp("symbols")
    clean = path / "clean.csv"
    clean.write_text(_symbol_csv_text(), encoding="utf-8")
    assert run("train", "--input", clean, "--output", path / "model.json") == 0
    return path


def scores_as_before(model, path):
    """scores.csv as ``aag score`` wrote it while ``load_csv`` typed the
    score file's columns, or None for a file it refused: the model's kind
    was taken only by a column with no present cell, and each row's line
    was formatted on its own."""
    columns = model.preprocess.columns
    try:
        raw = aag.load_csv(path)
        if raw.n_attrs == len(columns):
            raw = aag.RawTable([
                aag.RawColumn(c.name, "numeric", np.full(raw.n_rows, np.nan))
                if cm.kind == "numeric" and c.kind == "categorical"
                and all(v is None for v in c.values) else c
                for cm, c in zip(columns, raw.columns)])
        coded = aag.apply_preprocessor(model.preprocess, raw)
    except (aag.AagError, ValueError):
        return None
    scores, labels = aag.classify_table(model, coded)
    return "row_index,score,label\n" + "".join(
        f"{i},{s:.6f},{label}\n" for i, (s, label) in enumerate(zip(scores.tolist(), labels)))


def load_kinds(path):
    return {c.name: c.kind for c in aag.load_csv(path).columns}


class TestScoreFileTypes:
    """``aag score`` types each column of the file by its model column."""

    def test_categorical_symbols_that_read_as_numbers_score(self, symbol_dir, capsys):
        lines = _symbol_csv_text().splitlines(keepends=True)
        numbers_only = [line for line in lines[1:] if not line.endswith(",a\n")]
        with_a = lines[:1] + numbers_only + [line for line in lines if line.endswith(",a\n")][:1]
        outputs = []
        for name, text in (("numbers", lines[:1] + numbers_only), ("with-a", with_a)):
            path = symbol_dir / f"{name}.csv"
            path.write_text("".join(text), encoding="utf-8")
            assert load_kinds(path)["c"] == ("numeric" if name == "numbers" else "categorical")
            out = symbol_dir / f"{name}-scores.csv"
            assert run("score", "--input", path, "--model", symbol_dir / "model.json",
                       "--output", out) == 0, capsys.readouterr().err
            outputs.append(out.read_text(encoding="utf-8").splitlines())
        # the rows both files hold score the same
        assert outputs[0] == outputs[1][:-1]
        assert len(outputs[0]) == len(numbers_only) + 1

    def test_a_word_in_a_numeric_column_exits_2_naming_column_and_row(self, symbol_dir, capsys):
        lines = _symbol_csv_text().splitlines(keepends=True)
        lines[3] = "word" + lines[3][lines[3].index(","):]
        path = symbol_dir / "word.csv"
        path.write_text("".join(lines), encoding="utf-8")
        code = run("score", "--input", path, "--model", symbol_dir / "model.json",
                   "--output", symbol_dir / "word-scores.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "column 'a0': expected numeric values, got 'word' in row 4" in err


@settings(max_examples=60)
@given(text=mutated_csvs(_symbol_csv_text()))
def test_a_file_that_scored_before_scores_the_same_bytes(symbol_dir, text):
    data = symbol_dir / "data.csv"
    data.write_text(text, encoding="utf-8")
    out = symbol_dir / "scores.csv"
    out.unlink(missing_ok=True)
    model_path = symbol_dir / "model.json"
    code = run("score", "--input", data, "--model", model_path, "--output", out)
    before = scores_as_before(aag.EnsembleModel.from_json(model_path.read_text()), data)
    if before is None:
        assert code in (0, 2)
    else:
        assert code == 0
        assert out.read_bytes() == before.encode("utf-8")


SCORE_VALUES = (0.0, -0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 1 / 3, 1e-300, 5e-7, 4.9999999e-7,
                float("nan"), float("inf"), -1.5)


@given(st.lists(st.sampled_from(SCORE_VALUES) | st.floats(), min_size=1, max_size=300),
       st.sampled_from((0.0, 0.5, 1 / 3, float("inf"))))
def test_scores_csv_formats_each_distinct_score_as_each_row_did(values, rho):
    scores = np.array(values, dtype=np.float64)
    labels = ["normal" if s >= rho else "anomaly" for s in scores.tolist()]
    want = "row_index,score,label\n" + "".join(
        f"{i},{s:.6f},{label}\n" for i, (s, label) in enumerate(zip(scores.tolist(), labels)))
    assert cli._scores_csv(scores, labels) == want


class TestCsvHeaders:
    def test_duplicate_class_column_exits_2_naming_it(self, tmp_path, grouped_csv, capsys):
        lines = grouped_csv.read_text(encoding="utf-8").splitlines()
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join(f"{line},{line.split(',')[-1]}" for line in lines) + "\n",
                           encoding="utf-8")
        code = run("bench", "--input", doubled, "--output", tmp_path / "b.csv",
                   "--class-column", "class", "--setting", 1, "--repeats", 1)
        assert code == 2
        assert "duplicate column name 'class'" in capsys.readouterr().err

    def test_byte_order_mark_gives_the_same_model(self, tmp_path, grouped_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(grouped_csv.read_text(encoding="utf-8").encode("utf-8-sig"))
        outputs = []
        for path in (grouped_csv, bom):
            out = tmp_path / f"{path.stem}.json"
            assert run("train", "--input", path, "--output", out, "--seed", 3) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCollector:
    """A command runs under the caller's cyclic collector; main leaves its state alone."""

    @pytest.fixture()
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exit_code", [0, 2, 3])
    def test_a_command_runs_under_the_callers_collector(self, tmp_path, grouped_csv, monkeypatch,
                                                         restore_collector, exit_code,
                                                         caller_enabled):
        model_path = tmp_path / "model.json"
        if exit_code == 2:  # the model file does not exist
            argv = ["score", "--input", grouped_csv, "--model", model_path,
                    "--output", tmp_path / "s.csv"]
        else:
            argv = ["train", "--input", grouped_csv, "--output", model_path]
        command = cli.COMMANDS[argv[0]]
        during = []

        def spy(args):
            during.append(gc.isenabled())
            if exit_code == 3:
                raise RuntimeError("broken invariant")
            return command(args)

        monkeypatch.setitem(cli.COMMANDS, argv[0], spy)
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        code = run(*argv)
        after = gc.isenabled()
        assert (code, during, after) == (exit_code, [caller_enabled], caller_enabled)

    def test_commands_leave_no_cycles_that_grow_with_the_data(self, tmp_path,
                                                              restore_collector):
        # Without reference cycles, reference counting frees a command's data
        # as soon as it is dropped, so memory does not wait for a collection:
        # what the collector finds afterwards does not depend on the table.
        def found_after_train_and_score(n_rows):
            data = tmp_path / f"rows{n_rows}.csv"
            data.write_text(grouped_csv_text(n_rows=n_rows, group_sizes=(3, 3), seed=5),
                            encoding="utf-8")
            model_path = tmp_path / f"model{n_rows}.json"
            gc.collect()
            gc.disable()
            assert run("train", "--input", data, "--output", model_path) == 0
            assert run("score", "--input", data, "--model", model_path,
                       "--output", tmp_path / f"scores{n_rows}.csv") == 0
            return gc.collect()

        found_after_train_and_score(20)  # warm-up: imports and first-call caches
        assert found_after_train_and_score(20) == found_after_train_and_score(400)


def test_console_script_round_trip(tmp_path):
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text(grouped_csv_text(n_rows=80, group_sizes=(2, 2), seed=1),
                        encoding="utf-8")
    out = tmp_path / "subspaces.json"
    # the child imports the same aag as this process, installed or not
    src = str(Path(aag.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "aag.cli", "subspaces", "--input", str(csv_path),
         "--output", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["subspaces"]
    assert "aag" in proc.stderr  # phase timing log lines
