import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from aag import preprocess
from aag.errors import ParseError, SchemaError, UnusableColumnError
from aag.preprocess import (
    CATEGORICAL,
    NUMERIC,
    ColumnModel,
    PreprocessModel,
    RawColumn,
    RawTable,
    _fields,
    _plain_lines,
    apply_preprocessor,
    code_csv,
    fit_preprocessor,
    load_csv,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def numeric_table(values, name="x"):
    return RawTable([RawColumn(name, NUMERIC, np.asarray(values, dtype=np.float64))])


def categorical_table(values, name="c"):
    return RawTable([RawColumn(name, CATEGORICAL, np.asarray(values, dtype=object))])


class TestLoadCsv:
    def test_numeric_with_missing_marker(self, tmp_path):
        raw = load_csv(write(tmp_path, "x\n1\n2\n?\n"))
        col = raw.column("x")
        assert col.kind == NUMERIC
        assert np.isnan(col.values[2])
        assert col.values[:2].tolist() == [1.0, 2.0]

    def test_text_column_is_categorical(self, tmp_path):
        raw = load_csv(write(tmp_path, "c\nR\nG\nB\n"))
        col = raw.column("c")
        assert col.kind == CATEGORICAL
        assert list(col.values) == ["R", "G", "B"]

    def test_mixed_cells_force_categorical(self, tmp_path):
        raw = load_csv(write(tmp_path, "c\n1\ntwo\n3\n"))
        assert raw.column("c").kind == CATEGORICAL

    def test_worked_example_types(self, tmp_path):
        text = "a1,a2\n0,R\n1,G\n0,R\n1,G\n0,G\n0,R\n1,B\n0,B\n0,R\n1,G\n"
        raw = load_csv(write(tmp_path, text))
        assert raw.column("a1").kind == NUMERIC
        assert raw.column("a2").kind == CATEGORICAL

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,b\n1,x\n2,y\n".encode("utf-8-sig"))
        raw = load_csv(path)
        assert raw.names == ["a", "b"]
        assert raw.column("a").kind == NUMERIC

    def test_duplicate_header_raises_naming_it(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate column name 'class'"):
            load_csv(write(tmp_path, "class,a, class\n1,2,3\n"))

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "-Infinity", "NaN", "1e999"])
    def test_non_finite_numbers_count_as_missing(self, tmp_path, text):
        raw = load_csv(write(tmp_path, f"x\n1\n{text}\n3\n?\n"))
        col = raw.column("x")
        assert col.kind == NUMERIC
        assert col.values[[0, 2]].tolist() == [1.0, 3.0]
        assert np.isnan(col.values[[1, 3]]).all()
        pp = fit_preprocessor(raw, bins=2)
        assert pp.columns[0].mean == 2.0
        assert apply_preprocessor(pp, raw).codes[:, 0].tolist() == [0, 0, 1, 0]

    def test_non_finite_text_is_a_symbol_in_a_categorical_column(self, tmp_path):
        raw = load_csv(write(tmp_path, "c\nR\ninf\nnan\n"))
        assert raw.column("c").kind == CATEGORICAL
        assert list(raw.column("c").values) == ["R", "inf", "nan"]

    def test_ragged_row_reports_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="row 3"):
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_headerless_and_custom_delimiter(self, tmp_path):
        raw = load_csv(write(tmp_path, "1;2\n3;4\n"), delimiter=";", header=False)
        assert raw.names == ["c0", "c1"]
        assert raw.column("c1").values.tolist() == [2.0, 4.0]

    def test_custom_missing_markers(self, tmp_path):
        raw = load_csv(write(tmp_path, "x\n1\nNA\n"), missing_markers=("NA",))
        assert np.isnan(raw.column("x").values[1])

    @pytest.mark.parametrize("cell", ["x" * 140_000, '"' + "x" * 140_000 + '"'],
                             ids=["plain", "quoted"])
    def test_overlong_field_raises_parse_error_naming_the_file(self, tmp_path, cell):
        path = write(tmp_path, f"a,b\n1,2\n{cell},3\n")
        with pytest.raises(ParseError, match=r"data\.csv: line 3: field larger than field limit"):
            load_csv(path)

    def test_a_line_past_the_field_limit_is_read_by_csv(self, tmp_path):
        limit = csv.field_size_limit()
        try:
            csv.field_size_limit(8)
            raw = load_csv(write(tmp_path, "a,b\n12345678,12345678\n1,2\n"))
            assert raw.column("b").values.tolist() == [12345678.0, 2.0]
            with pytest.raises(ParseError, match="line 2: field larger than field limit"):
                load_csv(write(tmp_path, "a,b\n123456789,1\n"))
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("text, delimiter, plain", [
        ("a,b\n1,2\n", ",", True),
        ("a\n\n", ",", True),
        ('a,b\n"1",2\n', ",", False),
        ("a,b\r\n1,2\r\n", ",", True),
        ("a,b\r\n1,2\n3,4", ",", True),
        ("a,b\r1,2\r", ",", False),
        ("a,b\r\r\n1,2\r\n", ",", False),
        ('a,b\r\n"1",2\r\n', ",", False),
        ("a,b\n1\x00,2\n", ",", False),
        ("a\tb\n1\t2\n", "\t", True),
        ("a\n1\n", "\n", False),
    ])
    def test_only_plain_text_is_split_without_csv(self, text, delimiter, plain):
        assert (_plain_lines(text, delimiter) is not None) == plain

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(["a", "1", " ", ",", ";", "\n", "\r\n", "\r", '"', "\x00"]),
                    max_size=40).map("".join), st.sampled_from([",", ";"]))
    def test_plain_lines_split_as_csv_reader_reads(self, text, delimiter):
        lines = _plain_lines(text, delimiter)
        plain = not ('"' in text or "\x00" in text or text.count("\r") != text.count("\r\n"))
        assert (lines is not None) == plain
        if plain:
            rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))
            assert [_fields(line, delimiter) for line in lines] == rows

    def test_quoted_fields_keep_embedded_delimiters(self, tmp_path):
        raw = load_csv(write(tmp_path, 'c,x\n"a,b",1\nplain,2\n'))
        assert list(raw.column("c").values) == ["a,b", "plain"]
        assert raw.column("x").values.tolist() == [1.0, 2.0]


# spellings that float() reads in surprising ways, or almost reads
NUMBER_LIKE = ["1_000", " inf", "nan", "NaN", "-nan", "1e999", "-1e999", "1e-400", "-0",
               "+1.5", " 2 ", "Infinity", "-inf", "\u0663", "0", "1.5e3"]
NOT_QUITE = ["0x1", "1__0", "_1", "1_", "1e", ".", "-", "1,5", "abc", "infinit", "n a n"]
MARKERS = ["", "?", "NA", "  "]
# cells whose whitespace hides a marker or a number
PADDED = [" ? ", "\t?", "? ", " NA ", " -999", "-999 ", " 1.5 ", "\t2\t", " nan ", " "]
MARKER_SETS = [("", "?"), ("NA",), ("", "?", "nan", "-"), ("-999", " ? "), ("  ", "?", "")]


@st.composite
def csv_columns(draw):
    """A header and 1-30 rows of odd cells; some columns draw only number-like cells."""
    n_rows = draw(st.integers(1, 30))
    number_like = (st.sampled_from(NUMBER_LIKE + MARKERS)
                   | st.floats().map(repr) | st.integers(-10**20, 10**20).map(str))
    anything = (number_like | st.sampled_from(NOT_QUITE)
                | st.text(alphabet=" 0123456789.e+-_xinfa?,\"", max_size=6))
    columns = [draw(st.lists(number_like if numeric else anything, min_size=n_rows, max_size=n_rows))
               for numeric in draw(st.lists(st.booleans(), min_size=1, max_size=5))]
    markers = draw(st.sampled_from([("", "?"), ("NA",), ("", "?", "nan", "-")]))
    return columns, markers


@st.composite
def csv_files(draw):
    """The text of a CSV file holding ``csv_columns`` cells, and how to read it.

    Lines end in ``\\n``, in ``\\r\\n``, in a mix of the two, or in a
    mix of ``\\r\\n`` and ``\\r``, with or without a final one, behind a
    byte-order mark or not; the delimiter is ',' or ';'; cells
    are quoted where needed or all of them; some cells are padded with
    whitespace; markers may be padded or read as numbers. Sometimes the
    file has no header, a name repeated once stripped, blank lines or a
    short row.
    """
    columns, _ = draw(csv_columns())
    for _ in range(draw(st.integers(0, 4))):
        column = columns[draw(st.integers(0, len(columns) - 1))]
        column[draw(st.integers(0, len(column) - 1))] = draw(st.sampled_from(PADDED))
    markers = draw(st.sampled_from(MARKER_SETS))
    delimiter = draw(st.sampled_from([",", ";"]))
    header = draw(st.booleans())
    endings = draw(st.sampled_from([("\n",), ("\r\n",), ("\n", "\r\n"),
                                    ("\r\n", "\r")]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL] * 3 + [csv.QUOTE_ALL])))
    if header:
        names = [f"c{j}" for j in range(len(columns))]
        if len(names) > 1 and draw(st.integers(0, 9)) == 0:
            names[-1] = " c0"
        writer.writerow(names)
    writer.writerows(zip(*columns))
    lines = buffer.getvalue().split("\n")[:-1]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].rpartition(delimiter)[0]
    ends = [draw(st.sampled_from(endings)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:len(text) - len(ends[-1])]  # no final line end
    return ("\ufeff" if draw(st.booleans()) else "") + text, delimiter, markers, header


def assert_columns_equal(raw, want):
    assert [c.kind for c in raw.columns] == [kind for kind, _ in want]
    for col, (kind, values) in zip(raw.columns, want):
        if kind == NUMERIC:
            assert col.values.dtype == np.float64
            assert col.values.tobytes() == values.tobytes()  # NaN-aware, and -0.0 stays
        else:
            assert col.values.tolist() == values.tolist()


class TestOnePassTyping:
    @given(csv_columns())
    def test_kinds_and_values_match_the_two_pass_reader(self, case):
        columns, markers = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"c{j}" for j in range(len(columns))])
                writer.writerows(zip(*columns))
            raw = load_csv(path, missing_markers=markers)
            _, want = oracles.csv_columns_of(path, missing_markers=markers)
        assert_columns_equal(raw, want)

    @settings(max_examples=300)
    @given(csv_files())
    def test_files_read_as_csv_reader_reads_them(self, case):
        text, delimiter, markers, header = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            kwargs = {"delimiter": delimiter, "missing_markers": markers, "header": header}
            try:
                names, want = oracles.csv_columns_of(path, **kwargs)
            except ValueError as exc:
                with pytest.raises(ParseError) as got:
                    load_csv(path, **kwargs)
                assert str(got.value) == str(exc)
                return
            raw = load_csv(path, **kwargs)
        assert raw.names == names
        assert_columns_equal(raw, want)

    def test_all_missing_column_stays_categorical(self, tmp_path):
        raw = load_csv(write(tmp_path, "x,y\n?,1\n,2\n"))
        assert raw.column("x").kind == CATEGORICAL
        assert raw.column("x").values.tolist() == [None, None]

    def test_first_non_number_makes_the_column_categorical(self, tmp_path):
        raw = load_csv(write(tmp_path, "x\n1_000\n-0\n0x1\n?\n"))
        assert raw.column("x").kind == CATEGORICAL
        assert raw.column("x").values.tolist() == ["1_000", "-0", "0x1", None]


def reference_codes(model, path, delimiter=",", markers=("", "?")):
    """``apply_preprocessor`` over the reference reading of the file, each
    column typed as its model column."""
    kinds = [cm.kind for cm in model.columns]
    names, columns = oracles.csv_columns_of(path, delimiter, markers, kinds=kinds)
    return apply_preprocessor(model, RawTable([RawColumn(name, kind, values)
                                               for name, (kind, values) in zip(names, columns)]))


def assert_tables_equal(got, want):
    assert got.codes.dtype == np.int64
    assert got.codes.tolist() == want.codes.tolist()
    assert got.symbol_names == want.symbol_names


@st.composite
def column_models(draw, names, columns, kinds):
    """A model of the given kinds whose statistics fall among the file's cells."""
    models = []
    for name, (_, values), kind in zip(names, columns, kinds):
        if kind == NUMERIC:
            number = st.floats(-20, 20) | st.sampled_from([0.0, -0.0, 1.5, 2.0, 1e300])
            edges = sorted(set(draw(st.lists(number, max_size=4))))
            models.append(ColumnModel(name, NUMERIC, mean=draw(number), edges=edges))
        else:
            seen = sorted({v for v in values if v is not None} | {"zz"})
            symbols = draw(st.lists(st.sampled_from(seen), min_size=1, max_size=6, unique=True))
            models.append(ColumnModel(name, CATEGORICAL, mode=draw(st.sampled_from(symbols)),
                                      symbols=symbols))
    return PreprocessModel(models, 2)


class TestCodeCsv:
    @settings(max_examples=300)
    @given(csv_files(), st.sampled_from([1, 2, 3, 7, 2048]), st.data())
    # a blank header line names no column; data is not drawn from
    @example(case=("\n\n", ",", ("", "?"), False), block=1, data=None)
    def test_files_coded_for_a_model_take_its_column_kinds(self, case, block, data):
        text, delimiter, markers, _ = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(preprocess, "_BLOCK_LINES", block):
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                names, _ = oracles.csv_columns_of(path, delimiter, markers)
            except ValueError as exc:
                model = PreprocessModel([ColumnModel("c0", NUMERIC, mean=0.0, edges=[])], 2)
                with pytest.raises(ParseError) as got:
                    code_csv(model, path, delimiter, markers)
                assert str(got.value) == str(exc)
                return
            kinds = data.draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]),
                                       min_size=len(names), max_size=len(names)))
            # categorical symbols are drawn among the stripped cells the file holds
            _, texts = oracles.csv_columns_of(path, delimiter, markers,
                                              kinds=[CATEGORICAL] * len(names))
            model = data.draw(column_models(names, texts, kinds))
            try:
                want = reference_codes(model, path, delimiter, markers)
            except ValueError as exc:
                with pytest.raises(SchemaError) as got:
                    code_csv(model, path, delimiter, markers)
                assert str(got.value) == str(exc)
                return
            got = code_csv(model, path, delimiter, markers)
        assert_tables_equal(got, want)

    def test_file_coded_for_a_model_needs_its_column_names(self, tmp_path):
        model = PreprocessModel([ColumnModel("x", NUMERIC, mean=0.0, edges=[]),
                                 ColumnModel("c", CATEGORICAL, mode="2", symbols=["2"])], 2)
        with pytest.raises(SchemaError, match="expected 2 columns, got 1"):
            code_csv(model, write(tmp_path, "x\n1\n"))
        with pytest.raises(SchemaError, match="expected 'c', got 'y'"):
            code_csv(model, write(tmp_path, "x,y\n1,2\n"))
        with pytest.raises(SchemaError, match="'x': expected numeric values, got 'a' in row 3"):
            code_csv(model, write(tmp_path, "x,c\n1,2\n a ,3\n"))

    MODEL = PreprocessModel([
        ColumnModel("x", NUMERIC, mean=0.5, edges=[-1.0, 0.0, 1.0]),
        ColumnModel("c", CATEGORICAL, mode="b", symbols=["a", "b", "c"]),
        ColumnModel("y", NUMERIC, mean=-3.0, edges=[-2.0, 2.0]),
    ], 4)

    @staticmethod
    def lines(n_rows, seed=50):
        """``n_rows`` rows of x, c, y cells with markers, padding, non-finite
        numbers and unseen symbols, as lists of fields."""
        rng = np.random.default_rng(seed)
        numbers = ["1.5", " -0.25 ", "?", "", "inf", "-1e999", " ? ", "0", "-2", "3.75"]
        symbols = ["a", " b", "c ", "?", "", "d", " ? ", "b"]
        return [[rng.choice(numbers), rng.choice(symbols), rng.choice(numbers)]
                for _ in range(n_rows)]

    @pytest.mark.parametrize("n_rows", [2047, 2048, 2049, 4097, 5000])
    def test_files_past_one_block_code_as_the_reference(self, tmp_path, n_rows):
        rows = self.lines(n_rows)
        path = write(tmp_path, "x,c,y\n" + "".join(",".join(r) + "\n" for r in rows))
        got = code_csv(self.MODEL, path)
        assert got.n_rows == n_rows
        assert_tables_equal(got, reference_codes(self.MODEL, path))

    @pytest.mark.parametrize("terminator, quoting", [("\r\n", csv.QUOTE_MINIMAL),
                                                      ("\n", csv.QUOTE_ALL)])
    def test_csv_reader_files_past_one_block_code_as_the_reference(self, tmp_path, terminator,
                                                                   quoting):
        rows = self.lines(4500, seed=51)
        rows[3000][1] = "a,b"  # a delimiter inside a quoted symbol
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=terminator, quoting=quoting)
        writer.writerow(["x", "c", "y"])
        writer.writerows(rows)
        path = write(tmp_path, buffer.getvalue())
        assert _plain_lines(path.read_bytes().decode("utf-8"), ",") is None
        got = code_csv(self.MODEL, path)
        assert got.codes[3000, 1] == 3  # unknown
        assert_tables_equal(got, reference_codes(self.MODEL, path))

    def test_bad_cells_in_two_blocks_are_named_in_column_order(self, tmp_path):
        rows = self.lines(5000, seed=52)
        rows[4500][0] = " oops "  # x, third block
        rows[100][2] = "nope"  # y, first block
        rows[2100][2] = "later"
        path = write(tmp_path, "x,c,y\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(SchemaError) as got:
            code_csv(self.MODEL, path)
        assert str(got.value) == "column 'x': expected numeric values, got 'oops' in row 4502"
        with pytest.raises(ValueError) as want:
            reference_codes(self.MODEL, path)
        assert str(got.value) == str(want.value)

    def test_a_ragged_row_in_the_last_block_comes_before_a_bad_cell(self, tmp_path):
        rows = self.lines(5000, seed=53)
        rows[10][0] = "oops"
        lines = [",".join(r) for r in rows]
        lines[4999] = lines[4999].rpartition(",")[0]
        path = write(tmp_path, "x,c,y\n" + "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"data\.csv: row 5001 has 2 fields, expected 3"):
            code_csv(self.MODEL, path)

    def test_a_repeated_symbol_keeps_its_code_whatever_its_padding(self, tmp_path):
        model = PreprocessModel([ColumnModel("c", CATEGORICAL, mode="b", symbols=["a", "b"])], 2)
        path = write(tmp_path, "c\n a\na\n a\n?\n ?\nz\n z\n")
        assert code_csv(model, path).codes[:, 0].tolist() == [0, 0, 0, 1, 1, 2, 2]


class TestFitPreprocessor:
    def test_median_split_edge(self):
        model = fit_preprocessor(numeric_table(range(1, 11)), bins=2)
        assert model.columns[0].edges == [5.5]

    def test_two_bins_split_evenly(self):
        model = fit_preprocessor(numeric_table(range(1, 11)), bins=2)
        coded = apply_preprocessor(model, numeric_table(range(1, 11)))
        assert coded.codes[:, 0].tolist() == [0] * 5 + [1] * 5

    def test_few_distinct_values_get_one_bin_each(self):
        values = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        model = fit_preprocessor(numeric_table(values), bins=10)
        coded = apply_preprocessor(model, numeric_table(values))
        # one code per distinct value, even with heavy duplication
        assert model.columns[0].arity == 3
        codes = {v: c for v, c in zip(values, coded.codes[:, 0])}
        assert codes == {1.0: 0, 2.0: 1, 3.0: 2}

    def test_equal_frequency_bins_balanced_without_duplicates(self):
        rng = np.random.default_rng(40)
        values = rng.normal(size=200)
        model = fit_preprocessor(numeric_table(values), bins=10)
        coded = apply_preprocessor(model, numeric_table(values))
        counts = np.bincount(coded.codes[:, 0], minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_mode_imputation_with_first_occurrence_tie_break(self):
        model = fit_preprocessor(categorical_table(["R", "R", "G", None]))
        assert model.columns[0].mode == "R"
        model = fit_preprocessor(categorical_table(["G", "R", "R", "G"]))
        assert model.columns[0].mode == "G"

    def test_numeric_mean_ignores_missing(self):
        model = fit_preprocessor(numeric_table([1.0, 3.0, np.nan]))
        assert model.columns[0].mean == 2.0

    def test_fully_missing_column_is_rejected_by_name(self):
        with pytest.raises(UnusableColumnError, match="bad"):
            fit_preprocessor(numeric_table([np.nan, np.nan], name="bad"))

    def test_rejects_silly_bin_count(self):
        with pytest.raises(ValueError):
            fit_preprocessor(numeric_table([1.0, 2.0]), bins=1)

    def test_values_near_the_float_range_fit_finite_statistics(self):
        model = fit_preprocessor(numeric_table([1.5e308, 1.7e308] * 30), bins=10)
        col = model.columns[0]
        assert (col.mean, col.edges) == (1.6e308, [1.6e308])
        assert PreprocessModel.from_json(model.to_json()) == model

    def test_neighbours_one_float_apart_fit_a_model_that_reads_back(self):
        # 1 + u, 1 + 2u and 1 + 3u (u the float spacing at 1) have one midpoint
        values = [1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007]
        model = fit_preprocessor(numeric_table(values), bins=10)
        assert model.columns[0].edges == [1.0, 1.0000000000000004]
        assert PreprocessModel.from_json(model.to_json()) == model

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.integers(2, 12))
    @example([1.7e308, 1.5e308, -1.7e308, 1e308], 2)
    @example([1.7976931348623157e308] * 3, 2)
    @example([1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007], 10)
    def test_statistics_match_the_plain_expressions_wherever_those_are_finite(self, values,
                                                                              bins):
        present = np.asarray(values, dtype=np.float64)
        mean = preprocess._mean(present)
        edges = preprocess._equal_frequency_edges(present, bins)
        with np.errstate(over="ignore", invalid="ignore"):
            plain_mean = float(present.mean())
            plain_edges = plain_equal_frequency_edges(present, bins)
        assert all(map(np.isfinite, edges))
        assert all(a < b for a, b in zip(edges, edges[1:]))
        if np.isfinite(plain_mean):
            assert np.float64(mean).tobytes() == np.float64(plain_mean).tobytes()
        else:
            assert present.min() <= mean <= present.max()
        if all(map(np.isfinite, plain_edges)):
            assert np.asarray(edges).tobytes() == np.asarray(plain_edges).tobytes()


def plain_equal_frequency_edges(values, bins):
    """The edges with ``(a + b) / 2.0`` midpoints, which overflow past the
    float range: what ``_equal_frequency_edges`` computes wherever they do not."""
    distinct, counts = np.unique(values, return_counts=True)
    m = distinct.size
    cumulative = np.cumsum(counts)
    splits = (range(m - 1) if m <= bins else
              [int(np.searchsorted(cumulative, k * values.size / bins)) for k in range(1, bins)])
    edges = []
    for split in splits:
        if split < m - 1:
            edge = float((distinct[split] + distinct[split + 1]) / 2.0)
            if not edges or edge > edges[-1]:
                edges.append(edge)
    return edges


class TestApplyPreprocessor:
    def test_edge_rule(self):
        model = fit_preprocessor(numeric_table(range(1, 11)), bins=2)
        coded = apply_preprocessor(model, numeric_table([3.0, 7.0, 5.5]))
        assert coded.codes[:, 0].tolist() == [0, 1, 0]

    def test_values_beyond_training_range_land_in_outer_bins(self):
        model = fit_preprocessor(numeric_table(range(1, 11)), bins=2)
        coded = apply_preprocessor(model, numeric_table([-100.0, 100.0]))
        assert coded.codes[:, 0].tolist() == [0, 1]

    def test_unseen_symbol_maps_to_reserved_code(self):
        model = fit_preprocessor(categorical_table(["R", "G", "B"]))
        coded = apply_preprocessor(model, categorical_table(["Z", "R"]))
        assert coded.codes[0, 0] == 3  # reserved unknown slot
        assert coded.codes[1, 0] == 0

    def test_missing_values_imputed_from_training_statistics(self):
        model = fit_preprocessor(numeric_table([0.0, 0.0, 10.0, 10.0, 10.0]), bins=2)
        coded = apply_preprocessor(model, numeric_table([np.nan]))
        # mean 6.0 falls in the upper bin
        assert coded.codes[0, 0] == 1

    def test_all_missing_column_takes_the_model_type(self, tmp_path):
        # load_csv types a column with no present cell as categorical
        path = write(tmp_path, 'x\n?\n""\n')
        assert load_csv(path).columns[0].kind == CATEGORICAL
        model = fit_preprocessor(numeric_table([0.0, 0.0, 10.0, 10.0, 10.0]), bins=2)
        with pytest.raises(SchemaError, match="'x': expected numeric values, got categorical"):
            apply_preprocessor(model, load_csv(path))
        # code_csv reads each column as its model column's kind
        coded = code_csv(model, path)
        assert coded.symbol_names == [["bin0", "bin1"]]
        # both rows get the training mean 6.0, the upper bin
        assert coded.codes[:, 0].tolist() == [1, 1]

    def test_self_application_reproduces_fit_occupancy(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=137)
        table = numeric_table(values)
        model = fit_preprocessor(table, bins=7)
        coded = apply_preprocessor(model, table)
        sizes = np.bincount(coded.codes[:, 0])
        # recount directly from the edges
        edges = np.asarray(model.columns[0].edges)
        want = np.bincount(np.searchsorted(edges, values, side="left"))
        assert sizes.tolist() == want.tolist()

    def test_round_trip_determinism(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=60)
        table = numeric_table(values)
        a = apply_preprocessor(fit_preprocessor(table, bins=5), table)
        b = apply_preprocessor(fit_preprocessor(table, bins=5), table)
        assert np.array_equal(a.codes, b.codes)

    def test_schema_mismatch_names_the_column(self):
        model = fit_preprocessor(numeric_table([1.0, 2.0], name="x"))
        with pytest.raises(SchemaError, match="'x'"):
            apply_preprocessor(model, numeric_table([1.0], name="y"))
        with pytest.raises(SchemaError, match="'x'"):
            apply_preprocessor(model, categorical_table(["a"], name="x"))

    def test_column_count_mismatch(self):
        model = fit_preprocessor(numeric_table([1.0, 2.0]))
        two = RawTable([
            RawColumn("x", NUMERIC, np.array([1.0])),
            RawColumn("y", NUMERIC, np.array([2.0])),
        ])
        with pytest.raises(SchemaError):
            apply_preprocessor(model, two)


class TestModelSerialization:
    def test_json_round_trip(self):
        table = RawTable([
            RawColumn("x", NUMERIC, np.array([1.0, 2.0, 3.0, 4.0])),
            RawColumn("c", CATEGORICAL, np.array(["a", "b", "a", None], dtype=object)),
        ])
        model = fit_preprocessor(table, bins=2)
        loaded = PreprocessModel.from_json(model.to_json())
        assert loaded.to_json() == model.to_json()
        a = apply_preprocessor(model, table)
        b = apply_preprocessor(loaded, table)
        assert np.array_equal(a.codes, b.codes)
