"""Property tests: the histogram file format round-trips, malformed
histogram files, config text and CSV bytes only ever raise AuditError, the
array path of the histogram parser reads every body as the line parser
does, the CSV reader agrees with binning `csv.DictReader` rows on both its paths,
whole `query`, `sweep`, `sample-size` and `distance` invocations with fuzzed
seeds, budgets and parameters only ever exit, and with 1 only on an
"outside" verdict, `support_differences` takes the union of two supports
as `np.union1d` does, the p = 2 grid flow agrees with the dense
transportation LP, `w2_bracket` brackets its optimum, and a baseline sweep
that screens trials with it decides every trial as the exact route does."""

import csv
import io
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_audit import histogram, sweep, transport
from subspace_audit.cli import main as cli
from subspace_audit.config import parse_config
from subspace_audit.errors import (AuditError, ConvergenceError, EmptyInputError,
                                   SchemaError)
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      JointHistogram, ProbabilityHistogram,
                                      RecordFilter, format_histogram, gather,
                                      ingest_csv, parse_histogram,
                                      read_flat_ids)
from subspace_audit.query import support_differences
from subspace_audit.sweep import (SweepConfig, WassersteinBaseline, flat_bin_ids,
                                  run_wasserstein_sweep)
from subspace_audit.transport import kantorovich_lp, wasserstein_nd

# Deterministic example sequences keep the suite reproducible.
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

names = st.text(min_size=1, max_size=8)


@st.composite
def features(draw, name):
    if draw(st.booleans()):
        lower = draw(st.floats(-1e6, 1e6))
        width = draw(st.floats(1e-3, 1e6))
        return FeatureSpec.continuous(name, lower, lower + width, draw(st.integers(1, 6)))
    categories = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    return FeatureSpec.categorical(name, categories)


@st.composite
def schemes(draw):
    feature_names = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    return BinningScheme(tuple(draw(features(name)) for name in feature_names))


@st.composite
def histograms(draw):
    scheme = draw(schemes())
    flats = draw(st.lists(st.integers(0, scheme.total_bins - 1), max_size=20, unique=True))
    bins = [scheme.unflatten(f) for f in flats]
    if draw(st.booleans()):
        counts = {idx: draw(st.integers(0, 10**6)) for idx in bins}
        return JointHistogram(scheme, counts, total=sum(counts.values()),
                              skipped=draw(st.integers(0, 10**6)))
    masses = st.floats(0.0, 1.0, allow_subnormal=True)
    return ProbabilityHistogram(scheme, {idx: draw(masses) for idx in bins})


@SETTINGS
@given(histograms())
def test_format_parse_roundtrip(hist):
    again = parse_histogram(format_histogram(hist))
    assert type(again) is type(hist)
    assert again.scheme == hist.scheme
    assert np.array_equal(again.flats, hist.flats)
    assert np.array_equal(again.values, hist.values) and again.values.dtype == hist.values.dtype
    if isinstance(hist, JointHistogram):
        assert (again.total, again.skipped) == (hist.total, hist.skipped)


def reference_bin(feature, raw):
    """Scalar binning rule, value by value: the oracle for the column binner."""
    text = "" if raw is None else raw.strip()
    if not text:
        return None
    if feature.kind == "categorical":
        return feature.categories.index(text) if text in feature.categories else None
    try:
        value = float(text)
    except ValueError:
        return None
    if math.isnan(value):
        return None
    if math.isinf(value):
        return 0 if value < 0 else feature.bins - 1
    idx = math.floor(feature.bins * (value - feature.lower) / (feature.upper - feature.lower))
    return min(max(idx, 0), feature.bins - 1)


@st.composite
def raw_columns(draw):
    feature = draw(features("x"))
    spaced = st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]),
                       st.one_of(st.floats(-1e300, 1e300).map(repr), st.integers(-10, 10).map(str),
                                 st.sampled_from(feature.categories or ("a",)),
                                 st.sampled_from(["nan", "inf", "-inf", "1_0", "x", ""])),
                       st.sampled_from(["", " "]))
    return feature, draw(st.lists(st.one_of(st.none(), st.text(max_size=4), spaced), max_size=30))


@SETTINGS
@given(raw_columns())
def test_column_binner_matches_scalar_rule(case):
    feature, raws = case
    expected = [reference_bin(feature, raw) for raw in raws]
    assert [None if b < 0 else b for b in feature.bin_column(raws).tolist()] == expected
    assert [feature.bin_column([raw]).item() for raw in raws] == [
        -1 if b is None else b for b in expected]


def only_audit_errors(fn, *args):
    try:
        fn(*args)
    except AuditError:
        pass


HEADER = "# subspace-audit histogram v1"
FEATURE = "# feature: " + json.dumps({"name": "a", "kind": "continuous", "lower": 0.0,
                                      "upper": 1.0, "bins": 3})
header_lines = st.one_of(
    st.sampled_from(["# kind: counts", "# kind: masses", "# total: 3", "# skipped: 0", FEATURE]),
    st.builds("# {}: {}".format, st.sampled_from(["kind", "total", "skipped", "feature"]),
              st.text(max_size=30)),
)
data_lines = st.one_of(
    st.text(max_size=20),
    st.builds("{},{}\t{}".format, st.integers(-2, 4), st.text(max_size=4), st.text(max_size=6)),
    st.builds("{}\t{}".format, st.integers(-2, 4), st.sampled_from(["1", "0.5", "x", "-1", "nan"])),
)


@SETTINGS
@given(st.one_of(
    st.text(),
    st.builds(lambda head, body: "\n".join([HEADER, *head, *body]),
              st.lists(header_lines, max_size=5), st.lists(data_lines, max_size=6)),
))
def test_parse_histogram_raises_only_audit_errors(text):
    only_audit_errors(parse_histogram, text)


# Hand edits of a histogram file: each takes the data lines and a line index.
def _edit_line(edit):
    return lambda lines, i: lines[:i] + [edit(lines[i])] + lines[i + 1:]


BODY_EDITS = {
    "crlf": lambda lines, i: [line + "\r" for line in lines],
    "blank line": lambda lines, i: lines[:i] + [""] + lines[i:],
    "whitespace line": lambda lines, i: lines[:i] + ["  \t "] + lines[i:],
    "comment line": lambda lines, i: lines[:i] + ["# note"] + lines[i:],
    "padded coordinate": _edit_line(lambda line: " " + line),
    "padded value": _edit_line(lambda line: line.replace("\t", "\t ") + " "),
    "signed coordinate": _edit_line(lambda line: "+" + line),
    "negative coordinate": _edit_line(lambda line: "-" + line),
    "underscored value": _edit_line(lambda line: line + "_0"),
    "19-digit coordinate": _edit_line(lambda line: "0" * 18 + line),
    "20-digit coordinate": _edit_line(lambda line: "0" * 19 + line),
    "20-digit value": _edit_line(lambda line: line + "0" * 20),
    "int64 maximum": _edit_line(lambda line: line.partition("\t")[0] + "\t9223372036854775807"),
    "past int64": _edit_line(lambda line: line.partition("\t")[0] + "\t9223372036854775808"),
    "extra comma": _edit_line(lambda line: "0," + line),
    "missing comma": _edit_line(lambda line: line.replace(",", "", 1)),
    "comma in value": _edit_line(lambda line: line + ",1"),
    "tab in coordinates": _edit_line(lambda line: line.replace(",", "\t", 1)),
    "second tab": _edit_line(lambda line: line + "\t1"),
    "no tab": _edit_line(lambda line: line.replace("\t", ",")),
    "empty value": _edit_line(lambda line: line.partition("\t")[0] + "\t"),
    "empty last value": lambda lines, i: lines[:-1] + [lines[-1].partition("\t")[0] + "\t"],
    "non-ASCII digit": _edit_line(lambda line: "٣" + line),
    "odd mass": _edit_line(lambda line: line.partition("\t")[0] + "\t" + "1e"),
    "point mass": _edit_line(lambda line: line.partition("\t")[0] + "\t" + "."),
    "two-point mass": _edit_line(lambda line: line.partition("\t")[0] + "\t" + "1.2.3"),
    "double sign": _edit_line(lambda line: line.partition("\t")[0] + "\t" + "--1"),
    "nan mass": _edit_line(lambda line: line.partition("\t")[0] + "\tnan"),
    "huge mass": _edit_line(lambda line: line.partition("\t")[0] + "\t1e400"),
}


def histogram_text(shape, kind, lines, end="\n", skipped=None):
    """A histogram file over continuous features with `shape` bins, holding
    the data lines as given."""
    header = [HEADER, f"# kind: {kind}"] + [
        "# feature: " + json.dumps({"name": f"f{i}", "kind": "continuous", "lower": 0.0,
                                    "upper": 1.0, "bins": bins}) for i, bins in enumerate(shape)]
    if skipped is not None:
        header.append(f"# skipped: {skipped}")
    return "\n".join(header + lines) + (end if lines else "\n")


@st.composite
def histogram_texts(draw):
    """A histogram file, and its body when that is plain: as written, or
    None after up to two hand edits from BODY_EDITS."""
    shape = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["counts", "masses"]))
    if kind == "counts":
        values = st.one_of(st.integers(0, 10**6), st.just(2**63 - 1)).map(str)
    else:
        values = st.one_of(st.floats(0.0, 1e300, allow_subnormal=True).map(repr),
                           st.builds("{}e{}{}".format, st.integers(0, 99),
                                     st.sampled_from(["", "+", "-", "-0"]), st.integers(0, 330)),
                           st.sampled_from(["0.", ".5", "7E2", "-0.0", "+1.5", "00.25", "-1"]))
    # a coordinate may be one past its grid and a bin may repeat: both are refused
    coords = st.tuples(*(st.integers(0, bins) for bins in shape))
    lines = [",".join(map(str, c)) + "\t" + v
             for c, v in draw(st.lists(st.tuples(coords, values), max_size=12))]
    edits = draw(st.lists(st.sampled_from(sorted(BODY_EDITS)), max_size=2)) if lines else []
    for edit in edits:
        lines = BODY_EDITS[edit](lines, draw(st.integers(0, len(lines) - 1)))
    end = draw(st.sampled_from(["\n", ""]))
    skipped = draw(st.none() | st.integers(0, 5)) if kind == "counts" else None
    body = None if edits else "\n".join(lines) + end if lines else ""
    return histogram_text(shape, kind, lines, end, skipped), body


def parse_outcome(text):
    """What parse_histogram makes of a text: the histogram's fields, or the
    SchemaError message."""
    try:
        hist = parse_histogram(text)
    except SchemaError as exc:
        return str(exc)
    return (type(hist), hist.flats.tolist(), hist.values.dtype, hist.values.tobytes(),
            getattr(hist, "total", None), getattr(hist, "skipped", None))


def assert_parses_like_the_line_parser(text):
    with mock.patch.object(histogram, "_plain_body", return_value=None):
        by_lines = parse_outcome(text)
    assert parse_outcome(text) == by_lines


@SETTINGS
@given(histogram_texts())
def test_histogram_array_path_parses_like_the_line_parser(case):
    text, body = case
    assert_parses_like_the_line_parser(text)
    if body is not None:  # a plain body takes the array path and reads as the line parser reads it
        n = text.count("# feature: ")
        kind = "counts" if "# kind: counts" in text else "masses"
        fast = histogram._plain_body(body, n, kind)
        assert fast is not None
        for got, want in zip(fast, histogram._parse_lines(body.splitlines(), n, kind)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,values", [("counts", ["3", "12", "5"]),
                                         ("masses", ["0.25", "1e-05", "0.5"])])
@pytest.mark.parametrize("edit", sorted(BODY_EDITS) + ["CRLF file", "CR file"])
def test_each_hand_edit_parses_like_the_line_parser(edit, kind, values):
    lines = [f"{c}\t{v}" for c, v in zip(["0,1", "2,0", "1,2"], values)]
    if edit in BODY_EDITS:
        lines = BODY_EDITS[edit](lines, 1)
    text = histogram_text((3, 3), kind, lines)
    if edit.endswith("file"):  # the header's line ends too
        text = text.replace("\n", "\r\n" if edit == "CRLF file" else "\r")
    assert_parses_like_the_line_parser(text)


def test_mass_refused_only_by_a_warning_goes_to_the_line_parser(monkeypatch):
    # older numpy warned on a token it could not read and kept what it had read
    real = np.fromstring

    def warn_and_keep_reading(data, *args, **kwargs):
        try:
            return real(data, *args, **kwargs)
        except ValueError:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.zeros(data.count(b",") + 1)

    monkeypatch.setattr(np, "fromstring", warn_and_keep_reading)
    for mass in ("1.2.3", "1e", "."):
        text = histogram_text((3, 3), "masses", ["0,1\t0.5", f"1,2\t{mass}"])
        assert_parses_like_the_line_parser(text)
        assert parse_outcome(text).startswith("malformed histogram data line")


@SETTINGS
@given(histograms())
def test_written_histograms_take_the_array_path(hist):
    text = format_histogram(hist)
    lines = text.splitlines()
    data = lines[len(lines) - hist.flats.size:]
    assert data == [",".join(map(str, idx)) + "\t" + repr(v)  # one line at a time
                    for idx, v in zip(hist.scheme.indices(hist.flats), hist.values.tolist())]
    with mock.patch.object(histogram, "_parse_lines", side_effect=AssertionError("line parser")):
        again = parse_histogram(text)
    assert np.array_equal(again.flats, hist.flats)
    assert again.values.tobytes() == hist.values.tobytes()


def test_extreme_written_values_take_the_array_path():
    scheme = BinningScheme((FeatureSpec.continuous("a", 0, 1, 3),
                            FeatureSpec.categorical("b", ["x", "y"])))
    counts = JointHistogram(scheme, {(2, 1): 2**63 - 1}, total=2**63 - 1)
    masses = ProbabilityHistogram(scheme, {(0, 0): 5e-324, (1, 0): 1e300, (2, 1): 0.1})
    with mock.patch.object(histogram, "_parse_lines", side_effect=AssertionError("line parser")):
        for hist in (counts, masses):
            again = parse_histogram(format_histogram(hist))
            assert again.values.tobytes() == hist.values.tobytes()


@SETTINGS
@given(st.text())
def test_parse_config_raises_only_audit_errors(text):
    only_audit_errors(parse_config, text)


CSV_SCHEME = BinningScheme((FeatureSpec.continuous("score", 0, 10, 4),
                            FeatureSpec.categorical("sex", ["F", "M"])))


@SETTINGS
@given(st.one_of(st.binary(max_size=200),
                 st.builds(b"score,sex\n".__add__, st.binary(max_size=200))))
def test_ingest_csv_raises_only_audit_errors(data):
    only_audit_errors(ingest_csv, io.BytesIO(data), CSV_SCHEME)


plain_cells = ["", "1.5", "9", "-3", "1e400", "nan", " 4 ", "x", "F", "M", " F", "a", "b",
               "1_0", "+.5", "7.", ".", "-", "1.2.3"]
# quoted, non-ASCII and CRLF-ended rows are read by csv.reader, the rest in numpy
quirky_cells = plain_cells + ['"1,5"', '"a""b"', "é", "١٢"]


@st.composite
def messy_tables(draw):
    """CSV text on CSV_SCHEME's columns plus a group column `g`, any of them
    possibly listed twice, with blank lines, short and long rows, unparsable
    values, quoted, non-ASCII and CRLF-ended rows; and a filter on `g` or
    on the feature column `sex`, or none."""
    header = ["score", "sex", "g"] + draw(st.lists(st.sampled_from(["score", "sex", "g", "z"]),
                                                    max_size=2))
    header = draw(st.permutations(header))
    quirky = draw(st.booleans())
    cells = st.sampled_from(quirky_cells if quirky else plain_cells)
    ends = st.sampled_from(["\n", "\r\n"] if quirky else ["\n"])
    rows = draw(st.lists(st.tuples(st.lists(cells, max_size=len(header) + 2), ends),
                         max_size=12))
    text = ",".join(header) + "\n" + "".join(",".join(row) + end for row, end in rows)
    record_filter = draw(st.one_of(st.none(), st.builds(
        RecordFilter, st.sampled_from(["g", "sex"]),
        st.sampled_from(["a", "b", "", "c", "a,b", "é", " a"]), st.booleans())))
    return text, record_filter


class Unseekable(io.BytesIO):
    """A binary source that cannot seek, so it is read through a text layer."""

    def seekable(self):
        return False


def table_sources(text):
    """The table as a text stream and as UTF-8 bytes that cannot seek (both
    read by csv.reader), and as seekable UTF-8 bytes (read in numpy blocks,
    rewound to csv.reader where a block is not plain)."""
    data = text.encode("utf-8")
    return [io.StringIO(text, newline=""), io.BytesIO(data), Unseekable(data)]


def assert_reads_like_dict_rows(text, record_filter):
    """read_flat_ids gives the ids, order and dropped count of binning the
    csv.DictReader rows the filter keeps, or EmptyInputError without rows,
    from a text stream, seekable bytes and bytes that cannot seek."""
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if not rows:
        for source in table_sources(text):
            with pytest.raises(EmptyInputError):
                read_flat_ids(source, CSV_SCHEME, record_filter)
        return
    if record_filter is not None:
        column = [r.get(record_filter.column) for r in rows]
        rows = [row for row, keep in zip(rows, record_filter.mask(column)) if keep]
    expected, expected_dropped = flat_bin_ids(rows, CSV_SCHEME)
    for source in table_sources(text):
        flats, dropped = read_flat_ids(source, CSV_SCHEME, record_filter)
        assert flats.dtype == np.int64
        assert flats.tolist() == expected.tolist()
        assert dropped == expected_dropped


@SETTINGS
@given(messy_tables())
def test_read_flat_ids_matches_binning_dict_rows(case):
    # one block, then blocks of a few bytes: numpy and csv.reader paths
    for block in (histogram._BLOCK_BYTES, 5):
        with mock.patch.object(histogram, "_BLOCK_BYTES", block):
            assert_reads_like_dict_rows(*case)


PLAIN_ROWS = "".join(f"{i % 11}.5,{'FM'[i % 2]},{'ab'[i % 3 == 0]}\n" for i in range(40))


@pytest.mark.parametrize("late", ['"3,5",F,a\n', "\r\n4,M,a\r\n", "4,é,a\n", "١٢,F,b\n",
                                  "4,F\0,a\n"],
                         ids=["quote", "crlf", "latin", "arabic-digits", "nul"])
@pytest.mark.parametrize("record_filter", [None, RecordFilter("g", "a")], ids=["all", "g=a"])
def test_read_flat_ids_switches_to_csv_reader_mid_table(late, record_filter):
    # plain blocks first, then a row only csv.reader reads, then plain rows again
    with mock.patch.object(histogram, "_BLOCK_BYTES", 64):
        assert_reads_like_dict_rows("score,sex,g\n" + PLAIN_ROWS + late + PLAIN_ROWS,
                                    record_filter)


def read_or_error(source, record_filter):
    """read_flat_ids' ids and dropped count as lists, or its SchemaError
    text, which names the source as `table.csv`."""
    source.name = "table.csv"
    try:
        flats, dropped = read_flat_ids(source, CSV_SCHEME, record_filter)
    except SchemaError as exc:
        return str(exc)
    return flats.tolist(), dropped


@pytest.mark.parametrize("late", [b'"3,5",F,a\n', b"4,M,a\r\n", "4,é,a\n".encode(),
                                  b"4,F\0,a\n", b"4,\xffM,a\n"],
                         ids=["quote", "crlf", "latin", "nul", "undecodable"])
@pytest.mark.parametrize("plain_rows", [40, 2_000])
@pytest.mark.parametrize("record_filter", [None, RecordFilter("g", "a"), RecordFilter("sex", "F")],
                         ids=["all", "g=a", "sex=F"])
def test_read_flat_ids_rewinds_bytes_to_the_text_reader(late, plain_rows, record_filter):
    # plain 64-byte blocks read as bytes, then a block that is not plain:
    # the reader goes back to it and reads on as text, with the same ids,
    # dropped count or error as a text read from the start (past 8 KiB of
    # plain rows, the rewind starts inside the table)
    rows = "".join(f"{i % 11}.5,{'FM'[i % 2]},{'ab'[i % 3 == 0]}\n" for i in range(plain_rows))
    data = ("score,sex,g\n" + rows).encode() + late + PLAIN_ROWS.encode()
    with mock.patch.object(histogram, "_BLOCK_BYTES", 64):
        got = read_or_error(io.BytesIO(data), record_filter)
        assert got == read_or_error(Unseekable(data), record_filter)
    assert isinstance(got, str) == late.startswith(b"4,\xff")


@pytest.mark.parametrize("text", ["g,sex,score\na,F,1234.5\nb,M,7\n",
                                  "score,sex,g\n7,F,a\n1,Male,b\n2,F",
                                  "score,g,sex\n 3 ,a,F\n7,b\n"])
def test_read_flat_ids_short_fields_at_the_block_end(text):
    # near the block's end, a field shorter than its column's longest has
    # no full fixed-width window after it; a filter may keep only that row,
    # and a filter value may be longer than the whole block
    for record_filter in (None, RecordFilter("g", "b"), RecordFilter("sex", "F"),
                          RecordFilter("g", "b" * 64, negate=True)):
        assert_reads_like_dict_rows(text, record_filter)


@pytest.mark.parametrize("negate", [False, True], ids=["eq", "ne"])
def test_read_flat_ids_filter_value_not_unicode(negate):
    # a command-line value that is not valid UTF-8 reaches the filter as a
    # lone surrogate: no field equals it, on the numpy and csv.reader paths
    for text in ("score,sex,g\n" + PLAIN_ROWS, 'score,sex,g\r\n"1.5",F,"a"\r\n7,M,b\r\n'):
        assert_reads_like_dict_rows(text, RecordFilter("g", "\udcff", negate))


@pytest.mark.parametrize("block", [3, 17, 64])
def test_read_flat_ids_rows_across_block_reads(block):
    # a read of `block` bytes ends inside a row; the row is read whole
    with mock.patch.object(histogram, "_BLOCK_BYTES", block):
        assert_reads_like_dict_rows("score,sex,g\n" + PLAIN_ROWS + "\n7,F", None)


@pytest.mark.parametrize("offset", [5, 20_001, 100_003])
@pytest.mark.parametrize("sex", ["F", "é"])
def test_read_flat_ids_reports_undecodable_byte_like_csv_reader(offset, sex):
    rows = "".join(f"{i % 9}.5,{sex if i % 7 == 0 else 'M'},a\n" for i in range(20_000))
    data = ("score,sex,g\n" + rows).encode()
    data = data[:offset] + b"\xff" + data[offset:]
    with pytest.raises(UnicodeDecodeError) as expected:
        list(csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")))
    for source in (io.BytesIO(data), Unseekable(data)):  # read in blocks, by csv.reader
        with pytest.raises(SchemaError, match="is not UTF-8 text") as raised:
            read_flat_ids(source, CSV_SCHEME)
        assert str(raised.value).endswith(str(expected.value))


@pytest.mark.parametrize("record_filter", [None, RecordFilter("g", "a")], ids=["all", "g=a"])
def test_read_flat_ids_long_feature_fields_among_short_rows(record_filter):
    # 100 000-character values in both feature columns of a plain block of
    # 100 000 short rows: binned like csv.reader does, without a
    # (rows x longest field) copy
    long_score, long_sex = " " * 99_999 + "4", "F" + " " * 99_999
    text = ("score,sex,g\n" + "1.5,M,a\n7,F,b\n" * 25_000 + f"{long_score},M,a\n"
            + "2,F,a\n9,M,b\n" * 25_000 + f"3,{long_sex},a\n")
    assert_reads_like_dict_rows(text, record_filter)
    for source in (io.StringIO(text, newline=""), io.BytesIO(text.encode())):
        tracemalloc.start()
        try:
            read_flat_ids(source, CSV_SCHEME, record_filter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * len(text)


def test_read_flat_ids_late_long_field_in_unused_column_is_not_valid_csv():
    # one character over the limit, in column `z`, which no feature reads, after block 1
    text = "score,sex,g,z\n" + PLAIN_ROWS + f"1,F,a,{'z' * (csv.field_size_limit() + 1)}\n"
    with mock.patch.object(histogram, "_BLOCK_BYTES", 64):
        for source in (io.StringIO(text, newline=""), io.BytesIO(text.encode())):
            with pytest.raises(SchemaError, match="is not valid CSV"):
                read_flat_ids(source, CSV_SCHEME)


CLI_SCHEME = "feature.score = continuous:0:10:4\nfeature.age = continuous:18:80:3\n"
CLI_SWEEP = CLI_SCHEME + "protected = SEX\nsubgroup = Female\neps = 0.2,0.4\nseed = 5\n"


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A small table and its histograms on a 12-bin grid."""
    root = tmp_path_factory.mktemp("cli")
    (root / "scheme.cfg").write_text(CLI_SCHEME)
    runner = CliRunner()
    commands = [["synth", "--rows", "400", "--seed", "3", "--out", root / "data.csv"],
                ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                 "--filter", "SEX=Female", "--out", root / "fem.hist"],
                ["bin", "--data", root / "data.csv", "--config", root / "scheme.cfg",
                 "--out", root / "all.hist"]]
    for args in commands:
        assert runner.invoke(cli, [str(a) for a in args]).exit_code == 0
    return root


def invoke_cli(args):
    """Runs one command; nothing but SystemExit may escape, the exit is never
    4 (an internal error), and exit 1 comes only with a FALSE verdict line."""
    result = CliRunner().invoke(cli, [str(a) for a in args])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.output, result.exc_info)
    assert result.exit_code != 4, (args, result.output)
    if result.exit_code == 1:
        assert args[0] == "query" and result.output.splitlines()[-1].startswith("FALSE,"), (
            args, result.output)
    return result


# ints at and around the edges of the 128-bit seed range, and non-integers
seed_texts = st.one_of(
    st.integers(-2**130, 2**130).map(str),
    st.sampled_from(["0", "-1", str(2**64), str(2**128 - 1), str(2**128), "1.5", "x", ""]))
# small counts only: a fuzzed value never asks for many trials or threads
valid_counts = st.integers(1, 30).map(str)
count_texts = st.one_of(
    valid_counts, valid_counts, st.integers(-2, 0).map(str),
    st.sampled_from(["two", "1.5", "", "0x2", "nan", "1e3", "+3", " 4"]),
    st.text(alphabet="0123456789-+. ex", max_size=3))


# reals as config text: ordinary, tiny, huge, non-finite and malformed values
real_texts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1", "2", "3", "1.25", "0.5", "0", "-1", "1e-300", "1e308", "nan", "inf",
                     "-inf", "NaN", "x", "", "1e400"]))


@settings(SETTINGS, max_examples=80)
@given(delta=st.one_of(st.sampled_from(["0", "0.001", "0.05", "1"]), real_texts),
       samples=st.one_of(st.none(), st.integers(-2, 14).map(str), st.sampled_from(["x", "1.5"])),
       seed=st.one_of(st.none(), seed_texts))
def test_query_invocations_only_exit(cli_files, delta, samples, seed):
    args = ["query", "--reference", cli_files / "all.hist", "--test", cli_files / "fem.hist",
            "--delta", delta]
    args += [] if samples is None else ["--samples", samples]
    args += [] if seed is None else ["--seed", seed]
    invoke_cli(args)


@settings(SETTINGS, max_examples=60)
@given(trials=count_texts, threads=st.one_of(st.none(), valid_counts, count_texts),
       samples=st.sampled_from(["2", "5,12", "3,6", "0", "13", "x"]),
       seed=st.one_of(st.none(), st.none(), seed_texts),
       grid=st.one_of(st.none(), st.tuples(st.sampled_from(["eps", "delta"]),
                                           st.lists(real_texts, min_size=1, max_size=3))))
def test_sweep_invocations_never_exit_1(cli_files, trials, threads, samples, seed, grid):
    config = CLI_SWEEP if grid is None else CLI_SWEEP.replace(
        "eps = 0.2,0.4", f"{grid[0]} = {','.join(grid[1])}")
    config += f"samples = {samples}\ntrials = {trials}\n"
    config += "" if threads is None else f"threads = {threads}\n"
    (cli_files / "sweep.cfg").write_text(config)
    args = ["sweep", "--config", cli_files / "sweep.cfg", "--data", cli_files / "data.csv",
            "--out", cli_files / "sweep.csv"]
    args += [] if seed is None else ["--seed", seed]
    assert invoke_cli(args).exit_code in (0, 2)


def finite_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


@settings(SETTINGS, max_examples=40)
@given(p=st.one_of(st.sampled_from(["1", "2", "3"]), st.floats(1, 6).map(repr), real_texts),
       factor=st.one_of(st.sampled_from(["1.25", "0.5", "4", "1e308"]),
                        st.floats(1e-3, 10).map(repr), real_texts),
       method=st.sampled_from(["exact", "exact", "entropic"]))
def test_baseline_sweep_invocations_never_exit_1(cli_files, p, factor, method):
    config = CLI_SWEEP + (f"samples = 2,5\ntrials = 3\nbaseline = wasserstein\n"
                          f"baseline_trials = 2\np = {p}\nthreshold_factor = {factor}\n"
                          f"method = {method}\n")
    (cli_files / "baseline.cfg").write_text(config)
    out = cli_files / "baseline.csv"
    result = invoke_cli(["sweep", "--config", cli_files / "baseline.cfg",
                         "--data", cli_files / "data.csv", "--out", out])
    assert result.exit_code in (0, 2)
    if result.exit_code == 0:
        run = finite_json((cli_files / "baseline.csv.manifest.json").read_text())["run"]
        assert math.isfinite(run["wasserstein"]["full_distance"])


@pytest.mark.parametrize("factor, exit_code", [("1e308", 2), ("1e200", 0)])
def test_huge_factor_turns_screening_off(cli_files, factor, exit_code):
    # threshold_factor^2 overflows on both; the screened route must not
    # raise for it, only the threshold itself may overflow (exit 2)
    (cli_files / "huge.cfg").write_text(
        CLI_SWEEP + "samples = 2,5\ntrials = 3\nbaseline = wasserstein\nbaseline_trials = 2\np = 2\n"
        f"method = exact\nthreshold_factor = {factor}\n")
    out = cli_files / "huge.csv"
    result = invoke_cli(["sweep", "--config", cli_files / "huge.cfg",
                         "--data", cli_files / "data.csv", "--out", out])
    assert result.exit_code == exit_code, result.output
    if exit_code == 0:
        run = finite_json((cli_files / "huge.csv.manifest.json").read_text())["run"]
        assert run["wasserstein"]["screened"] == 0
    else:
        assert "threshold_factor times the full-data distance overflows" in result.output


@settings(SETTINGS, max_examples=60)
@given(constant=real_texts,
       n_features=st.one_of(st.integers(1, 6), st.integers(1, 6),
                            st.sampled_from([10**30, 10**300, 10**308, 10**400])))
def test_sample_size_union_constant_never_exits_1(constant, n_features):
    result = invoke_cli(["sample-size", "--eps", "0.05", "--delta", "0.05",
                         "--n-features", n_features, "--union-constant", constant])
    assert result.exit_code in (0, 2)


# regs far below the cost scale run all 50 000 scaling iterations (seconds
# each) before a ConvergenceError, so the fuzzed regs stay at 1e-3 and above
reg_texts = st.one_of(st.floats(1e-3, 10).map(repr), st.sampled_from(
    ["0.01", "1", "1e308", "inf", "-inf", "nan", "0", "-1", "x", "", "1e400"]))


@settings(SETTINGS, max_examples=40)
@given(p=st.one_of(st.sampled_from(["1", "2", "3"]), real_texts), reg=reg_texts,
       method=st.sampled_from(["exact", "entropic", "entropic"]))
def test_distance_invocations_never_exit_1(cli_files, p, reg, method):
    result = invoke_cli(["distance", "--a", cli_files / "fem.hist", "--b", cli_files / "all.hist",
                         "--p", p, "--reg", reg, "--method", method])
    assert result.exit_code in (0, 2)
    if result.exit_code == 0:
        assert all(map(math.isfinite, map(float, result.output.strip().split(","))))


UNION_SCHEME = BinningScheme((FeatureSpec.continuous("x", 0.0, 1.0, 40),
                              FeatureSpec.categorical("c", list("abcde"))))
union_supports = st.lists(st.integers(0, UNION_SCHEME.total_bins - 1), max_size=80, unique=True)


@SETTINGS
@given(test_flats=union_supports, base_flats=union_supports)
@example(test_flats=[], base_flats=[7, 3])
@example(test_flats=[5], base_flats=[])
@example(test_flats=[], base_flats=[])
def test_support_union_matches_union1d(test_flats, base_flats):
    test, base = (ProbabilityHistogram(UNION_SCHEME, {UNION_SCHEME.unflatten(f): f / 7 % 1
                                                      for f in flats})
                  for flats in (test_flats, base_flats))
    flats, diffs = support_differences(test, base)
    union = np.union1d(test.flats, base.flats)
    assert flats.dtype == union.dtype and np.array_equal(flats, union)
    assert np.array_equal(diffs, np.abs(gather(test.flats, test.values, union)
                                        - gather(base.flats, base.values, union)))


@st.composite
def grid_features(draw, name):
    if draw(st.booleans()):
        lower = draw(st.floats(-10, 10))
        width = draw(st.floats(0.1, 20))
        return FeatureSpec.continuous(name, lower, lower + width, draw(st.integers(1, 5)))
    return FeatureSpec.categorical(name, [str(i) for i in range(draw(st.integers(1, 4)))])


@st.composite
def measure_pairs(draw):
    """Two measures on a 1-4-feature grid: identical, on disjoint supports, or
    unrelated; atoms may carry zero mass and supports may be single atoms."""
    scheme = BinningScheme(tuple(draw(grid_features(f"f{k}"))
                                 for k in range(draw(st.integers(1, 4)))))
    n = scheme.total_bins

    def measure(flats):
        weights = np.array(draw(st.lists(st.integers(0, 5), min_size=len(flats),
                                         max_size=len(flats))), dtype=float)
        weights[draw(st.integers(0, len(flats) - 1))] += 1  # some mass somewhere
        return ProbabilityHistogram.from_flats(scheme, flats, weights / weights.sum())

    bins = st.integers(0, n - 1)
    flats_a = draw(st.lists(bins, min_size=1, max_size=min(8, n), unique=True))
    relation = draw(st.sampled_from(["identical", "disjoint", "unrelated"]))
    a = measure(flats_a)
    if relation == "identical":
        return a, a
    if relation == "disjoint" and len(flats_a) < n:
        rest = bins.filter(lambda f: f not in flats_a)
        return a, measure(draw(st.lists(rest, min_size=1, max_size=8, unique=True)))
    return a, measure(draw(st.lists(bins, min_size=1, max_size=min(8, n), unique=True)))


def dense_problem(a, b):
    """Masses on the two supports and the squared-distance cost between them,
    built point by point from the bin centers."""
    def support(hist):
        keep = hist.values > 0
        points = [[f.centers()[i] for f, i in zip(hist.scheme.features, hist.scheme.unflatten(x))]
                  for x in hist.flats[keep].tolist()]
        return np.array(points), hist.values[keep]

    (xa, wa), (xb, wb) = support(a), support(b)
    return wa, wb, ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)


def grid_flow(a, b, with_plan):
    """The flow route alone, whichever route wasserstein_nd would pick."""
    (fa, wa), (fb, wb) = transport._support(a), transport._support(b)
    return transport._grid_w2(transport._GridLayers(a.scheme, fa, fb), wa, wb, with_plan)


@SETTINGS
@given(measure_pairs())
def test_grid_flow_matches_dense_lp(pair):
    a, b = pair
    wa, wb, cost = dense_problem(a, b)
    optimum = kantorovich_lp(wa, wb, cost).cost
    assert wasserstein_nd(a, b, 2.0) ** 2 == pytest.approx(optimum, rel=1e-9, abs=1e-12)
    assert grid_flow(a, b, False).cost == pytest.approx(optimum, rel=1e-9, abs=1e-12)
    distance, routed = wasserstein_nd(a, b, 2.0, with_plan=True)
    for plan in (routed, grid_flow(a, b, True)):
        assert plan.coupling.shape == (wa.size, wb.size)
        assert plan.marginal_residual <= 1e-9
        assert float((cost * plan.coupling).sum()) == pytest.approx(plan.cost, rel=1e-9,
                                                                    abs=1e-12)
        # the end-layer potentials price every source-sink pair
        slack = cost - plan.row_potentials[:, None] - plan.col_potentials[None, :]
        assert slack.min() >= -1e-7 * max(1.0, cost.max())
    assert distance == pytest.approx(math.sqrt(routed.cost))


@SETTINGS
@given(measure_pairs())
def test_tampered_potentials_rejected(pair):
    a, b = pair
    solve = transport.linprog

    def tampered(*args, **kwargs):
        result = solve(*args, **kwargs)
        # raising a source potential gives its used arcs negative reduced cost
        result.eqlin.marginals[0] += 1e-3 * max(1.0, float(np.abs(args[0]).max()))
        return result

    with mock.patch.object(transport, "linprog", tampered):
        with pytest.raises(ConvergenceError, match="not certified"):
            grid_flow(a, b, False)
        with pytest.raises(ConvergenceError, match="not certified"):
            wasserstein_nd(a, b, 2.0)
        with pytest.raises(ConvergenceError, match="not certified"):
            kantorovich_lp(*dense_problem(a, b))


@SETTINGS
@given(measure_pairs())
def test_w2_bracket_contains_the_optimum(pair):
    a, b = pair
    cost = dense_problem(a, b)[2]
    lower, upper = transport.w2_bracket(a, b)
    squared = wasserstein_nd(a, b, 2.0) ** 2
    tolerance = 1e-7 * max(1.0, cost.max())
    assert lower - tolerance <= squared <= upper + tolerance
    if a is b:
        assert (lower, upper) == (0.0, 0.0)
    if a.scheme.n_features == 1:
        assert upper == pytest.approx(lower, rel=1e-12, abs=1e-15)


@st.composite
def baseline_tables(draw):
    """A 1-4-feature scheme and the flat ids of a population's records and
    of its subgroup's: the whole population, a single bin, or any subset."""
    scheme = BinningScheme(tuple(draw(grid_features(f"f{k}"))
                                 for k in range(draw(st.integers(1, 4)))))
    bins = st.integers(0, scheme.total_bins - 1)
    population = np.array(draw(st.lists(bins, min_size=2, max_size=60)))
    kind = draw(st.sampled_from(["everyone", "one bin", "subset"]))
    if kind == "one bin":
        population[:] = population[0]
    members = np.array(draw(st.lists(st.booleans(), min_size=population.size,
                                     max_size=population.size)))
    members[draw(st.integers(0, population.size - 1))] = True
    group = population if kind == "everyone" else population[members]
    sizes = draw(st.lists(st.integers(1, group.size), min_size=1, max_size=2, unique=True))
    return scheme, group, population, tuple(sizes)


@settings(SETTINGS, max_examples=60)
@given(baseline_tables(), st.integers(0, 8),
       st.sampled_from([1.0, 1 - 1e-12, 1 + 1e-12, 1 - 1e-7, 1 + 1e-7, 1 - 1e-3, 1 + 1e-3,
                        0.8, 1.25]))
def test_screened_baseline_decides_like_the_exact_route(table, pick, jitter):
    scheme, group, population, sizes = table

    def run(factor):
        config = SweepConfig(scheme=scheme, protected_column="SEX", subgroup_value="F",
                             sample_sizes=sizes, trials=4, seed=7, eps_grid=(0.5,),
                             baseline=WassersteinBaseline(threshold_factor=factor))
        return run_wasserstein_sweep(config, (group, 0), (population, 0))

    unbounded = mock.patch.object(sweep, "w2_bracket", lambda a, b: (-math.inf, math.inf))
    # the distances the exact route computes: the full data's first, then the
    # trials'; a factor of their ratio puts the threshold on a trial
    distances = []

    def recording(name):
        route = getattr(sweep, name)

        def record(*args, **kwargs):
            distances.append(route(*args, **kwargs))
            return distances[-1]
        return mock.patch.object(sweep, name, record)

    with unbounded, recording("wasserstein_1d"), recording("wasserstein_nd"):
        run(1.0)
    full, trial = distances[0], distances[1 + pick % (len(distances) - 1)]
    factor = (trial / full if full > 0 and trial > 0 else 1.0) * jitter
    with unbounded:
        exact = run(factor)
    screened = run(factor)
    assert screened.to_csv() == exact.to_csv()
    for key in ("full_distance", "threshold", "full_inside"):
        assert screened.metadata[key] == exact.metadata[key]
    assert exact.metadata["screened"] == 0
