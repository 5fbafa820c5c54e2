"""Property tests: the histogram file format round-trips, malformed
histogram files, config text and CSV bytes only ever raise AuditError, the
CSV reader agrees with binning `csv.DictReader` rows on both its paths,
whole `query`, `sweep`, `sample-size` and `distance` invocations with fuzzed
seeds, budgets and parameters only ever exit, and with 1 only on an
"outside" verdict, and the p = 2 grid flow agrees with the dense
transportation LP."""

import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_audit import histogram, transport
from subspace_audit.cli import main as cli
from subspace_audit.config import parse_config
from subspace_audit.errors import (AuditError, ConvergenceError, EmptyInputError,
                                   SchemaError)
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      JointHistogram, ProbabilityHistogram,
                                      RecordFilter, format_histogram,
                                      ingest_csv, parse_histogram,
                                      read_flat_ids)
from subspace_audit.sweep import flat_bin_ids
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
    if isinstance(hist, JointHistogram):
        assert again.counts == hist.counts
        assert (again.total, again.skipped) == (hist.total, hist.skipped)
    else:
        assert again.masses == hist.masses


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
    assert [feature.bin_of(raw) for raw in raws] == expected


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
               "1_0"]
# quoted, non-ASCII and CRLF-ended rows are read by csv.reader, the rest in numpy
quirky_cells = plain_cells + ['"1,5"', '"a""b"', "é", "١٢"]


@st.composite
def messy_tables(draw):
    """CSV text on CSV_SCHEME's columns plus a group column `g`, any of them
    possibly listed twice, with blank lines, short and long rows, unparsable
    values, quoted, non-ASCII and CRLF-ended rows; and a filter on `g`, or
    none."""
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
        RecordFilter, st.just("g"), st.sampled_from(["a", "b", "", "c"]), st.booleans())))
    return text, record_filter


def assert_reads_like_dict_rows(text, record_filter):
    """read_flat_ids gives the ids, order and dropped count of binning the
    csv.DictReader rows the filter keeps, or EmptyInputError without rows."""
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if not rows:
        with pytest.raises(EmptyInputError):
            read_flat_ids(io.StringIO(text, newline=""), CSV_SCHEME, record_filter)
        return
    if record_filter is not None:
        rows = [row for row, keep in zip(rows, record_filter.mask([r.get("g") for r in rows]))
                if keep]
    flats, dropped = read_flat_ids(io.StringIO(text, newline=""), CSV_SCHEME, record_filter)
    expected, expected_dropped = flat_bin_ids(rows, CSV_SCHEME)
    assert flats.dtype == np.int64
    assert flats.tolist() == expected.tolist()
    assert dropped == expected_dropped


@SETTINGS
@given(messy_tables())
def test_read_flat_ids_matches_binning_dict_rows(case):
    # one block, then blocks of a few characters: numpy and csv.reader paths
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


@pytest.mark.parametrize("block", [3, 17, 64])
def test_read_flat_ids_rows_across_block_reads(block):
    # a read of `block` characters ends inside a row; the row is read whole
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
    with pytest.raises(SchemaError, match="is not UTF-8 text") as raised:
        read_flat_ids(io.BytesIO(data), CSV_SCHEME)
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
    tracemalloc.start()
    try:
        read_flat_ids(io.StringIO(text, newline=""), CSV_SCHEME, record_filter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(text)


def test_read_flat_ids_late_long_field_in_unused_column_is_not_valid_csv():
    # one character over the limit, in column `z`, which no feature reads, after block 1
    text = "score,sex,g,z\n" + PLAIN_ROWS + f"1,F,a,{'z' * (csv.field_size_limit() + 1)}\n"
    with mock.patch.object(histogram, "_BLOCK_BYTES", 64):
        with pytest.raises(SchemaError, match="is not valid CSV"):
            read_flat_ids(io.StringIO(text, newline=""), CSV_SCHEME)


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
