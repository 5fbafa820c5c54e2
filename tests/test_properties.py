"""Property tests: the histogram file format round-trips, and malformed
histogram files, config text and CSV bytes only ever raise AuditError."""

import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_audit.config import parse_config
from subspace_audit.errors import AuditError
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      JointHistogram, ProbabilityHistogram,
                                      format_histogram, ingest_csv,
                                      parse_histogram)

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
