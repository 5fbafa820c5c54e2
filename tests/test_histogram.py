import io
import math

import numpy as np
import pytest

from subspace_audit.errors import EmptyInputError, ParameterError, SchemaError
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      JointHistogram, ProbabilityHistogram,
                                      RecordFilter, format_histogram,
                                      gather, ingest_csv, normalize,
                                      parse_histogram)
from subspace_audit.sweep import flat_bin_ids


def scheme_1d(bins=10, lower=1.0, upper=11.0):
    return BinningScheme((FeatureSpec.continuous("score", lower, upper, bins),))


class TestFeatureSpec:
    def test_continuous_binning_rule(self):
        f = FeatureSpec.continuous("score", 1, 11, 10)
        assert f.bin_column(["1", "5", "10"]).tolist() == [0, 4, 9]

    def test_upper_boundary_maps_to_last_bin(self):
        f = FeatureSpec.continuous("score", 0, 10, 5)
        assert f.bin_column(["10"]).tolist() == [4]

    def test_out_of_range_clamps(self):
        f = FeatureSpec.continuous("score", 0, 10, 5)
        assert f.bin_column(["-3", "99"]).tolist() == [0, 4]

    def test_missing_and_unparsable(self):
        f = FeatureSpec.continuous("score", 0, 10, 5)
        assert f.bin_column([None, "", "  ", "abc", "nan"]).tolist() == [-1] * 5

    def test_categorical(self):
        f = FeatureSpec.categorical("sex", ["F", "M"])
        assert f.bin_column(["F", "M", "X"]).tolist() == [0, 1, -1]
        assert f.bin_count == 2
        assert f.centers() == (0.0, 1.0)

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            FeatureSpec.continuous("x", 5, 5, 3)
        with pytest.raises(ParameterError):
            FeatureSpec.continuous("x", 0, 1, 0)
        with pytest.raises(ParameterError):
            FeatureSpec.categorical("x", [])
        with pytest.raises(ParameterError):
            FeatureSpec.categorical("x", ["a", "a"])

    def test_centers_are_midpoints(self):
        f = FeatureSpec.continuous("x", 0, 10, 5)
        assert f.centers() == (1.0, 3.0, 5.0, 7.0, 9.0)


class TestBinningScheme:
    def test_total_bins_is_product(self):
        s = BinningScheme((FeatureSpec.continuous("a", 0, 1, 4),
                           FeatureSpec.categorical("b", ["x", "y", "z"])))
        assert s.shape == (4, 3)
        assert s.total_bins == 12

    def test_flatten_unflatten_roundtrip(self):
        s = BinningScheme((FeatureSpec.continuous("a", 0, 1, 3),
                           FeatureSpec.continuous("b", 0, 1, 5),
                           FeatureSpec.continuous("c", 0, 1, 2)))
        flats = np.arange(s.total_bins)
        assert s.flat_ids(s.indices(flats)).tolist() == flats.tolist()
        for flat in flats.tolist():
            assert s.flat_ids([s.unflatten(flat)]).tolist() == [flat]

    def test_flatten_matches_numpy_convention(self):
        s = BinningScheme((FeatureSpec.continuous("a", 0, 1, 3),
                           FeatureSpec.continuous("b", 0, 1, 5)))
        idxs = [(0, 0), (1, 4), (2, 3)]
        flats = s.flat_ids(idxs)
        assert flats.dtype == np.int64
        assert flats.tolist() == [int(np.ravel_multi_index(idx, s.shape)) for idx in idxs]
        assert [s.unflatten(flat) for flat in flats.tolist()] == idxs
        assert s.indices(flats) == tuple(idxs)

    def test_compatibility_is_field_by_field(self):
        a = scheme_1d()
        b = scheme_1d()
        c = scheme_1d(bins=9)
        assert a == b
        assert a != c

    def test_index_validation(self):
        s = scheme_1d(bins=3)
        for bad in ((3,), (-1,), (0, 0)):
            with pytest.raises(IndexError):
                s.flat_ids([bad])
        with pytest.raises(IndexError):
            JointHistogram(s, {(3,): 1}, total=1)


CSV = "score,SEX\n1,F\n5,M\n10,F\n"


class TestIngestCsv:
    def test_binning_example(self):
        h = ingest_csv(io.StringIO(CSV), scheme_1d())
        assert h.flats.tolist() == [0, 4, 9]
        assert h.values.tolist() == [1, 1, 1]
        assert h.total == 3
        assert h.skipped == 0

    def test_bytes_stream(self):
        h = ingest_csv(io.BytesIO(CSV.encode()), scheme_1d())
        assert h.total == 3

    def test_path_input(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(CSV)
        assert ingest_csv(str(p), scheme_1d()).total == 3

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="score"):
            ingest_csv(io.StringIO("a,b\n1,2\n"), scheme_1d())

    def test_missing_filter_column(self):
        with pytest.raises(SchemaError, match="RACE"):
            ingest_csv(io.StringIO(CSV), scheme_1d(), RecordFilter("RACE", "A"))

    def test_empty_source(self):
        with pytest.raises(EmptyInputError):
            ingest_csv(io.StringIO(""), scheme_1d())

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            ingest_csv(io.StringIO("score,SEX\n"), scheme_1d())

    def test_no_records_matched(self):
        with pytest.raises(EmptyInputError, match="no records matched"):
            ingest_csv(io.StringIO(CSV), scheme_1d(), RecordFilter("SEX", "X"))

    def test_missing_values_counted_not_imputed(self):
        text = "score,SEX\n1,F\n,M\nbad,F\n5,M\n"
        h = ingest_csv(io.StringIO(text), scheme_1d())
        assert h.total == 2
        assert h.skipped == 2

    def test_filter_plus_complement_partitions(self):
        rng = np.random.default_rng(3)
        lines = ["score,SEX"]
        for _ in range(500):
            lines.append(f"{rng.uniform(1, 11):.4f},{'F' if rng.random() < 0.5 else 'M'}")
        text = "\n".join(lines) + "\n"
        whole = ingest_csv(io.StringIO(text), scheme_1d())
        part_f = ingest_csv(io.StringIO(text), scheme_1d(), RecordFilter("SEX", "F"))
        part_m = ingest_csv(io.StringIO(text), scheme_1d(), RecordFilter("SEX", "F", negate=True))
        assert part_f.total + part_m.total == whole.total
        assert np.union1d(part_f.flats, part_m.flats).tolist() == whole.flats.tolist()
        assert np.array_equal(gather(part_f.flats, part_f.values, whole.flats)
                              + gather(part_m.flats, part_m.values, whole.flats), whole.values)

    def test_determinism(self):
        h1 = ingest_csv(io.StringIO(CSV), scheme_1d())
        h2 = ingest_csv(io.StringIO(CSV), scheme_1d())
        assert np.array_equal(h1.flats, h2.flats) and np.array_equal(h1.values, h2.values)
        assert h1.total == h2.total


class TestNormalize:
    def test_symmetric_counts(self):
        s = scheme_1d(bins=2, lower=0, upper=2)
        m = normalize(JointHistogram(s, {(0,): 2, (1,): 2}, total=4))
        assert m.flats.tolist() == [0, 1] and m.values.tolist() == [0.5, 0.5]

    def test_counts_proportional_sum_to_one(self):
        counts = [1440, 941, 771, 667, 616, 586, 569, 540, 479, 383]
        s = scheme_1d(bins=10, lower=0, upper=10)
        h = JointHistogram(s, {(i,): c for i, c in enumerate(counts)}, total=sum(counts))
        m = normalize(h)
        assert math.isclose(m.total_mass(), 1.0, abs_tol=1e-12 * 10)
        assert m.flats.tolist() == list(range(10))
        assert m.values.tolist() == [c / sum(counts) for c in counts]

    def test_point_mass(self):
        s = scheme_1d(bins=3, lower=0, upper=3)
        m = normalize(JointHistogram(s, {(2,): 4}, total=4))
        assert m.flats.tolist() == [2] and m.values.tolist() == [1.0]

    def test_zero_total_rejected(self):
        s = scheme_1d(bins=3, lower=0, upper=3)
        with pytest.raises(EmptyInputError):
            normalize(JointHistogram(s, {}, total=0))

    def test_random_masses_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = scheme_1d(bins=int(rng.integers(1, 40)), lower=0, upper=1)
            occupied = rng.choice(s.total_bins, size=rng.integers(1, s.total_bins + 1),
                                  replace=False)
            counts = {(int(i),): int(rng.integers(1, 100)) for i in occupied}
            m = normalize(JointHistogram(s, counts, total=sum(counts.values())))
            assert abs(m.total_mass() - 1.0) <= 1e-12 * s.total_bins
            assert np.all((0.0 <= m.values) & (m.values <= 1.0))


# a two-feature counts header with no total line: the total is the sum of the bins
COUNTS_HEADER = (
    "# subspace-audit histogram v1\n# kind: counts\n"
    '# feature: {"name": "a", "kind": "continuous", "lower": 0.0, "upper": 1.0, "bins": 2}\n'
    '# feature: {"name": "b", "kind": "continuous", "lower": 0.0, "upper": 1.0, "bins": 2}\n')


class TestFileFormat:
    def test_counts_roundtrip(self):
        h = ingest_csv(io.StringIO(CSV), scheme_1d())
        again = parse_histogram(format_histogram(h))
        assert isinstance(again, JointHistogram)
        assert np.array_equal(again.flats, h.flats) and np.array_equal(again.values, h.values)
        assert again.values.dtype == np.int64
        assert again.total == h.total and again.skipped == h.skipped
        assert again.scheme == h.scheme

    def test_masses_roundtrip_exact(self):
        m = normalize(ingest_csv(io.StringIO(CSV), scheme_1d()))
        again = parse_histogram(format_histogram(m))
        assert isinstance(again, ProbabilityHistogram)
        assert np.array_equal(again.flats, m.flats) and np.array_equal(again.values, m.values)

    def test_categorical_roundtrip(self):
        s = BinningScheme((FeatureSpec.categorical("sex", ["Female", "Male"]),
                           FeatureSpec.continuous("age", 18, 80, 4)))
        h = JointHistogram(s, {(0, 1): 3, (1, 2): 5}, total=8, skipped=1)
        again = parse_histogram(format_histogram(h))
        assert again.scheme == s and again.skipped == 1
        assert again.flats.tolist() == s.flat_ids([(0, 1), (1, 2)]).tolist()
        assert again.values.tolist() == [3, 5]

    def test_serialization_is_sorted_and_stable(self):
        s = scheme_1d(bins=3, lower=0, upper=3)
        a = JointHistogram(s, {(2,): 1, (0,): 1}, total=2)
        b = JointHistogram(s, {(0,): 1, (2,): 1}, total=2)
        assert format_histogram(a) == format_histogram(b)

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            parse_histogram("hello\n")
        with pytest.raises(SchemaError):
            parse_histogram("# subspace-audit histogram v1\n# kind: blah\n")

    @pytest.mark.parametrize("body", [
        "0,x\t3\n",  # non-integer bin index
        "0,1\tx\n",  # non-integer count
        "0,1\t3\n0,1\t5\n",  # the same bin twice
    ])
    def test_malformed_data_line_rejected(self, body):
        with pytest.raises(SchemaError):
            parse_histogram(COUNTS_HEADER + body)

    def test_malformed_total_rejected(self):
        with pytest.raises(SchemaError):
            parse_histogram(COUNTS_HEADER + "# total: abc\n0,1\t3\n")

    def test_inconsistent_total_rejected(self):
        h = ingest_csv(io.StringIO(CSV), scheme_1d())
        text = format_histogram(h).replace("# total: 3", "# total: 5")
        with pytest.raises(SchemaError):
            parse_histogram(text)


def test_flat_bin_ids_joint_index():
    s = BinningScheme((FeatureSpec.continuous("score", 0, 10, 5),
                       FeatureSpec.categorical("sex", ["F", "M"])))
    flats, dropped = flat_bin_ids([{"score": "3.0", "sex": "M"}], s)
    assert flats.tolist() == s.flat_ids([(1, 1)]).tolist() and dropped == 0
    for unusable in ({"score": "x", "sex": "M"}, {"score": "3.0"}):
        flats, dropped = flat_bin_ids([unusable], s)
        assert flats.size == 0 and dropped == 1
