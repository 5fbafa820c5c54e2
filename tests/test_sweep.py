import math
from unittest import mock

import numpy as np
import pytest

from subspace_audit import sweep
from subspace_audit.datasets import synthetic_two_group
from subspace_audit.errors import (BudgetError, EmptyInputError,
                                   ParameterError, SchemaError)
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      ProbabilityHistogram)
from subspace_audit.pac import analytic_false_positive
from subspace_audit.query import (ReferenceBand, keyed_sample, subsampled_query,
                                  violation_report)
from subspace_audit.sweep import (SweepConfig, WassersteinBaseline,
                                  eps_to_delta, estimate_false_positive_rate,
                                  flat_bin_ids, measure_from_flats,
                                  measure_from_records,
                                  run_supnorm_sweep, run_wasserstein_sweep,
                                  subgroup_split, trial_seed, trial_seeds,
                                  violation_mask)


def line_scheme(bins):
    return BinningScheme((FeatureSpec.continuous("x", 0, 1, bins),))


def measure(scheme, values):
    return ProbabilityHistogram(scheme, {(i,): v for i, v in enumerate(values) if v > 0})


def perturbed_pair(n_bins, n_violations, delta):
    """Uniform base and a test measure violating the band on exactly
    n_violations bins at half-width delta."""
    base = measure(line_scheme(n_bins), [1.0 / n_bins] * n_bins)
    bump = 2.0 * delta
    masses = {(i,): 1.0 / n_bins for i in range(n_bins)}
    half = n_violations // 2
    for i in range(half):
        masses[(2 * i,)] += bump
        masses[(2 * i + 1,)] -= bump
    if n_violations % 2:
        extra = 2 * half
        masses[(extra,)] += bump
        spread = bump / (n_bins - n_violations)
        for i in range(n_violations, n_bins):
            masses[(i,)] -= spread
    test = ProbabilityHistogram(base.scheme, masses)
    band = ReferenceBand(base, delta)
    assert violation_report(test, band).count_k == n_violations
    return test, band


class TestTrialSeed:
    def test_deterministic_and_order_insensitive(self):
        assert trial_seed(7, 1, 2, 3) == trial_seed(7, 1, 2, 3)
        assert trial_seed(7, 1, 2, 3) != trial_seed(7, 1, 3, 2)
        assert trial_seed(7, 0, 0, 5) != trial_seed(8, 0, 0, 5)


class TestEpsToDelta:
    def test_sort_and_index_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            bins = int(rng.integers(4, 40))
            scheme = line_scheme(bins)
            w = rng.random(bins) + 0.01
            base = measure(scheme, w / w.sum())
            w2 = rng.random(bins) + 0.01
            test = measure(scheme, w2 / w2.sum())
            target = float(rng.uniform(0.05, 0.95))
            pick = eps_to_delta(test, base, target)
            rep = violation_report(test, ReferenceBand(base, pick.delta))
            assert rep.fraction == pick.eps_actual
            assert pick.eps_actual <= target
            # smallest such delta: one float step down must overshoot the target
            lower = math.nextafter(pick.delta, -math.inf)
            worse = violation_report(test, ReferenceBand(base, lower)).fraction
            assert worse > target or worse == pick.eps_actual

    def test_distinct_diffs_example(self):
        scheme = line_scheme(3)
        base = measure(scheme, [0.5, 0.3, 0.2])
        test = measure(scheme, [0.42, 0.37, 0.21])  # diffs 0.08, 0.07, 0.01
        pick = eps_to_delta(test, base, 1 / 3)
        assert pick.delta == pytest.approx(0.07, abs=1e-9)
        assert pick.delta > 0.07 - 1e-12
        assert pick.eps_actual == pytest.approx(1 / 3)

    def test_target_near_one_approaches_min_diff(self):
        scheme = line_scheme(4)
        base = measure(scheme, [0.4, 0.3, 0.2, 0.1])
        test = measure(scheme, [0.1, 0.25, 0.3, 0.35])  # distinct diffs
        pick = eps_to_delta(test, base, 0.999)
        rep = violation_report(test, ReferenceBand(base, pick.delta))
        assert rep.count_k == 3  # all but the smallest-diff bin

    def test_target_near_zero_approaches_sup_norm(self):
        scheme = line_scheme(4)
        base = measure(scheme, [0.4, 0.3, 0.2, 0.1])
        test = measure(scheme, [0.1, 0.25, 0.3, 0.35])
        pick = eps_to_delta(test, base, 0.26)  # allows one violation out of 4
        rep = violation_report(test, ReferenceBand(base, pick.delta))
        assert rep.count_k == 1  # only the sup-norm bin survives

    def test_rejects_bad_target(self):
        scheme = line_scheme(3)
        m = measure(scheme, [0.5, 0.3, 0.2])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ParameterError):
                eps_to_delta(m, m, bad)


class TestEmpiricalRate:
    def test_matches_subsampled_query_seed_for_seed(self):
        test, band = perturbed_pair(40, 6, 0.002)
        mask = violation_mask(test, band)
        n = test.scheme.total_bins
        master, cell = 999, (0, 2, 1)
        for seed in trial_seeds(master, cell, 50).tolist():
            via_query = subsampled_query(test, band, 7, seed).inside
            rng = np.random.Generator(np.random.Philox(key=seed))
            from subspace_audit.query import sample_flat_indices
            via_mask = not bool(mask[sample_flat_indices(n, 7, rng)].any())
            assert via_query == via_mask

    @pytest.mark.parametrize("size", [7, 30])  # below and above half the grid
    def test_rate_counts_subsampled_query_misses(self, size):
        test, band = perturbed_pair(40, 2, 0.002)
        master, cell, trials = 999, (0, 2, 1), 200
        rate = estimate_false_positive_rate(test, band, size, trials, master, cell)
        misses = sum(subsampled_query(test, band, size, seed).inside
                     for seed in trial_seeds(master, cell, trials).tolist())
        assert 0 < misses < trials
        assert rate * trials == misses

    def test_trial_seed_independent_of_trial_count(self):
        assert np.array_equal(trial_seeds(3, (0, 1, 2), 100)[:10], trial_seeds(3, (0, 1, 2), 10))
        assert trial_seed(3, 0, 1, 2) == trial_seeds(3, (0, 1, 2), 5)[0]

    def test_tracks_hypergeometric_law(self):
        test, band = perturbed_pair(100, 10, 0.001)
        rate = estimate_false_positive_rate(test, band, size=20, trials=4000,
                                            master_seed=5)
        expected = analytic_false_positive(100, 10, 20)
        stderr = math.sqrt(expected * (1 - expected) / 4000)
        assert abs(rate - expected) < 4 * stderr

    def test_rejects_inside_instances(self):
        base = measure(line_scheme(4), [0.25] * 4)
        with pytest.raises(ParameterError):
            estimate_false_positive_rate(base, ReferenceBand(base, 0.5), 2, 10, 0)


def small_config(**kwargs):
    defaults = dict(
        scheme=line_scheme(50),
        protected_column="SEX",
        subgroup_value="Female",
        sample_sizes=(5, 15, 40),
        trials=2000,
        seed=20240611,
        eps_grid=(0.1, 0.3),
    )
    defaults.update(kwargs)
    return SweepConfig(**defaults)


class TestSweepConfig:
    def test_requires_exactly_one_grid(self):
        with pytest.raises(ParameterError):
            small_config(eps_grid=(), delta_grid=())
        with pytest.raises(ParameterError):
            small_config(eps_grid=(0.1,), delta_grid=(0.01,))

    def test_validates_fields(self):
        with pytest.raises(ParameterError):
            small_config(trials=0)
        with pytest.raises(ParameterError):
            small_config(sample_sizes=())
        with pytest.raises(ParameterError):
            small_config(eps_grid=(1.5,))
        # ReferenceBand's rule; nan used to pass and fail only after the table was read
        for delta in (math.nan, math.inf, -1e-3):
            with pytest.raises(ParameterError, match="finite and non-negative"):
                small_config(eps_grid=(), delta_grid=(0.01, delta))

    def test_refuses_grids_over_the_mask_limit(self):
        def grid(*bins):
            return BinningScheme(tuple(FeatureSpec.continuous(f"f{i}", 0, 1, b)
                                       for i, b in enumerate(bins)))
        assert small_config(scheme=grid(2**15, 2**15)).scheme.total_bins == 2**30
        for too_big in (grid(2**15 + 1, 2**15), grid(*[32] * 8)):
            with pytest.raises(ParameterError, match="2\\*\\*30"):
                small_config(scheme=too_big)


class TestWassersteinBaseline:
    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
    def test_rejects_p_outside_finite_range(self, p):
        with pytest.raises(ParameterError, match="baseline p"):
            WassersteinBaseline(p=p, threshold_factor=1.25)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_threshold_factor_not_finite_positive(self, factor):
        with pytest.raises(ParameterError, match="threshold_factor"):
            WassersteinBaseline(threshold_factor=factor)

    def test_threshold_factor_is_required(self):
        with pytest.raises(TypeError, match="threshold_factor"):
            WassersteinBaseline(p=2.0)


class TestRunSupnormSweep:
    def setup_method(self):
        rng = np.random.default_rng(8)
        w = rng.random(50) + 0.05
        self.reference = measure(line_scheme(50), w / w.sum())
        w2 = w + rng.normal(0, 0.15, 50) * w
        w2 = np.clip(w2, 1e-4, None)
        self.test = measure(line_scheme(50), w2 / w2.sum())

    def test_rows_cover_grid_and_match_law(self):
        cfg = small_config()
        result = run_supnorm_sweep(cfg, self.test, self.reference)
        assert len(result.rows) == 2 * 3
        for row in result.rows:
            assert row.trials == cfg.trials
            if math.isnan(row.empirical_error):
                continue
            assert row.analytic_error == analytic_false_positive(
                50, round(row.eps * 50), row.samples)
            envelope = 4 * row.stderr if row.stderr > 0 else 1e-12
            assert abs(row.empirical_error - row.analytic_error) <= envelope

    def test_full_scan_never_errs(self):
        cfg = small_config(sample_sizes=(50,))
        result = run_supnorm_sweep(cfg, self.test, self.reference)
        for row in result.rows:
            if not math.isnan(row.empirical_error):
                assert row.empirical_error == 0.0

    def test_analytic_rate_monotone_in_s_and_eps(self):
        cfg = small_config(eps_grid=(0.08, 0.2, 0.4), sample_sizes=(5, 10, 20, 40))
        result = run_supnorm_sweep(cfg, self.test, self.reference)
        by_eps = {}
        for row in result.rows:
            by_eps.setdefault(row.eps, []).append((row.samples, row.analytic_error))
        for rows in by_eps.values():
            rates = [r for _, r in sorted(rows)]
            assert all(a >= b for a, b in zip(rates, rates[1:]))
        for s in (5, 10, 20, 40):
            ladder = sorted((eps, dict(rows)[s]) for eps, rows in by_eps.items())
            rates = [r for _, r in ladder]
            assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_inside_cells_marked_not_applicable(self):
        cfg = small_config(eps_grid=(), delta_grid=(1.0,))  # band swallows everything
        result = run_supnorm_sweep(cfg, self.test, self.reference)
        for row in result.rows:
            assert math.isnan(row.empirical_error)
            assert math.isnan(row.analytic_error)

    def test_reproducible_and_thread_invariant(self):
        base = run_supnorm_sweep(small_config(), self.test, self.reference)
        again = run_supnorm_sweep(small_config(), self.test, self.reference)
        threaded = run_supnorm_sweep(small_config(threads=4), self.test, self.reference)
        assert base.rows == again.rows == threaded.rows
        assert base.to_csv() == again.to_csv()

    def test_sample_size_above_grid_rejected(self):
        with pytest.raises(ParameterError):
            run_supnorm_sweep(small_config(sample_sizes=(51,)), self.test, self.reference)

    def test_csv_shape(self):
        result = run_supnorm_sweep(small_config(), self.test, self.reference)
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "eps,delta,s,empirical_error,analytic_error,stderr,trials"
        assert len(lines) == 1 + len(result.rows)

    def test_metadata_carries_seed_and_fingerprints(self):
        result = run_supnorm_sweep(small_config(), self.test, self.reference)
        assert result.metadata["seed"] == small_config().seed
        assert result.metadata["test_fingerprint"].startswith("sha256:")
        again = run_supnorm_sweep(small_config(), self.test, self.reference)
        assert result.metadata == again.metadata

    def test_analytic_rate_depends_only_on_counts(self):
        # a two-feature grid with the same (N, K, s) triple reproduces the
        # one-feature analytic column exactly
        grid = BinningScheme((FeatureSpec.continuous("a", 0, 1, 10),
                              FeatureSpec.continuous("b", 0, 1, 5)))
        flat = self.test.scheme
        assert grid.total_bins == self.test.scheme.total_bins
        remap = lambda m: ProbabilityHistogram.from_flats(grid, m.flats, m.values)
        cfg_flat = small_config(delta_grid=(0.004,), eps_grid=())
        cfg_grid = small_config(scheme=grid, delta_grid=(0.004,), eps_grid=())
        rows_flat = run_supnorm_sweep(cfg_flat, self.test, self.reference).rows
        rows_grid = run_supnorm_sweep(cfg_grid, remap(self.test), remap(self.reference)).rows
        for one, two in zip(rows_flat, rows_grid):
            assert one.analytic_error == two.analytic_error
            assert one.analytic_error == analytic_false_positive(
                50, round(one.eps * 50), one.samples)


class TestSubgroupSplit:
    RECORDS = [{"SEX": "F", "x": "1"}, {"SEX": "M", "x": "2"},
               {"SEX": "F", "x": "3"}, {"SEX": "M", "x": "4"}]

    def test_reference_is_whole_population(self):
        test, ref = subgroup_split(self.RECORDS, "SEX", "F")
        assert len(test) == 2 and len(ref) == 4

    def test_absent_value_rejected(self):
        with pytest.raises(EmptyInputError):
            subgroup_split(self.RECORDS, "SEX", "X")

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            subgroup_split(self.RECORDS, "RACE", "F")

    def test_complementary_subgroups_partition_reference(self):
        test_f, ref = subgroup_split(self.RECORDS, "SEX", "F")
        test_m, _ = subgroup_split(self.RECORDS, "SEX", "M")
        assert len(test_f) + len(test_m) == len(ref)
        assert {id(r) for r in test_f} | {id(r) for r in test_m} == {id(r) for r in ref}


class TestRunWassersteinSweep:
    def setup_method(self):
        self.scheme = line_scheme(12)
        rng = np.random.default_rng(99)
        rows = []
        for _ in range(3000):
            female = rng.random() < 0.5
            value = rng.normal(0.35 if female else 0.6, 0.15)
            rows.append({"SEX": "Female" if female else "Male",
                         "x": f"{min(max(value, 0.0), 1.0):.6f}"})
        self.records = rows
        self.test_rows, self.ref_rows = subgroup_split(rows, "SEX", "Female")

    def config(self, **kwargs):
        defaults = dict(
            scheme=self.scheme,
            protected_column="SEX",
            subgroup_value="Female",
            sample_sizes=(25, 100, 400),
            trials=200,
            seed=4242,
            eps_grid=(0.3,),
            baseline=WassersteinBaseline(p=2.0, threshold_factor=1.25),
        )
        defaults.update(kwargs)
        return SweepConfig(**defaults)

    def test_full_group_sample_has_zero_error(self):
        group_size = flat_bin_ids(self.test_rows, self.scheme)[0].size
        cfg = self.config(sample_sizes=(group_size,),
                          baseline=WassersteinBaseline(threshold_factor=1.25, trials=40))
        result = run_wasserstein_sweep(cfg, flat_bin_ids(self.test_rows, self.scheme),
                                       flat_bin_ids(self.ref_rows, self.scheme))
        assert result.rows[0].empirical_error == 0.0

    def test_statistically_identical_groups_error_decays(self):
        # both groups drawn from one distribution; factor > 1 keeps the
        # full-data verdict inside and the error must fade with sample size
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(4000):
            rows.append({"SEX": "Female" if rng.random() < 0.5 else "Male",
                         "x": f"{rng.random():.6f}"})
        test_rows, ref_rows = subgroup_split(rows, "SEX", "Female")
        cfg = self.config(sample_sizes=(20, 200, 1500), trials=150,
                          baseline=WassersteinBaseline(threshold_factor=1.5, trials=150))
        result = run_wasserstein_sweep(cfg, flat_bin_ids(test_rows, self.scheme),
                                       flat_bin_ids(ref_rows, self.scheme))
        assert result.metadata["full_inside"] is True
        errors = [row.empirical_error for row in result.rows]
        assert errors[-1] <= errors[0]
        # At s = 1500 the error count is Binomial(150, p) with p about 0.05
        # (0.052 averaged over 61 master seeds): allow p plus four binomial
        # standard errors at 150 trials, about 0.12.
        p = 0.05
        assert errors[-1] <= p + 4 * math.sqrt(p * (1 - p) / 150)

    def test_reproducible(self):
        cfg = self.config(baseline=WassersteinBaseline(threshold_factor=1.25, trials=30))
        a = run_wasserstein_sweep(cfg, flat_bin_ids(self.test_rows, self.scheme),
                                  flat_bin_ids(self.ref_rows, self.scheme))
        b = run_wasserstein_sweep(cfg, flat_bin_ids(self.test_rows, self.scheme),
                                  flat_bin_ids(self.ref_rows, self.scheme))
        assert a.rows == b.rows

    def two_feature_sweep(self, threads=1, trials=12, **route):
        """A 12-trial baseline at s = 20 and 80 on a 6 x 5 grid."""
        scheme = BinningScheme((FeatureSpec.continuous("x", 0, 1, 6),
                                FeatureSpec.continuous("y", 0, 1, 5)))
        rng = np.random.default_rng(17)
        rows = [{"SEX": "Female" if female else "Male",
                 "x": f"{rng.beta(2, 3 if female else 2):.6f}", "y": f"{rng.random():.6f}"}
                for female in rng.random(1500) < 0.4]
        test_rows, ref_rows = subgroup_split(rows, "SEX", "Female")
        baseline = WassersteinBaseline(threshold_factor=1.25, trials=trials, **route)
        return run_wasserstein_sweep(
            self.config(scheme=scheme, sample_sizes=(20, 80), threads=threads, baseline=baseline),
            flat_bin_ids(test_rows, scheme), flat_bin_ids(ref_rows, scheme))

    def assert_thread_count_changes_nothing(self):
        results = [self.two_feature_sweep(threads) for threads in (1, 2, 4)]
        assert len({r.to_csv() for r in results}) == 1
        assert results[0].metadata == results[1].metadata == results[2].metadata
        return results[0].metadata["screened"]

    def test_thread_count_changes_nothing(self):
        # two features send the trials the bracket leaves open through the
        # transport flow on the pool
        assert self.assert_thread_count_changes_nothing() > 0

    def test_thread_count_changes_nothing_when_every_trial_is_solved(self):
        # an unbounded bracket decides nothing, so all 24 trials are solved
        # concurrently on the pool
        with mock.patch.object(sweep, "w2_bracket", lambda a, b: (-math.inf, math.inf)):
            assert self.assert_thread_count_changes_nothing() == 0

    def test_screening_decides_like_the_exact_route(self):
        # an unbounded bracket decides nothing, so every trial is solved
        screened = self.two_feature_sweep()
        with mock.patch.object(sweep, "w2_bracket", lambda a, b: (-math.inf, math.inf)):
            exact = self.two_feature_sweep()
        assert 0 < screened.metadata["screened"] < 24
        assert screened.to_csv() == exact.to_csv()
        assert screened.metadata == {**exact.metadata, "screened": screened.metadata["screened"]}
        assert exact.metadata["screened"] == 0

    @pytest.mark.parametrize("route", [{"p": 1.0}, {"method": "entropic"}])
    def test_only_exact_w2_is_screened(self, route):
        with mock.patch.object(sweep, "w2_bracket", side_effect=AssertionError):
            result = self.two_feature_sweep(**route, trials=2)
        assert result.metadata["screened"] == 0

    def test_one_feature_is_not_screened(self):
        cfg = self.config(baseline=WassersteinBaseline(threshold_factor=1.25, trials=4))
        with mock.patch.object(sweep, "w2_bracket", side_effect=AssertionError):
            result = run_wasserstein_sweep(cfg, flat_bin_ids(self.test_rows, self.scheme),
                                           flat_bin_ids(self.ref_rows, self.scheme))
        assert result.metadata["screened"] == 0

    def test_trial_keeps_the_keyed_sample_of_records(self):
        """Baseline trial t of size index j measures exactly the records
        `keyed_sample(group, s, trial_seed(seed, 1, j, t))`."""
        scheme = line_scheme(300)
        test_flats = np.random.default_rng(8).permutation(300)[:240]  # one record per bin
        measured = []

        def spy(flats, scheme):
            measured.append(flats.tolist())
            return measure_from_flats(flats, scheme)

        cfg = self.config(scheme=scheme, sample_sizes=(7, 150, 240), threads=2,
                          baseline=WassersteinBaseline(threshold_factor=1.25, trials=5))
        with mock.patch.object(sweep, "measure_from_flats", spy):
            run_wasserstein_sweep(cfg, (test_flats, 0), (np.arange(0, 300, 3), 0))
        expected = [test_flats[keyed_sample(240, size, trial_seed(4242, 1, j, t))].tolist()
                    for j, size in enumerate(cfg.sample_sizes) for t in range(5)]
        assert len(measured) == 2 + len(expected)
        assert sorted(measured[2:]) == sorted(expected)

    def test_oversized_sample_rejected(self):
        cfg = self.config(sample_sizes=(10**6,))
        with pytest.raises(BudgetError):
            run_wasserstein_sweep(cfg, flat_bin_ids(self.test_rows, self.scheme),
                                  flat_bin_ids(self.ref_rows, self.scheme))

    def test_requires_a_baseline(self):
        with pytest.raises(ParameterError, match="baseline"):
            run_wasserstein_sweep(self.config(baseline=None),
                                  flat_bin_ids(self.test_rows, self.scheme),
                                  flat_bin_ids(self.ref_rows, self.scheme))

    def test_overflowing_threshold_is_refused_before_any_trial(self):
        # the full-data W2 is 50 here, so 1e308 times it overflows; the
        # threshold is fixed before a trial's seed is ever drawn
        scheme = BinningScheme((FeatureSpec.continuous("x", 0, 100, 4),))
        cfg = self.config(scheme=scheme, sample_sizes=(2,),
                          baseline=WassersteinBaseline(threshold_factor=1e308, trials=4))
        with mock.patch.object(sweep, "trial_seed", side_effect=AssertionError), \
                pytest.raises(ParameterError, match="full-data distance overflows"):
            run_wasserstein_sweep(cfg, (np.array([0, 0, 0]), 0), (np.array([2, 2]), 0))


class TestMeasureFromRecords:
    def test_counts_match_manual_binning(self):
        scheme = line_scheme(4)
        records = [{"x": "0.1"}, {"x": "0.1"}, {"x": "0.9"}, {"x": "bad"}]
        m, dropped = measure_from_records(records, scheme)
        assert dropped == 1
        assert m.flats.tolist() == [0, 3]
        assert m.values.tolist() == pytest.approx([2 / 3, 1 / 3])


def test_synthetic_dataset_is_deterministic_and_two_group():
    rows = synthetic_two_group(2000, seed=1)
    again = synthetic_two_group(2000, seed=1)
    assert rows == again
    sexes = {r["SEX"] for r in rows}
    assert sexes == {"Female", "Male"}
    assert all(set(r) == {"SEX", "score", "age"} for r in rows[:10])
