import sys
import threading

import numpy as np
import pytest
from scipy import stats

from subspace_audit.errors import AlignmentError, BudgetError, ParameterError
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      ProbabilityHistogram, gather)
from subspace_audit.query import (ReferenceBand, _floyd_draws,
                                  _floyd_replayable, exact_query, keyed_misses,
                                  keyed_sample, sample_flat_indices,
                                  subsampled_query, support_differences,
                                  verdict_record, violation_report)


def line_scheme(bins):
    return BinningScheme((FeatureSpec.continuous("x", 0, 1, bins),))


def measure(scheme, values):
    return ProbabilityHistogram(scheme, {(i,): v for i, v in enumerate(values) if v != 0})


S3 = line_scheme(3)
BASE = measure(S3, [0.5, 0.3, 0.2])
TEST = measure(S3, [0.4, 0.4, 0.2])


def mass_at(hist, idx):
    """The mass a histogram stores at one multi-index; zero off its support."""
    return float(gather(hist.flats, hist.values, hist.scheme.flat_ids([idx]))[0])


def fresh_philox_draw(n, s, seed):
    """The bins keyed by `seed`, drawn from a newly built Philox generator."""
    fresh = np.random.Generator(np.random.Philox(key=seed))
    return fresh.choice(n, s, replace=False)


def random_pair(rng, max_bins=64):
    """Random aligned (test, base) measures with sparse support."""
    bins = int(rng.integers(2, max_bins))
    scheme = line_scheme(bins)

    def rand_measure():
        k = int(rng.integers(1, bins + 1))
        idx = rng.choice(bins, size=k, replace=False)
        w = rng.random(k)
        w /= w.sum()
        return ProbabilityHistogram(scheme, {(int(i),): float(v) for i, v in zip(idx, w)})

    return rand_measure(), rand_measure()


def delta_range(test, base):
    """(min, max) of the per-bin differences over all bins of the grid.

    Any delta strictly between the two endpoints yields a violation fraction
    strictly inside (0, 1); bins outside both supports pin the minimum to 0.
    """
    flats, diffs = support_differences(test, base)
    d_min = float(diffs.min()) if flats.size == test.scheme.total_bins else 0.0
    return d_min, float(diffs.max(initial=0.0))


class TestExactQuery:
    def test_identical_measures_inside(self):
        assert exact_query(BASE, ReferenceBand(BASE, 0.1)).inside

    def test_violation_found(self):
        out = exact_query(TEST, ReferenceBand(BASE, 0.05))
        assert not out.inside
        assert out.witness in ((0,), (1,))

    def test_wide_band_inside(self):
        assert exact_query(TEST, ReferenceBand(BASE, 0.2)).inside

    def test_boundary_counts_as_violation(self):
        # |diff| exactly delta rejects
        out = exact_query(TEST, ReferenceBand(BASE, abs(0.5 - 0.4)))
        assert not out.inside

    def test_witness_is_genuine(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            test, base = random_pair(rng)
            delta = float(rng.random() * 0.3)
            out = exact_query(test, ReferenceBand(base, delta))
            if not out.inside:
                assert abs(mass_at(test, out.witness) - mass_at(base, out.witness)) >= delta

    def test_empty_bins_participate_at_delta_zero(self):
        scheme = line_scheme(4)
        m = measure(scheme, [0.5, 0.5, 0, 0])
        out = exact_query(m, ReferenceBand(m, 0.0))
        assert not out.inside  # untouched bins satisfy |0 - 0| >= 0

    def test_incompatible_schemes(self):
        other = measure(line_scheme(4), [1.0, 0, 0, 0])
        with pytest.raises(AlignmentError):
            exact_query(other, ReferenceBand(BASE, 0.1))

    def test_negative_delta_rejected(self):
        with pytest.raises(ParameterError):
            ReferenceBand(BASE, -0.1)


class TestViolationReport:
    def test_identical_delta_zero(self):
        rep = violation_report(BASE, ReferenceBand(BASE, 0.0))
        assert rep.count_k == 3 and rep.fraction == 1.0
        assert rep.flats.tolist() == [0, 1, 2]
        assert rep.excess.tolist() == [0.0, 0.0, 0.0]
        assert rep.sup_norm == 0.0

    def test_worked_example(self):
        rep = violation_report(TEST, ReferenceBand(BASE, 0.05))
        assert rep.count_k == 2
        assert rep.fraction == pytest.approx(2 / 3)
        assert rep.sup_norm == pytest.approx(0.1)
        assert rep.flats.tolist() == [0, 1]  # bin 2 agrees exactly
        assert rep.excess.tolist() == pytest.approx([0.05, 0.05])

    def test_point_mass_vs_uniform(self):
        s = line_scheme(10)
        point = measure(s, [0] * 9 + [1])
        uniform = measure(s, [0.1] * 10)
        rep = violation_report(point, ReferenceBand(uniform, 0.0))
        assert rep.sup_norm == pytest.approx(0.9)
        assert rep.count_k == 10 and rep.fraction == 1.0

    def test_consistent_with_exact_query(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            test, base = random_pair(rng)
            delta = float(rng.random() * 0.2)
            band = ReferenceBand(base, delta)
            rep = violation_report(test, band)
            assert exact_query(test, band).inside == (rep.count_k == 0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(23)
        test, base = random_pair(rng, max_bins=32)
        d_min, d_max = delta_range(test, base)
        previous = None
        for delta in np.linspace(0, d_max * 1.1 + 1e-6, 25):
            k = violation_report(test, ReferenceBand(base, float(delta))).count_k
            if previous is not None:
                assert k <= previous
            previous = k
        n = test.scheme.total_bins
        assert violation_report(test, ReferenceBand(base, d_max * 1.001 + 1e-12)).count_k == 0
        if d_min > 0:
            assert violation_report(test, ReferenceBand(base, d_min / 2)).count_k == n


class TestDeltaRange:
    def test_identical(self):
        assert delta_range(BASE, BASE) == (0.0, 0.0)

    def test_worked_example(self):
        lo, hi = delta_range(TEST, BASE)
        assert lo == 0.0  # bin 2 agrees exactly
        assert hi == pytest.approx(0.1)

    def test_point_mass_vs_uniform(self):
        s = line_scheme(10)
        point = measure(s, [0] * 9 + [1])
        uniform = measure(s, [0.1] * 10)
        lo, hi = delta_range(point, uniform)
        assert lo == pytest.approx(0.1) and hi == pytest.approx(0.9)

    def test_untouched_bins_pin_minimum_to_zero(self):
        s = line_scheme(5)
        a = measure(s, [0.5, 0.5, 0, 0, 0])
        b = measure(s, [0.3, 0.7, 0, 0, 0])
        assert delta_range(a, b)[0] == 0.0

    def test_strictly_between_gives_partial_fraction(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            test, base = random_pair(rng, max_bins=24)
            lo, hi = delta_range(test, base)
            if lo == hi:
                continue
            mid = (lo + hi) / 2
            frac = violation_report(test, ReferenceBand(base, mid)).fraction
            assert 0.0 < frac < 1.0


class TestSampleFlatIndices:
    def test_exact_size_and_distinct(self):
        rng = np.random.default_rng(0)
        flats = sample_flat_indices(100, 30, rng)
        assert flats.size == 30 and np.unique(flats).size == 30
        assert flats.min() >= 0 and flats.max() < 100

    def test_deterministic(self):
        a = sample_flat_indices(1000, 50, np.random.default_rng(9))
        b = sample_flat_indices(1000, 50, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejection_path_for_large_grids(self):
        rng = np.random.default_rng(1)
        flats = sample_flat_indices(10**9, 1000, rng)
        assert flats.size == 1000 and np.unique(flats).size == 1000
        again = sample_flat_indices(10**9, 1000, np.random.default_rng(1))
        assert np.array_equal(flats, again)

    def test_budget_errors(self):
        rng = np.random.default_rng(2)
        with pytest.raises(BudgetError):
            sample_flat_indices(10, 0, rng)
        with pytest.raises(BudgetError):
            sample_flat_indices(10, 11, rng)

    def test_uniformity(self):
        # each of 10 bins should appear in a size-3 sample with rate 3/10
        hits = np.zeros(10)
        trials = 4000
        for seed in range(trials):
            hits[sample_flat_indices(10, 3, np.random.default_rng(seed))] += 1
        rates = hits / trials
        assert np.all(np.abs(rates - 0.3) < 0.03)


class TestKeyedSampler:
    # (n, s) pairs on both of numpy's branches: Floyd, and the partial shuffle
    SHAPES = [(500, 400), (2**21, 64), (10, 3), (10_000, 6_593), (100_000, 500), (40, 20)]

    SEEDS = (0, 5, 2**64 - 1, 2**64, 2**128 - 1)

    def test_reused_sampler_matches_fresh_philox(self):
        for n, s in self.SHAPES:
            for seed in self.SEEDS:
                expected = fresh_philox_draw(n, s, seed)
                assert np.array_equal(keyed_sample(n, s, seed), expected), (n, s, seed)

    def test_interleaved_threads_match_fresh_philox(self):
        """Two threads alternate draws through the shared function; each
        thread's generator is its own, so every draw is the keyed one."""
        turns = [threading.Semaphore(1), threading.Semaphore(0)]
        draws = [[], []]

        def worker(me):
            for n, s in self.SHAPES:
                for seed in self.SEEDS[me::2] + self.SEEDS[1 - me::2]:
                    turns[me].acquire()
                    draws[me].append(((n, s, seed), keyed_sample(n, s, seed)))
                    turns[1 - me].release()

        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [len(d) for d in draws] == [len(self.SHAPES) * len(self.SEEDS)] * 2
        for (n, s, seed), got in draws[0] + draws[1]:
            assert np.array_equal(got, fresh_philox_draw(n, s, seed)), (n, s, seed)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_key_range(self, seed):
        with pytest.raises(ParameterError):
            keyed_sample(10, 3, seed)
        with pytest.raises(ParameterError):
            subsampled_query(TEST, ReferenceBand(BASE, 0.05), 2, seed)

    @pytest.mark.parametrize("n, s", [(500, 400), (50_000, 64)])
    def test_inclusion_frequencies_uniform(self, n, s):
        """First-order (each bin) and second-order (bins 2k and 2k + 1 together)
        inclusion counts over keyed draws against their uniform expectations."""
        trials, groups = 20_000, 25
        draws = np.stack([keyed_sample(n, s, seed) for seed in range(trials)])
        assert all(np.unique(row).size == s for row in draws[:100])
        p = s / n
        counts = np.bincount(draws.ravel(), minlength=n)
        # per-draw covariance of the indicators is p (1 - p) n / (n - 1) (I - 11'/n)
        first = ((counts - trials * p) ** 2).sum() / (trials * p * (1 - p) * n / (n - 1))
        assert stats.chi2.sf(first, n - 1) > 1e-3
        q = s * (s - 1) / (n * (n - 1))
        keys = np.sort((draws // 2 + np.arange(trials)[:, None] * (n // 2)).ravel())
        both = keys[1:][keys[1:] == keys[:-1]] % (n // 2)
        grouped = np.bincount(both, minlength=n // 2).reshape(groups, -1).sum(axis=1)
        pairs = n // 2 // groups
        second = ((grouped - trials * pairs * q) ** 2).sum() / (trials * pairs * q * (1 - q))
        assert stats.chi2.sf(second, groups) > 1e-3


def loop_misses(mask, s, seeds):
    """The per-trial reference: does each seed's keyed sample miss the mask?"""
    return np.array([not mask[keyed_sample(mask.size, s, seed)].any()
                     for seed in seeds.tolist()], dtype=bool)


def random_mask(rng, n, k, below=None):
    """k True bins of n, drawn from [0, below) when `below` is given."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n if below is None else below, k, replace=False)] = True
    return mask


class TestKeyedMisses:
    # numpy's switches: Floyd up to 10 000 bins or a fiftieth of the grid;
    # s = n stays on the loop
    SHAPES = [(10_000, 201), (10_001, 201), (100_000, 2_000), (100_000, 2_001),
              (500, 250), (501, 251), (40, 7),
              (500, 400), (500, 499), (1_000, 999), (10_000, 6_000)]

    @pytest.mark.parametrize("n, s", SHAPES)
    def test_matches_per_trial_loop(self, n, s):
        rng = np.random.default_rng(n + s)
        seeds = rng.integers(0, 2**64, 300, dtype=np.uint64)
        for k in (1, 3, max(1, n // (4 * s)), n - s, n - s + 1):
            masks = [random_mask(rng, n, k)]
            if k <= n - s:  # none in [n - s, n), where Floyd adds its own bins
                masks.append(random_mask(rng, n, k, below=n - s))
            for mask in masks:
                assert np.array_equal(keyed_misses(mask, s, seeds),
                                      loop_misses(mask, s, seeds)), (n, s, k)

    @pytest.mark.parametrize("n", [40, 500, 10_000])
    def test_full_grid_stays_on_the_loop(self, n):
        """At s = n Floyd's first step draws from [0, 0] without taking a
        word; an empty mask is the one mask that reaches the draws there."""
        assert _floyd_replayable(n, n - 1) and not _floyd_replayable(n, n)
        seeds = np.arange(20, dtype=np.uint64)
        mask = np.zeros(n, dtype=bool)
        assert keyed_misses(mask, n, seeds).all()
        mask[n - 1] = True
        assert not keyed_misses(mask, n, seeds).any()

    def test_misses_and_hits_both_occur(self):
        mask = random_mask(np.random.default_rng(3), 500, 10)
        misses = keyed_misses(mask, 50, np.arange(2_000, dtype=np.uint64))
        assert 0 < misses.sum() < misses.size

    def test_no_sample_misses_more_violations_than_it_leaves_out(self):
        mask = np.zeros(100, dtype=bool)
        mask[:11] = True
        assert not keyed_misses(mask, 90, np.arange(50, dtype=np.uint64)).any()

    def test_budget_errors(self):
        mask = np.zeros(10, dtype=bool)
        for size in (0, 11):
            with pytest.raises(BudgetError):
                keyed_misses(mask, size, np.arange(3, dtype=np.uint64))

    def test_rejected_draws_leave_rows_unsettled(self):
        """At 2**31 + 7 bins Lemire's rejection fires on about half the
        draws; the rows it spares hold only bins of their keyed sample."""
        n, s = 2**31 + 7, 3
        assert _floyd_replayable(n, s)
        seeds = np.random.default_rng(5).integers(0, 2**64, 400, dtype=np.uint64)
        draws, settled = _floyd_draws(n, s, seeds)
        assert 0.05 < settled.mean() < 0.25  # (1/2)**3 of the rows
        for row, seed in zip(draws[settled], seeds[settled].tolist()):
            assert set(row.tolist()) <= set(keyed_sample(n, s, seed).tolist())

    def test_settled_draws_are_in_the_keyed_sample(self):
        for n, s in ((40, 20), (10_000, 201), (100_000, 2_000), (2**32 - 1, 5)):
            assert _floyd_replayable(n, s)
            seeds = np.arange(100, dtype=np.uint64) * 7919
            draws, settled = _floyd_draws(n, s, seeds)
            assert settled.mean() > 0.9  # rejection is rare at these widths
            for row, seed in zip(draws[settled], seeds[settled].tolist()):
                assert set(row.tolist()) <= set(keyed_sample(n, s, seed).tolist()), (n, s)

    def test_threads_interleaving_batches_and_draws_get_keyed_draws(self):
        """More threads than cores alternate batch decisions and single draws
        with a short switch interval; each thread resets its own generator."""
        rng = np.random.default_rng(11)
        jobs = [(random_mask(rng, n, 3), s, rng.integers(0, 2**64, 200, dtype=np.uint64))
                for n, s in ((500, 50), (500, 400), (10_000, 201))]
        expected = [(loop_misses(mask, s, seeds),
                     [fresh_philox_draw(mask.size, s, seed) for seed in seeds[:5].tolist()])
                    for mask, s, seeds in jobs]
        failures, done = [], []

        def worker(me):
            for round_ in range(3):
                for (mask, s, seeds), (misses, draws) in zip(jobs, expected):
                    if not np.array_equal(keyed_misses(mask, s, seeds), misses):
                        failures.append((me, round_, s, "batch"))
                    for seed, draw in zip(seeds[:5].tolist(), draws):
                        if not np.array_equal(keyed_sample(mask.size, s, seed), draw):
                            failures.append((me, round_, s, seed))
            done.append(me)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and failures == []


class TestSubsampledQuery:
    def test_full_sample_equals_exact(self):
        band = ReferenceBand(BASE, 0.05)
        exact = exact_query(TEST, band)
        for seed in range(50):
            out = subsampled_query(TEST, band, size=3, seed=seed)
            assert out.inside == exact.inside

    def test_no_false_negatives(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            test, base = random_pair(rng, max_bins=32)
            _, d_max = delta_range(test, base)
            band = ReferenceBand(base, d_max * 1.5 + 1e-9)
            assert exact_query(test, band).inside
            n = test.scheme.total_bins
            for size in (1, max(1, n // 10), n):
                for seed in range(5):
                    assert subsampled_query(test, band, size, seed).inside

    def test_rejection_is_sound(self):
        rng = np.random.default_rng(37)
        rejected = 0
        for seed in range(500):
            test, base = random_pair(rng, max_bins=16)
            delta = float(rng.random() * 0.1)
            band = ReferenceBand(base, delta)
            out = subsampled_query(test, band, size=2, seed=seed)
            if not out.inside:
                rejected += 1
                assert not exact_query(test, band).inside
                assert abs(mass_at(test, out.witness) - mass_at(base, out.witness)) >= delta
        assert rejected > 0

    def test_hypergeometric_rate_n10_k1_s3(self):
        # one violating bin out of ten; a 3-subset misses it with prob 84/120
        s = line_scheme(10)
        uniform = measure(s, [0.1] * 10)
        masses = {(i,): 0.1 - 0.05 / 9 for i in range(10)}
        masses[(0,)] = 0.1 + 0.05  # big move on bin 0, the rest spread thin
        test = ProbabilityHistogram(s, masses)
        band = ReferenceBand(uniform, 0.03)
        assert violation_report(test, band).count_k == 1
        hits = sum(subsampled_query(test, band, 3, seed).inside for seed in range(20_000))
        assert abs(hits / 20_000 - 84 / 120) < 0.015

    def test_determinism_identical_outcome_and_sample(self):
        band = ReferenceBand(BASE, 0.05)
        a = subsampled_query(TEST, band, 2, seed=123)
        b = subsampled_query(TEST, band, 2, seed=123)
        assert a == b
        assert np.array_equal(a.sampled_flats, keyed_sample(3, 2, 123))
        wide = ReferenceBand(BASE, 0.5)  # same verdict, witness and seed, other bins
        assert (subsampled_query(TEST, wide, 2, seed=123)
                != subsampled_query(TEST, wide, 3, seed=123))

    def test_budget_validation(self):
        band = ReferenceBand(BASE, 0.05)
        with pytest.raises(BudgetError):
            subsampled_query(TEST, band, 0, seed=1)
        with pytest.raises(BudgetError):
            subsampled_query(TEST, band, 4, seed=1)

    def test_sampled_diffs_follow_draw_order(self):
        rng = np.random.default_rng(41)
        for seed in range(30):
            test, base = random_pair(rng)
            n = test.scheme.total_bins
            out = subsampled_query(test, ReferenceBand(base, 0.01), max(1, n // 3), seed)
            expected = [abs(mass_at(test, idx) - mass_at(base, idx))
                        for idx in test.scheme.indices(out.sampled_flats)]
            assert out.sampled_diffs.tolist() == expected

    def test_multifeature_sampling_covers_grid(self):
        scheme = BinningScheme((FeatureSpec.continuous("a", 0, 1, 3),
                                FeatureSpec.continuous("b", 0, 1, 4)))
        m = ProbabilityHistogram(scheme, {(0, 0): 1.0})
        out = subsampled_query(m, ReferenceBand(m, 0.5), size=12, seed=0)
        assert out.inside
        assert sorted(scheme.indices(out.sampled_flats)) == sorted(
            (i, j) for i in range(3) for j in range(4))


class TestVerdictRecord:
    def test_exact_line(self):
        out = exact_query(TEST, ReferenceBand(BASE, 0.05))
        line = verdict_record(out, 0.05, eps_hat=2 / 3, sup_norm=0.1)
        fields = line.split(",")
        assert fields[0] == "FALSE"
        assert fields[1] == "0.05"
        assert fields[2] == "" and fields[3] == ""
        assert fields[4] == "0"

    def test_subsampled_line_roundtrips_seed(self):
        band = ReferenceBand(BASE, 0.5)
        out = subsampled_query(TEST, band, 2, seed=77)
        fields = verdict_record(out, 0.5).split(",")
        assert fields[0] == "TRUE" and fields[2] == "2" and fields[3] == "77"
