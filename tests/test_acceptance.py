"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Every tolerance is pinned here; Monte-Carlo checks use
fixed master seeds, so outcomes are deterministic.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from subspace_audit.cli import main as cli_main
from subspace_audit.datasets import synthetic_two_group
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      ProbabilityHistogram)
from subspace_audit.pac import (analytic_false_positive, sample_size,
                                vc_dimension_bound)
from subspace_audit.query import (ReferenceBand, exact_query,
                                  subsampled_query, violation_report)
from subspace_audit.sweep import (SweepConfig, WassersteinBaseline,
                                  estimate_false_positive_rate, flat_bin_ids,
                                  measure_from_records, run_supnorm_sweep,
                                  run_wasserstein_sweep, subgroup_split)
from subspace_audit.transport import kantorovich_lp, sinkhorn, wasserstein_1d


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            elapsed = time.perf_counter() - started
            print(f"PASS criterion {number}: {title} ({elapsed:.1f}s)")
        return wrapper
    return decorate


# --- instance builders -------------------------------------------------------


def random_scheme(rng, max_total=10_000):
    n_features = int(rng.integers(1, 4))
    widths = []
    total = 1
    for _ in range(n_features):
        cap = max(2, max_total // total)
        width = int(rng.integers(2, min(64, cap) + 1))
        widths.append(width)
        total *= width
    return BinningScheme(tuple(
        FeatureSpec.continuous(f"f{i}", 0.0, 1.0, w) for i, w in enumerate(widths)))


def random_measure(rng, scheme, max_support=400):
    n = scheme.total_bins
    k = int(rng.integers(1, min(max_support, n) + 1))
    flats = rng.choice(n, size=k, replace=False)
    weights = rng.random(k) + 1e-9
    weights /= weights.sum()
    return ProbabilityHistogram(scheme, {
        scheme.unflatten(int(f)): float(w) for f, w in zip(flats, weights)})


def planted_violations(n_bins, violating, delta):
    """Uniform reference and a test measure violating on exactly `violating`
    of the n_bins bins of a one-feature grid, at half-width delta."""
    scheme = BinningScheme((FeatureSpec.continuous("x", 0.0, 1.0, n_bins),))
    u = 1.0 / n_bins
    assert delta <= u / 2
    reference = ProbabilityHistogram(scheme, {(i,): u for i in range(n_bins)})
    masses = {(i,): u for i in range(n_bins)}
    bump = 2.0 * delta
    half = violating // 2
    for i in range(half):
        masses[(2 * i,)] += bump
        masses[(2 * i + 1,)] -= bump
    if violating % 2:
        masses[(2 * half,)] += bump
        spread = bump / (n_bins - violating)
        for i in range(violating, n_bins):
            masses[(i,)] -= spread
    test = ProbabilityHistogram(scheme, masses)
    band = ReferenceBand(reference, delta)
    assert violation_report(test, band).count_k == violating
    return test, band


def dense_full_scan(test, base, delta):
    """Independent oracle: dense-vector scan of all bins."""
    n = test.scheme.total_bins
    ta = np.zeros(n)
    ta[test.flats] = test.values
    ba = np.zeros(n)
    ba[base.flats] = base.values
    diffs = np.abs(ta - ba)
    k = int((diffs >= delta).sum())
    return k == 0, k, k / n, float(diffs.max())


# --- criteria ----------------------------------------------------------------


@criterion(1, "exact query agrees with dense full-scan oracle on 1000 instances")
def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        scheme = random_scheme(rng)
        test = random_measure(rng, scheme)
        base = random_measure(rng, scheme)
        roll = rng.random()
        if roll < 0.1:
            delta = 0.0
        elif roll < 0.2:
            delta = 1.0  # wider than any possible difference
        else:
            delta = float(rng.random() * 0.2)
        band = ReferenceBand(base, delta)
        inside, k, fraction, sup = dense_full_scan(test, base, delta)
        assert exact_query(test, band).inside == inside
        report = violation_report(test, band)
        assert report.count_k == k
        assert report.fraction == fraction
        assert report.sup_norm == sup
    assert time.perf_counter() - started < 10.0


@criterion(2, "no false negatives over 1000 inside-instances x 3 sizes x 100 seeds")
def test_criterion_2_no_false_negatives():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        scheme = random_scheme(rng, max_total=256)
        test = random_measure(rng, scheme, max_support=64)
        base = random_measure(rng, scheme, max_support=64)
        _, _, _, sup = dense_full_scan(test, base, 0.0)
        band = ReferenceBand(base, sup * 1.25 + 1e-9)
        assert exact_query(test, band).inside
        n = scheme.total_bins
        for size in (1, max(1, n // 10), n):
            for seed in range(100):
                assert subsampled_query(test, band, size, seed).inside


@criterion(3, "empirical false-positive rate within 0.015 of the hypergeometric law")
def test_criterion_3_hypergeometric_oracle():
    started = time.perf_counter()
    trials = 20_000
    for violating in (1, 5, 10):
        test, band = planted_violations(100, violating, delta=1 / 400)
        for size in (5, 20, 50):
            expected = analytic_false_positive(100, violating, size)
            hits = sum(
                subsampled_query(test, band, size, seed).inside
                for seed in range(trials))
            assert abs(hits / trials - expected) <= 0.015, (violating, size)
    assert time.perf_counter() - started < 30.0


@criterion(4, "budget from the guarantee keeps the error at or below delta_prob")
def test_criterion_4_pac_guarantee():
    started = time.perf_counter()
    n_total = 10_000
    trials = 10_000
    for eps, delta_prob, n_features in itertools.product(
            (0.05, 0.1), (0.05, 0.1), (2, 4)):
        size = min(sample_size(eps, delta_prob, vc_dimension_bound(n_features)),
                   n_total)
        violating = math.ceil(eps * n_total)
        test, band = planted_violations(n_total, violating, delta=1 / (4 * n_total))
        rate = estimate_false_positive_rate(
            test, band, size, trials, master_seed=404,
            cell=(n_features, int(eps * 100), int(delta_prob * 100)))
        assert rate <= delta_prob, (eps, delta_prob, n_features, rate)
    assert time.perf_counter() - started < 120.0


@criterion(5, "at fraction 0.001 with 500 samples the error sits in (0.55, 0.65)")
def test_criterion_5_paper_anchored_rate():
    started = time.perf_counter()
    n_total, violating, size = 100_000, 100, 500
    analytic = analytic_false_positive(n_total, violating, size)
    assert 0.55 < analytic < 0.65
    test, band = planted_violations(n_total, violating, delta=1 / (4 * n_total))
    rate = estimate_false_positive_rate(test, band, size, trials=4000,
                                        master_seed=505)
    assert 0.55 < rate < 0.65
    assert time.perf_counter() - started < 60.0


@criterion(6, "transportation LP matches brute-force assignment within 1e-9")
def test_criterion_6_lp_exactness():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pa, pb = rng.random((n, 2)), rng.random((n, 2))
        cost = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))
        uniform = np.full(n, 1.0 / n)
        plan = kantorovich_lp(uniform, uniform, cost)
        brute = min(sum(cost[i, perm[i]] for i in range(n)) / n
                    for perm in itertools.permutations(range(n)))
        assert abs(plan.cost - brute) <= 1e-9
        assert np.abs(plan.coupling.sum(axis=1) - uniform).max() <= 1e-9
        assert np.abs(plan.coupling.sum(axis=0) - uniform).max() <= 1e-9


@criterion(7, "1D quantile solver matches the LP within 1e-8 on 200 instances")
def test_criterion_7_1d_cross_validation():
    rng = np.random.default_rng(707)
    for _ in range(200):
        bins_a = int(rng.integers(2, 33))
        bins_b = int(rng.integers(2, 33))
        scheme_a = BinningScheme((FeatureSpec.continuous("x", 0.0, 1.0, bins_a),))
        scheme_b = BinningScheme((FeatureSpec.continuous("x", 0.0, 1.0, bins_b),))
        wa = rng.random(bins_a) + 1e-3
        wa /= wa.sum()
        wb = rng.random(bins_b) + 1e-3
        wb /= wb.sum()
        a = ProbabilityHistogram(scheme_a, {(i,): float(w) for i, w in enumerate(wa)})
        b = ProbabilityHistogram(scheme_b, {(i,): float(w) for i, w in enumerate(wb)})
        p = float(rng.choice([1.0, 2.0]))
        xa = np.asarray(scheme_a.features[0].centers())
        xb = np.asarray(scheme_b.features[0].centers())
        lp = kantorovich_lp(wa, wb, np.abs(xa[:, None] - xb[None, :]) ** p)
        assert abs(wasserstein_1d(a, b, p) - lp.cost ** (1 / p)) <= 1e-8


@criterion(8, "entropic gap below 5% at the smallest reg and monotone across regs")
def test_criterion_8_sinkhorn_sanity():
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        pa, pb = rng.random((n, 2)), rng.random((m, 2))
        cost = np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))
        wa = rng.random(n) + 1e-3
        wa /= wa.sum()
        wb = rng.random(m) + 1e-3
        wb /= wb.sum()
        lp_cost = kantorovich_lp(wa, wb, cost).cost
        gaps = [sinkhorn(wa, wb, cost, reg=factor * float(cost.max())).cost - lp_cost
                for factor in (1.0, 0.1, 0.01, 0.001)]
        assert gaps[-1] <= 0.05 * max(lp_cost, 1e-12)
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-9


@pytest.fixture(scope="module")
def sweep_data():
    rows = synthetic_two_group(120_000, seed=987_654_321)
    scheme = BinningScheme((FeatureSpec.continuous("score", 0.0, 10.0, 20),
                            FeatureSpec.continuous("age", 18.0, 80.0, 25)))
    test_rows, reference_rows = subgroup_split(rows, "SEX", "Female")
    test_measure, _ = measure_from_records(test_rows, scheme)
    reference_measure, _ = measure_from_records(reference_rows, scheme)
    return scheme, test_rows, reference_rows, test_measure, reference_measure


@criterion(9, "sweep curves ordered as expected and transport errors dominate")
def test_criterion_9_sweep_behavior(sweep_data):
    started = time.perf_counter()
    scheme, test_rows, reference_rows, test_measure, reference_measure = sweep_data
    assert len(reference_rows) >= 100_000
    config = SweepConfig(
        scheme=scheme,
        protected_column="SEX",
        subgroup_value="Female",
        sample_sizes=(50, 100, 200, 400),
        trials=10_000,
        seed=20250401,
        eps_grid=(0.02, 0.05, 0.1),
        baseline=WassersteinBaseline(p=2.0, threshold_factor=1.25,
                                     method="exact", trials=60),
    )
    supnorm = run_supnorm_sweep(config, test_measure, reference_measure)

    by_eps = {}
    for row in supnorm.rows:
        assert not math.isnan(row.empirical_error)
        by_eps.setdefault(row.eps, {})[row.samples] = row
    assert len(by_eps) == 3

    # analytic rates: non-increasing in the sample size, exactly
    for cells in by_eps.values():
        rates = [cells[s].analytic_error for s in config.sample_sizes]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    # analytic rates: ordered by achieved fraction (smaller -> higher), exactly
    fractions = sorted(by_eps)
    for size in config.sample_sizes:
        ladder = [by_eps[eps][size].analytic_error for eps in fractions]
        assert all(a >= b for a, b in zip(ladder, ladder[1:]))
    # empirical rates track the analytic law within 3 standard errors
    for cells in by_eps.values():
        for row in cells.values():
            envelope = 3 * row.stderr if row.stderr > 0 else 1e-9
            assert abs(row.empirical_error - row.analytic_error) <= envelope

    baseline = run_wasserstein_sweep(config, flat_bin_ids(test_rows, scheme),
                                     flat_bin_ids(reference_rows, scheme))
    transport_by_size = {row.samples: row.empirical_error for row in baseline.rows}
    for eps, cells in by_eps.items():
        for size in config.sample_sizes:
            assert transport_by_size[size] > cells[size].empirical_error, (eps, size)

    assert time.perf_counter() - started < 300.0


@criterion(10, "CLI reruns with identical manifest inputs are byte-identical")
def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(cli_main, [str(a) for a in args])
        assert result.exit_code in (0, 1), result.output
        return result

    (tmp_path / "scheme.cfg").write_text(
        "feature.score = continuous:0:10:8\nfeature.age = continuous:18:80:5\n")
    (tmp_path / "sweep.cfg").write_text(
        "feature.score = continuous:0:10:8\nfeature.age = continuous:18:80:5\n"
        "protected = SEX\nsubgroup = Female\neps = 0.2,0.4\nsamples = 5,20\n"
        "trials = 200\nseed = 271828\nbaseline = wasserstein\n"
        "threshold_factor = 1.25\nbaseline_trials = 8\n")
    invoke("synth", "--rows", "4000", "--seed", "33", "--out", tmp_path / "data.csv")

    outputs = {}
    for attempt in ("one", "two"):
        invoke("bin", "--data", tmp_path / "data.csv", "--config",
               tmp_path / "scheme.cfg", "--filter", "SEX=Female",
               "--out", tmp_path / "fem.hist")
        invoke("bin", "--data", tmp_path / "data.csv", "--config",
               tmp_path / "scheme.cfg", "--out", tmp_path / "all.hist")
        query = invoke("query", "--reference", tmp_path / "all.hist",
                       "--test", tmp_path / "fem.hist",
                       "--delta", "0.001", "--samples", "12", "--seed", "5")
        invoke("sweep", "--config", tmp_path / "sweep.cfg",
               "--data", tmp_path / "data.csv", "--out", tmp_path / "out.csv")
        outputs[attempt] = {
            "fem": (tmp_path / "fem.hist").read_bytes(),
            "all": (tmp_path / "all.hist").read_bytes(),
            "query": query.output,
            "sweep": (tmp_path / "out.csv").read_bytes(),
            "baseline": (tmp_path / "out.csv.wasserstein.csv").read_bytes(),
        }
    assert outputs["one"] == outputs["two"]
