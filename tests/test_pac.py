import math
from fractions import Fraction

import numpy as np
import pytest

from subspace_audit.errors import ParameterError
from subspace_audit.pac import (SampleBudget, analytic_false_positive,
                                sample_size, vc_dimension_bound)


def hypergeometric_miss_exact(n, k, s):
    """Oracle: exact no-hit probability as a rational product."""
    p = Fraction(1)
    for i in range(s):
        p *= Fraction(n - k - i, n - i)
    return p


class TestVcDimensionBound:
    def test_declared_value_at_n1(self):
        assert vc_dimension_bound(1) == 7  # ceil(2 * 2 * log2(3))

    def test_monotone(self):
        values = [vc_dimension_bound(n) for n in range(1, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_never_below_halfspace_dimension(self):
        for n in range(1, 101):
            assert vc_dimension_bound(n) >= n + 1
        # even with a tiny constant the n+1 floor holds
        assert vc_dimension_bound(5, union_constant=0.01) == 6

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            vc_dimension_bound(0)

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308])
    def test_rejects_union_constant_without_finite_positive_bound(self, constant):
        # nan and inf used to escape as ValueError and OverflowError
        with pytest.raises(ParameterError):
            vc_dimension_bound(2, union_constant=constant)


class TestSampleSize:
    def test_declared_example(self):
        # max(32 ln 32, 8 ln 4) = 110.9... -> 111
        assert sample_size(0.5, 0.5, 2) == 111

    def test_second_declared_example(self):
        expected = math.ceil(max(560 * math.log(560), 40 * math.log(200)))
        assert sample_size(0.1, 0.01, 7) == expected

    def test_halving_eps_strictly_increases(self):
        eps = 0.4
        for _ in range(6):
            assert sample_size(eps / 2, 0.1, 5) > sample_size(eps, 0.1, 5)
            eps /= 2

    def test_monotonicity_grid(self):
        grid = [0.001, 0.01, 0.1, 0.5]
        dims = [2, 7, 50]
        for d in dims:
            for delta in grid:
                sizes = [sample_size(e, delta, d) for e in grid]
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # non-increasing in eps
            for eps in grid:
                sizes = [sample_size(eps, dl, d) for dl in grid]
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # non-increasing in delta
        for eps in grid:
            for delta in grid:
                sizes = [sample_size(eps, delta, d) for d in dims]
                assert all(a <= b for a, b in zip(sizes, sizes[1:]))  # non-decreasing in d

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                sample_size(bad, 0.1, 3)
            with pytest.raises(ParameterError):
                sample_size(0.1, bad, 3)

    def test_overflowing_budget_rejected(self):
        # the net term overflows to inf, whose ceil raised OverflowError
        with pytest.raises(ParameterError):
            sample_size(5e-324, 0.05, 7)
        with pytest.raises(ParameterError):
            sample_size(0.05, 0.05, 10**307)

    def test_constants_are_configurable(self):
        default = sample_size(0.1, 0.1, 5)
        looser = sample_size(0.1, 0.1, 5, net_constant=4.0)
        assert looser < default


class TestAnalyticFalsePositive:
    def test_no_violations_gives_one(self):
        assert analytic_false_positive(100, 0, 10) == 1.0

    def test_small_case_exact(self):
        assert analytic_false_positive(10, 1, 3) == pytest.approx(84 / 120, abs=1e-12)

    def test_large_case_near_with_replacement(self):
        got = analytic_false_positive(100_000, 100, 500)
        assert got == pytest.approx(0.605, abs=0.002)
        assert got < (1 - 0.001) ** 500  # dominated by the with-replacement value

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n + 1))
            s = int(rng.integers(1, n + 1))
            expected = float(hypergeometric_miss_exact(n, k, s))
            assert analytic_false_positive(n, k, s) == pytest.approx(expected, abs=1e-12)

    def test_zero_once_sample_exceeds_clean_bins(self):
        assert analytic_false_positive(10, 4, 7) == 0.0
        assert analytic_false_positive(10, 10, 1) == 0.0

    def test_bounds_and_monotonicity_in_s(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(3, 300))
            k = int(rng.integers(1, n))
            values = [analytic_false_positive(n, k, s) for s in range(1, n + 1)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a > b or (a == b == 0.0) for a, b in zip(values, values[1:]))
            for s, v in enumerate(values, start=1):
                assert v <= (1 - k / n) ** s + 1e-12

    def test_pac_budget_meets_delta_via_exact_law(self):
        # with s from the budget formula, the exact miss probability is <= delta
        for eps in (0.001, 0.01, 0.1, 0.5):
            for delta in (0.001, 0.01, 0.1, 0.5):
                for d in (1, 2, 7, 50):
                    s = sample_size(eps, delta, d)
                    n = 10_000
                    k = math.ceil(eps * n)
                    if s <= n:
                        assert analytic_false_positive(n, k, s) <= delta

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            analytic_false_positive(0, 0, 1)
        with pytest.raises(ParameterError):
            analytic_false_positive(10, 11, 1)
        with pytest.raises(ParameterError):
            analytic_false_positive(10, 5, 0)
        with pytest.raises(ParameterError):
            analytic_false_positive(10, 5, 11)

    def test_huge_grid_stays_finite(self):
        v = analytic_false_positive(10**9, 10**6, 1000)
        assert 0.0 < v < 1.0
        assert v == pytest.approx((1 - 10**6 / 10**9) ** 1000, rel=1e-3)


class TestSampleBudget:
    def test_plan_is_consistent(self):
        budget = SampleBudget.plan(0.5, 0.5, 1)
        assert budget.vc_dim == 7
        assert budget.samples == sample_size(0.5, 0.5, 7)

    def test_plan_accepts_per_family_dimension(self):
        direct = sample_size(0.1, 0.1, 3 + 1)  # caller-chosen d = n + 1
        assert direct < sample_size(0.1, 0.1, vc_dimension_bound(3))
