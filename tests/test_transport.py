import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from subspace_audit import transport
from subspace_audit.datasets import synthetic_two_group
from subspace_audit.errors import (AlignmentError, ConvergenceError,
                                   ParameterError, SupportSizeError)
from subspace_audit.histogram import (BinningScheme, FeatureSpec,
                                      ProbabilityHistogram)
from subspace_audit.sweep import flat_bin_ids, measure_from_flats
from subspace_audit.transport import (kantorovich_lp, sinkhorn, w2_bracket,
                                      wasserstein_1d, wasserstein_nd)


def line_scheme(bins, lower=0.0, upper=None):
    upper = float(bins) if upper is None else upper
    return BinningScheme((FeatureSpec.continuous("x", lower, upper, bins),))


def line_measure(scheme, values):
    return ProbabilityHistogram(scheme, {(i,): v for i, v in enumerate(values) if v > 0})


def random_metric_cost(rng, n, m, dim=2):
    pa = rng.random((n, dim))
    pb = rng.random((m, dim))
    return np.sqrt(((pa[:, None] - pb[None, :]) ** 2).sum(-1))


def random_simplex(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


def permutation_assignment_cost(c):
    """Oracle: uniform-marginal optimum by enumerating all assignments."""
    n = c.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(c[i, perm[i]] for i in range(n)) / n)
    return best


class TestWasserstein1d:
    def test_identity(self):
        m = line_measure(line_scheme(4), [0.25, 0.25, 0.25, 0.25])
        for p in (1.0, 2.0, 3.0):
            assert wasserstein_1d(m, m, p) == 0.0

    def test_unit_translation_any_p(self):
        scheme = BinningScheme((FeatureSpec.continuous("x", -0.5, 1.5, 2),))  # centers 0, 1
        a = line_measure(scheme, [1.0, 0.0])
        b = line_measure(scheme, [0.0, 1.0])
        for p in (1.0, 1.5, 2.0, 4.0):
            assert wasserstein_1d(a, b, p) == pytest.approx(1.0)

    def test_half_half_to_point(self):
        two = BinningScheme((FeatureSpec.continuous("x", -0.5, 1.5, 2),))
        one = BinningScheme((FeatureSpec.continuous("x", -0.5, 0.5, 1),))
        ab = line_measure(two, [0.5, 0.5])
        point = line_measure(one, [1.0])
        assert wasserstein_1d(ab, point, 1.0) == pytest.approx(0.5)

    def test_p_below_one_rejected(self):
        m = line_measure(line_scheme(2), [0.5, 0.5])
        with pytest.raises(ParameterError):
            wasserstein_1d(m, m, 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p_rejected(self, p):
        # p = nan returned nan, and p = inf returned 1.0 here, where W1 is 5
        a = line_measure(line_scheme(8), [0.5, 0.5, 0, 0, 0, 0, 0, 0])
        b = line_measure(line_scheme(8), [0, 0, 0, 0, 0.5, 0, 0, 0.5])
        assert wasserstein_1d(a, b, 1.0) == pytest.approx(5.0)
        with pytest.raises(ParameterError):
            wasserstein_1d(a, b, p)
        with pytest.raises(ParameterError):
            wasserstein_nd(a, b, p)

    def test_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            bins_a = int(rng.integers(2, 33))
            bins_b = int(rng.integers(2, 33))
            sa, sb = line_scheme(bins_a), line_scheme(bins_b)
            a = line_measure(sa, random_simplex(rng, bins_a))
            b = line_measure(sb, random_simplex(rng, bins_b))
            p = float(rng.choice([1.0, 2.0]))
            xa = np.asarray(sa.features[0].centers())
            xb = np.asarray(sb.features[0].centers())
            cost = np.abs(xa[:, None] - xb[None, :]) ** p
            wa, wb = np.zeros(bins_a), np.zeros(bins_b)
            wa[a.flats], wb[b.flats] = a.values, b.values
            lp = kantorovich_lp(wa, wb, cost)
            assert wasserstein_1d(a, b, p) == pytest.approx(lp.cost ** (1 / p), abs=1e-8)


class TestKantorovichLp:
    def test_identity_coupling(self):
        plan = kantorovich_lp([0.5, 0.5], [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert plan.cost == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(plan.coupling, np.diag([0.5, 0.5]))

    def test_forced_cross_move(self):
        plan = kantorovich_lp([1.0, 0.0], [0.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert plan.cost == pytest.approx(1.0)

    def test_uniform_matches_assignment_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            c = random_metric_cost(rng, n, n)
            plan = kantorovich_lp(np.full(n, 1 / n), np.full(n, 1 / n), c)
            assert plan.cost == pytest.approx(permutation_assignment_cost(c), abs=1e-9)

    def test_marginals_and_duals(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            a, b = random_simplex(rng, n), random_simplex(rng, m)
            c = random_metric_cost(rng, n, m)
            plan = kantorovich_lp(a, b, c)
            assert plan.marginal_residual <= 1e-9
            assert np.allclose(plan.coupling.sum(axis=1), a, atol=1e-9)
            assert np.allclose(plan.coupling.sum(axis=0), b, atol=1e-9)
            # dual feasibility and complementary slackness on the support
            slack = c - plan.row_potentials[:, None] - plan.col_potentials[None, :]
            assert slack.min() >= -1e-7
            assert np.abs(plan.coupling * slack).max() <= 1e-7
            # duality: potentials price the marginals to the primal cost
            dual_value = plan.row_potentials @ a + plan.col_potentials @ b
            assert dual_value == pytest.approx(plan.cost, abs=1e-8)

    def test_zero_mass_atoms_pruned_and_reinserted(self):
        a = np.array([0.5, 0.0, 0.5])
        b = np.array([0.0, 1.0])
        c = np.ones((3, 2))
        plan = kantorovich_lp(a, b, c)
        assert plan.coupling.shape == (3, 2)
        assert np.all(plan.coupling[1, :] == 0) and np.all(plan.coupling[:, 0] == 0)
        assert plan.cost == pytest.approx(1.0)

    def test_cost_matches_plan_contraction(self):
        rng = np.random.default_rng(53)
        c = random_metric_cost(rng, 5, 5)
        a, b = random_simplex(rng, 5), random_simplex(rng, 5)
        plan = kantorovich_lp(a, b, c)
        assert plan.cost == pytest.approx(float((c * plan.coupling).sum()),
                                          abs=1e-12 * float(c.sum()))

    def test_bad_marginals_rejected(self):
        c = np.zeros((2, 2))
        with pytest.raises(ParameterError):
            kantorovich_lp([0.6, 0.6], [0.5, 0.5], c)
        with pytest.raises(ParameterError):
            kantorovich_lp([0.5, 0.5], [0.5, 0.5], np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(ParameterError):
            kantorovich_lp([0.5, 0.5], [1.0], c)


class TestSinkhorn:
    def test_near_identity_at_moderate_reg(self):
        c = 1.0 - np.eye(3)
        u = np.full(3, 1 / 3)
        plan = sinkhorn(u, u, c, reg=0.1)
        assert plan.cost <= 0.1 * math.log(3) + 1e-6
        assert plan.marginal_residual <= 1e-9

    def test_close_to_lp_at_small_reg(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            c = random_metric_cost(rng, n, n)
            a, b = random_simplex(rng, n), random_simplex(rng, n)
            lp = kantorovich_lp(a, b, c)
            sk = sinkhorn(a, b, c, reg=0.001 * float(c.max()))
            assert sk.cost >= lp.cost - 1e-9  # feasible side
            assert sk.cost - lp.cost <= 0.05 * max(lp.cost, 1e-12)

    def test_gap_non_increasing_as_reg_decreases(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            c = random_metric_cost(rng, n, n)
            a, b = random_simplex(rng, n), random_simplex(rng, n)
            lp_cost = kantorovich_lp(a, b, c).cost
            gaps = [sinkhorn(a, b, c, reg=f * float(c.max())).cost - lp_cost
                    for f in (1.0, 0.1, 0.01, 0.001)]
            for earlier, later in zip(gaps, gaps[1:]):
                assert later <= earlier + 1e-9

    def test_non_convergence_carries_residual(self):
        rng = np.random.default_rng(67)
        c = random_metric_cost(rng, 4, 4)
        a, b = random_simplex(rng, 4), random_simplex(rng, 4)
        with pytest.raises(ConvergenceError) as err:
            sinkhorn(a, b, c, reg=0.001 * float(c.max()), max_iter=2, tol=1e-14)
        assert err.value.residual is not None and err.value.residual > 1e-14

    def test_fixed_point_stops_before_max_iter(self):
        # far below the cost scale the potentials stop moving, and the final
        # stage gives up there instead of running out all max_iter iterations
        rng = np.random.default_rng(67)
        c = random_metric_cost(rng, 4, 4)
        a, b = random_simplex(rng, 4), random_simplex(rng, 4)
        with pytest.raises(ConvergenceError, match=r"after \d+ iterations") as err:
            sinkhorn(a, b, c, reg=1e-12 * float(c.max()), max_iter=50_000)
        assert int(re.search(r"after (\d+) iterations", str(err.value))[1]) < 50_000
        assert err.value.residual > 1e-9

    def test_rejects_bad_reg(self):
        c = np.zeros((2, 2))
        with pytest.raises(ParameterError):
            sinkhorn([0.5, 0.5], [0.5, 0.5], c, reg=0.0)


class TestWassersteinNd:
    def grid(self):
        return BinningScheme((FeatureSpec.continuous("x", -0.5, 1.5, 2),
                              FeatureSpec.continuous("y", -0.5, 1.5, 2)))

    def test_identity(self):
        m = ProbabilityHistogram(self.grid(), {(0, 0): 0.5, (1, 1): 0.5})
        assert wasserstein_nd(m, m, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_unit_move(self):
        g = self.grid()
        a = ProbabilityHistogram(g, {(0, 0): 1.0})
        b = ProbabilityHistogram(g, {(1, 1): 1.0})
        assert wasserstein_nd(a, b, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_1d_input_matches_dedicated_solver(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            bins = int(rng.integers(2, 20))
            scheme = line_scheme(bins)
            a = line_measure(scheme, random_simplex(rng, bins))
            b = line_measure(scheme, random_simplex(rng, bins))
            p = float(rng.choice([1.0, 2.0]))
            assert wasserstein_nd(a, b, p) == pytest.approx(
                wasserstein_1d(a, b, p), abs=1e-8)

    def test_metric_axioms_on_small_instances(self):
        rng = np.random.default_rng(73)
        scheme = BinningScheme((FeatureSpec.continuous("x", 0, 4, 4),
                                FeatureSpec.continuous("y", 0, 2, 2)))

        def rand_measure():
            k = int(rng.integers(1, 9))
            flats = rng.choice(scheme.total_bins, size=k, replace=False)
            w = random_simplex(rng, k)
            return ProbabilityHistogram(
                scheme, {scheme.unflatten(int(f)): float(v) for f, v in zip(flats, w)})

        for p in (1.0, 2.0):
            for _ in range(15):
                a, b, c = rand_measure(), rand_measure(), rand_measure()
                dab = wasserstein_nd(a, b, p)
                assert wasserstein_nd(a, a, p) <= 1e-9
                assert dab == pytest.approx(wasserstein_nd(b, a, p), abs=1e-9)
                assert wasserstein_nd(a, c, p) <= dab + wasserstein_nd(b, c, p) + 1e-9

    def test_support_size_guard(self):
        g = self.grid()
        a = ProbabilityHistogram(g, {(0, 0): 0.5, (1, 1): 0.5})
        with mock.patch.object(transport, "_MAX_EXACT_ENTRIES", 1):
            with pytest.raises(SupportSizeError, match="entropic"):
                wasserstein_nd(a, a, 2.0, method="exact")

    def test_entropic_route_close_on_tight_grid(self):
        g = self.grid()
        a = ProbabilityHistogram(g, {(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
        b = ProbabilityHistogram(g, {(1, 1): 0.5, (0, 1): 0.25, (1, 0): 0.25})
        exact = wasserstein_nd(a, b, 2.0, method="exact")
        approx = wasserstein_nd(a, b, 2.0, method="entropic", reg_factor=0.001)
        assert approx == pytest.approx(exact, rel=0.05)

    def test_scheme_mismatch(self):
        a = ProbabilityHistogram(self.grid(), {(0, 0): 1.0})
        other = BinningScheme((FeatureSpec.continuous("x", 0, 1, 2),
                               FeatureSpec.continuous("y", 0, 1, 2)))
        b = ProbabilityHistogram(other, {(0, 0): 1.0})
        with pytest.raises(AlignmentError):
            wasserstein_nd(a, b, 2.0)

    def test_unknown_method(self):
        m = ProbabilityHistogram(self.grid(), {(0, 0): 1.0})
        with pytest.raises(ParameterError):
            wasserstein_nd(m, m, 2.0, method="magic")

    def test_with_plan_returns_certified_coupling(self):
        g = self.grid()
        a = ProbabilityHistogram(g, {(0, 0): 0.5, (1, 1): 0.5})
        b = ProbabilityHistogram(g, {(0, 1): 0.5, (1, 0): 0.5})
        distance, plan = wasserstein_nd(a, b, 2.0, with_plan=True)
        assert distance == pytest.approx(plan.cost ** 0.5)
        assert plan.marginal_residual <= 1e-9
        assert plan.coupling.shape == (2, 2)

    def test_p2_takes_the_flow_route(self):
        scheme = BinningScheme((FeatureSpec.continuous("x", 0, 4, 4),
                                FeatureSpec.categorical("c", ["a", "b", "c", "d"])))
        full = ProbabilityHistogram.from_flats(scheme, np.arange(16), np.full(16, 1 / 16))
        atom = ProbabilityHistogram(scheme, {(3, 1): 1.0})
        with mock.patch.object(transport, "kantorovich_lp",
                               wraps=transport.kantorovich_lp) as dense:
            assert wasserstein_nd(full, full, 2.0) == pytest.approx(0.0, abs=1e-9)
            assert wasserstein_nd(atom, full, 2.0) > 0
            assert dense.call_count == 0
            wasserstein_nd(full, full, 1.0)  # p != 2
            assert dense.call_count == 1


class TestW2Bracket:
    def grid(self, n0=2, n1=2):
        return BinningScheme((FeatureSpec.continuous("x", -0.5, n0 - 0.5, n0),
                              FeatureSpec.continuous("y", -0.5, n1 - 0.5, n1)))

    def test_point_masses_are_exact(self):
        scheme = self.grid()
        a = ProbabilityHistogram(scheme, {(0, 0): 1.0})
        b = ProbabilityHistogram(scheme, {(1, 1): 1.0})
        assert w2_bracket(a, b) == (2.0, 2.0)

    def test_equal_marginals_leave_a_gap(self):
        # the marginals agree, so the lower bound is 0; each atom must move
        # by 1 along one axis, which the Knothe-Rosenblatt coupling does
        scheme = self.grid()
        a = ProbabilityHistogram(scheme, {(0, 0): 0.5, (1, 1): 0.5})
        b = ProbabilityHistogram(scheme, {(0, 1): 0.5, (1, 0): 0.5})
        assert w2_bracket(a, b) == (0.0, pytest.approx(1.0))
        assert wasserstein_nd(a, b, 2.0) ** 2 == pytest.approx(1.0)

    def test_one_feature_matches_the_quantile_route(self):
        scheme = line_scheme(6)
        a = line_measure(scheme, [0.1, 0.0, 0.3, 0.2, 0.0, 0.4])
        b = line_measure(scheme, [0.0, 0.5, 0.0, 0.0, 0.25, 0.25])
        lower, upper = w2_bracket(a, b)
        assert lower == pytest.approx(wasserstein_1d(a, b, 2.0) ** 2, rel=1e-12)
        assert upper == pytest.approx(lower, rel=1e-12)

    def test_rejects_mismatched_or_empty_input(self):
        a = ProbabilityHistogram(self.grid(), {(0, 0): 1.0})
        with pytest.raises(AlignmentError):
            w2_bracket(a, ProbabilityHistogram(self.grid(3, 2), {(0, 0): 1.0}))
        with pytest.raises(ParameterError, match="non-empty support"):
            w2_bracket(a, ProbabilityHistogram(self.grid(), {(0, 1): 0.0}))

    def test_criterion_9_shaped_data_warns_of_nothing(self):
        # Stored zero-mass bins must never be paired: a coupling built from
        # cumulative sums over them divides by a zero conditional mass.
        scheme = BinningScheme((FeatureSpec.continuous("score", 0.0, 10.0, 20),
                                FeatureSpec.continuous("age", 18.0, 80.0, 25)))
        rows = synthetic_two_group(20_000, seed=987_654_321)
        group = flat_bin_ids([r for r in rows if r["SEX"] == "Female"], scheme)[0]
        reference = measure_from_flats(flat_bin_ids(rows, scheme)[0], scheme)
        rng = np.random.default_rng(20250401)
        measures = [measure_from_flats(group, scheme)] + [
            measure_from_flats(group[rng.permutation(group.size)[:size]], scheme)
            for size in (50, 100, 200, 400) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in measures:
                dense = np.zeros(scheme.total_bins)
                dense[measure.flats] = measure.values
                stored = ProbabilityHistogram.from_flats(scheme, np.arange(dense.size), dense)
                bracket = w2_bracket(measure, reference)
                assert w2_bracket(stored, reference) == bracket
                assert all(map(math.isfinite, bracket)) and bracket[0] <= bracket[1]
