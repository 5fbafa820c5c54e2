"""Discrete optimal-transport distances used as comparison baselines.

Four routes are provided.  On the line, the p-Wasserstein distance between
atomic measures is evaluated in closed form by merging the two quantile
functions and integrating segment by segment.  The two exact routes off
the line are min-cost flows through one core, `_certified_flow`, which
solves the flow LP over the node-arc incidence matrix with HiGHS and
certifies the optimum through complementary slackness on the node
potentials.  For general discrete marginals the flow is the complete
bipartite transportation LP.  Between histograms on a product grid at
p = 2, the ground cost sum_k (x_k - y_k)^2 is separable, and the flow runs
on a (d+1)-partite graph whose arcs change one coordinate each (Auricchio,
Bassetti, Gualandi & Veneroni, NeurIPS 2018): roughly |supp| * sum_k n_k
arcs instead of |supp a| * |supp b| dense variables, with no dense cost
matrix.  An entropic-regularized approximation runs log-domain scaling
iterations with a stepped regularization schedule, so small
regularizations neither overflow nor stall.  The transportation LP and the
scaling solver share `_on_support`, which validates the marginals and the
cost and prunes and reinstates zero-mass atoms.  Without any solve,
`w2_bracket` bounds W2^2 between two grid histograms from below by the
per-feature quantile integrals and from above by a Knothe-Rosenblatt
coupling, which is enough to decide most threshold comparisons.

Solvers are single-threaded per instance; separate instances may run
concurrently on immutable inputs, and HiGHS releases the GIL while it
solves.

scipy is imported on the first exact solve, not with this module: its
import is more than half of a fresh CLI process's start-up time, and only
the exact routes use it, so every command that solves no exact transport
problem starts without it.  `linprog` is a module-level forwarder to `scipy.optimize.linprog`
rather than an import inside `_solve_highs`, so that it stays an attribute
of this module that a test can patch to tamper with the duals.  Concurrent
first imports are safe under Python's import lock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (AlignmentError, ConvergenceError, ParameterError,
                     SupportSizeError)
from .histogram import BinningScheme, ProbabilityHistogram

if TYPE_CHECKING:
    from scipy import sparse

_MARGINAL_TOL = 1e-9
_CERT_TOL = 1e-7
# largest support product |supp a| * |supp b| an exact solve accepts
_MAX_EXACT_ENTRIES = 4_000_000


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Coupling with prescribed marginals, its cost, and solve diagnostics."""

    coupling: np.ndarray
    cost: float
    marginal_residual: float
    row_potentials: np.ndarray | None = None
    col_potentials: np.ndarray | None = None
    iterations: int | None = None


def _as_marginal(vec, label: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{label} must be a non-empty vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < -1e-12):
        raise ParameterError(f"{label} must be finite and non-negative")
    if abs(arr.sum() - 1.0) > _MARGINAL_TOL:
        raise ParameterError(f"{label} must sum to 1 within {_MARGINAL_TOL}")
    return np.clip(arr, 0.0, None)


def _as_cost(cost, n: int, m: int) -> np.ndarray:
    c = np.asarray(cost, dtype=float)
    if c.shape != (n, m):
        raise ParameterError(f"cost matrix shape {c.shape} does not match marginals ({n}, {m})")
    if not np.all(np.isfinite(c)):
        raise ParameterError("cost matrix entries must be finite")
    return c


def _marginal_residual(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    row_dev = float(np.abs(plan.sum(axis=1) - a).max(initial=0.0))
    col_dev = float(np.abs(plan.sum(axis=0) - b).max(initial=0.0))
    return max(row_dev, col_dev)


def kantorovich_lp(a, b, cost) -> TransportPlan:
    """Solve the balanced transportation LP to optimality.

    Returns a basic optimal coupling whose row sums match `a` and column sums
    match `b` within 1e-9.  Zero-mass atoms are pruned before the solve and
    reinstated as zero rows/columns (their potentials are reported as zero).
    The LP is the complete bipartite case of `_certified_flow`, so the
    optimum is certified: the recovered dual potentials must satisfy
    u_i + v_j <= c_ij everywhere, with equality wherever the plan is positive.
    """
    plan = _on_support(a, b, cost, _dense_flow)
    if plan.marginal_residual > _MARGINAL_TOL:
        raise ConvergenceError(f"plan marginals off by {plan.marginal_residual:.3e}",
                               residual=plan.marginal_residual)
    return plan


def _dense_flow(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    # arc i -> n + j carries x_ij, in row-major order
    n, m = cost.shape
    tail, head = np.divmod(np.arange(n * m), m)
    flow, potentials, _ = _certified_flow(tail, n + head, cost.reshape(-1), a, b, n + m)
    return flow.reshape(n, m), potentials[:n], potentials[n:], None


def _on_support(a, b, cost, solve) -> TransportPlan:
    """Validate the marginals and the cost, run `solve` on the atoms that
    carry mass, and reinstate the others as zero rows, columns and potentials.

    `solve(a, b, cost)` returns the coupling, the row and column potentials
    and the iteration count (None when it does not iterate).
    """
    a = _as_marginal(a, "first marginal")
    b = _as_marginal(b, "second marginal")
    c = _as_cost(cost, a.size, b.size)
    rows, cols = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    coupling, u_r, v_r, iterations = solve(a[rows], b[cols], c[np.ix_(rows, cols)])
    plan = np.zeros((a.size, b.size))
    plan[np.ix_(rows, cols)] = coupling
    u, v = np.zeros(a.size), np.zeros(b.size)
    u[rows], v[cols] = u_r, v_r
    return TransportPlan(coupling=plan, cost=float((c * plan).sum()),
                         marginal_residual=_marginal_residual(plan, a, b),
                         row_potentials=u, col_potentials=v, iterations=iterations)


def _certified_flow(tail: np.ndarray, head: np.ndarray, cost: np.ndarray, a: np.ndarray,
                    b: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Certified min-cost flow from supplies `a` to demands `b`.

    The first a.size of the `nodes` nodes are the sources and the last
    b.size the sinks; arc k runs from tail[k] to head[k] at cost[k].  HiGHS
    solves the flow LP over the node-arc incidence matrix, and the optimum
    is certified from the node potentials: every arc's reduced cost is
    non-negative, and zero where the flow is positive.  Returns the flow,
    the node potentials and the largest node-balance residual.
    """
    from scipy import sparse

    arcs = np.arange(cost.size)
    # source rows count outflow; transit and sink rows count inflow - outflow
    sign = np.where(tail < a.size, 1.0, -1.0)
    incidence = sparse.csr_matrix((np.concatenate([sign, np.ones(cost.size)]),
                                   (np.concatenate([tail, head]), np.concatenate([arcs, arcs]))),
                                  shape=(nodes, cost.size))
    balance = np.zeros(nodes)
    balance[:a.size] = a
    balance[nodes - b.size:] = b
    flow, potentials = _solve_highs(cost, incidence, balance)
    _certify(flow, cost, cost - incidence.T @ potentials)
    return flow, potentials, float(np.abs(incidence @ flow - balance).max())


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _solve_highs(cost: np.ndarray, a_eq: sparse.csr_matrix,
                 b_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal x >= 0 of min cost.x s.t. a_eq x = b_eq, and the equality duals."""
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    if not result.success:
        raise ConvergenceError(f"transportation solve failed: {result.message}")
    return result.x, np.asarray(result.eqlin.marginals, dtype=float)


def _certify(flow: np.ndarray, cost: np.ndarray, slack: np.ndarray) -> None:
    """Optimality from the duals: every reduced cost `slack` is non-negative,
    and zero wherever the flow is positive."""
    scale = max(1.0, float(np.abs(cost).max(initial=0.0)))
    if float(slack.min(initial=0.0)) < -_CERT_TOL * scale:
        raise ConvergenceError("dual potentials violate feasibility; optimum not certified")
    if float(np.abs(flow * slack).max(initial=0.0)) > _CERT_TOL * scale:
        raise ConvergenceError("complementary slackness failed; optimum not certified")


def sinkhorn(a, b, cost, reg: float, max_iter: int = 50_000, tol: float = 1e-9) -> TransportPlan:
    """Entropic-regularized coupling via log-domain scaling iterations.

    The regularization steps down geometrically from the cost scale to `reg`,
    each stage warm-starting the next, and a periodic line-search jump along
    the current update direction breaks the crawl that plain alternating
    updates suffer when `reg` sits far below the cost scale.  Convergence is
    judged on the scaling iterates; the converged coupling is then rounded
    onto the marginal polytope, so the returned plan is feasible-side and its
    cost upper-bounds the LP optimum, approaching it from above as `reg`
    shrinks (a crude gap heuristic is reg * log(n * m)).  Zero-mass atoms are
    pruned and reinstated as zero rows/columns.

    Raises ConvergenceError (carrying the last scaling residual) when that
    residual is still above `tol` after `max_iter` total iterations, or as
    soon as an iteration of the final stage leaves the potentials unchanged:
    from such a fixed point neither the iterations nor the jumps ever move
    them or the residual again.
    """
    return _on_support(a, b, cost, lambda ar, br, cr: _scale(ar, br, cr, reg, max_iter, tol))


def _scale(a, b, cost, reg, max_iter, tol):
    """`sinkhorn` on marginals without zero-mass atoms."""
    if not 0 < reg < math.inf:
        raise ParameterError("regularization must be finite and positive")
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros(a.size), np.zeros(b.size)

    schedule = _reg_schedule(float(cost.max(initial=0.0)), reg)
    iterations = 0
    residual = math.inf
    plan = np.outer(a, b)
    for stage, r in enumerate(schedule):
        final = stage == len(schedule) - 1
        stage_tol = tol if final else max(tol, 1e-3)
        stage_cap = max_iter if final else min(max_iter, iterations + 500)
        while iterations < stage_cap:
            f_new = r * (log_a - _logsumexp((g[None, :] - cost) / r, axis=1))
            g_new = r * (log_b - _logsumexp((f_new[:, None] - cost) / r, axis=0))
            step_f, step_g = f_new - f, g_new - g
            f, g = f_new, g_new
            iterations += 1
            plan = np.exp((f[:, None] + g[None, :] - cost) / r)
            residual = _marginal_residual(plan, a, b)
            if residual <= stage_tol:
                break
            if final and not (step_f.any() or step_g.any()):
                break
            if iterations % 20 == 0:
                f, g = _extrapolate(f, g, step_f, step_g, cost, a, b, r)
    if residual > tol:
        raise ConvergenceError(
            f"scaling iterations stalled at residual {residual:.3e} after {iterations} iterations",
            residual=residual)
    return _round_to_feasible(plan, a, b), f, g, iterations


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along `axis`, shifted by the largest term, or by 0
    where that is not finite, as `scipy.special.logsumexp` does."""
    top = x.max(axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def _dual_objective(f: np.ndarray, g: np.ndarray, cost: np.ndarray,
                    a: np.ndarray, b: np.ndarray, reg: float) -> float:
    with np.errstate(over="ignore"):
        mass = np.exp((f[:, None] + g[None, :] - cost) / reg).sum()
    return float(f @ a + g @ b - reg * mass)


def _extrapolate(f, g, step_f, step_g, cost, a, b, reg):
    """Jump along the current update direction while the dual improves.

    When the regularization is far below the cost scale the alternating
    updates walk a nearly straight canyon with tiny constant steps; a
    doubling line search on the dual objective covers the remaining distance
    in a few evaluations.  Jumps that do not improve the dual are discarded,
    so the ascent stays monotone.
    """
    best = _dual_objective(f, g, cost, a, b, reg)
    scale = 2.0
    while scale <= 2 ** 24:
        cand_f = f + scale * step_f
        cand_g = g + scale * step_g
        value = _dual_objective(cand_f, cand_g, cost, a, b, reg)
        if not value > best:
            break
        f, g, best = cand_f, cand_g, value
        scale *= 2
    return f, g


def _round_to_feasible(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Project an almost-scaled coupling onto the marginal polytope.

    Rows and columns are scaled down to their targets, then the leftover mass
    is patched in with a rank-one correction; the result has exact marginals
    and differs in cost by at most the leftover mass times the largest cost.
    """
    row = plan.sum(axis=1)
    scale_r = np.minimum(np.divide(a, row, out=np.ones_like(a), where=row > 0), 1.0)
    plan = plan * scale_r[:, None]
    col = plan.sum(axis=0)
    scale_c = np.minimum(np.divide(b, col, out=np.ones_like(b), where=col > 0), 1.0)
    plan = plan * scale_c[None, :]
    missing_row = np.clip(a - plan.sum(axis=1), 0.0, None)
    missing_col = np.clip(b - plan.sum(axis=0), 0.0, None)
    total = missing_row.sum()
    if total > 0:
        plan = plan + np.outer(missing_row, missing_col) / total
    return plan


def _reg_schedule(cost_scale: float, reg: float) -> list[float]:
    if cost_scale <= reg:
        return [reg]
    steps = [reg]
    r = reg
    while r * 4 < cost_scale:
        r *= 4
        steps.append(r)
    return list(reversed(steps))


def wasserstein_1d(a: ProbabilityHistogram, b: ProbabilityHistogram, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance between two one-feature histograms.

    Works on the quantile functions directly: the two CDFs are merged into
    common quantile segments, on each of which both quantiles are constant,
    so the integral of |F_a^{-1} - F_b^{-1}|^p reduces to a finite sum.  Exact
    for atomic measures; the histograms may use different one-feature schemes.
    """
    if not 1 <= p < math.inf:
        raise ParameterError("order p must be finite and at least 1")
    xa, wa = _line_support(a)
    xb, wb = _line_support(b)
    return float(_quantile_cost(xa, wa, xb, wb, p) ** (1.0 / p))


def _quantile_cost(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray, wb: np.ndarray,
                   p: float) -> np.float64:
    """W_p^p between atoms xa (sorted, positive masses wa) and xb (wb) on the line.

    Each CDF is normalised to end at exactly 1; the union of their levels
    cuts (0, 1] into segments on which both quantile functions are constant.
    """
    ca = np.cumsum(wa)
    ca /= ca[-1]
    cb = np.cumsum(wb)
    cb /= cb[-1]
    levels = np.union1d(ca, cb)
    lower = np.concatenate([[0.0], levels[:-1]])
    ia = np.searchsorted(ca, lower, side="right")
    ib = np.searchsorted(cb, lower, side="right")
    segments = np.abs(xa[ia] - xb[ib]) ** p
    return ((levels - lower) * segments).sum()


def _line_support(hist: ProbabilityHistogram) -> tuple[np.ndarray, np.ndarray]:
    if hist.scheme.n_features != 1:
        raise ParameterError("expected a one-feature histogram")
    if abs(hist.total_mass() - 1.0) > _MARGINAL_TOL:
        raise ParameterError("expected a probability histogram (masses summing to 1)")
    flats, masses = _support(hist)
    return _points(hist.scheme, flats)[:, 0], masses


def _support(hist: ProbabilityHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Flat ids and masses of the occupied bins, in flat-id order."""
    occupied = hist.values > 0
    return hist.flats[occupied], hist.values[occupied]


def _points(scheme: BinningScheme, flats: np.ndarray) -> np.ndarray:
    """Bin-center coordinates: one row per flat id, one column per feature."""
    axes = np.unravel_index(flats, scheme.shape)
    return np.column_stack([np.asarray(f.centers())[axis]
                            for f, axis in zip(scheme.features, axes)])


def w2_bracket(a: ProbabilityHistogram, b: ProbabilityHistogram) -> tuple[float, float]:
    """Bounds (lower, upper) on W2^2 between histograms on a shared scheme.

    The squared-Euclidean cost is separable, so any coupling pays at least
    the sum over features of the 1-D W2^2 between the two marginals (the
    axis-aligned sliced bound of Rabin, Peyre, Delon & Bernot 2011), and
    the optimum pays at most what the Knothe-Rosenblatt coupling pays: the
    quantile coupling of the first feature, then recursively, for each
    matched pair of first coordinates, the quantile couplings of the two
    conditionals (Villani 2008, ch. 1).  The upper bound is the cheaper of
    the natural and the reversed feature order.  Both work on the occupied
    bins alone, never on the grid.  They hold up to rounding, so a caller
    comparing them to a threshold leaves a relative margin, and one
    comparing them to solved distances also the solver's tolerance.
    """
    if a.scheme != b.scheme:
        raise AlignmentError("histograms use different binning schemes")
    (flats_a, wa), (flats_b, wb) = _support(a), _support(b)
    if not wa.size or not wb.size:
        raise ParameterError("both histograms need non-empty support")
    shape = a.scheme.shape
    centers = [np.asarray(f.centers()) for f in a.scheme.features]
    axes_a, axes_b = np.unravel_index(flats_a, shape), np.unravel_index(flats_b, shape)

    lower = 0.0
    for k, x in enumerate(centers):
        ma = np.bincount(axes_a[k], weights=wa, minlength=x.size)
        mb = np.bincount(axes_b[k], weights=wb, minlength=x.size)
        on_a, on_b = np.flatnonzero(ma > 0), np.flatnonzero(mb > 0)
        lower += float(_quantile_cost(x[on_a], ma[on_a], x[on_b], mb[on_b], 2.0))

    upper = _knothe_rosenblatt(_prefix_tree(axes_a, wa), _prefix_tree(axes_b, wb), centers)
    if len(shape) > 1:
        # lexsort's last key is the primary one: rows sorted by the last
        # feature first, i.e. in the reversed feature order
        ra, rb = np.lexsort(axes_a), np.lexsort(axes_b)
        upper = min(upper, _knothe_rosenblatt(
            _prefix_tree([x[ra] for x in reversed(axes_a)], wa[ra]),
            _prefix_tree([x[rb] for x in reversed(axes_b)], wb[rb]), centers[::-1]))
    return lower, upper


def _prefix_tree(axes, masses: np.ndarray) -> tuple[list, list, list, list]:
    """The prefixes of a measure's atoms, level by level: (first, count, share, coord).

    The atoms come sorted lexicographically by their coordinates `axes`.
    Level k lists the distinct length-(k+1) prefixes: the coordinate k of
    each (`coord[k]`), and its cumulative share of its length-k parent's
    mass (`share[k]`), which runs up to exactly 1 within each parent.  The
    children of length-k prefix i are the prefixes first[k][i] ..
    first[k][i] + count[k][i] - 1.
    """
    tree = ([], [], [], [])
    starts = np.zeros(1, dtype=np.intp)  # atom where each prefix begins
    boundary = np.zeros(masses.size, dtype=bool)
    boundary[0] = True
    for x in axes:
        boundary[1:] |= x[1:] != x[:-1]
        child = np.flatnonzero(boundary)
        first = np.searchsorted(child, starts)
        count = np.diff(np.append(first, child.size))
        cum = np.cumsum(np.add.reduceat(masses, child))
        parent = np.repeat(np.arange(starts.size), count)
        share = cum - np.concatenate([[0.0], cum])[first][parent]
        share /= share[first + count - 1][parent]
        for level, part in zip(tree, (first, count, share, x[child])):
            level.append(part)
        starts = child
    return tree


def _knothe_rosenblatt(tree_a, tree_b, centers) -> float:
    """Squared-Euclidean cost of the Knothe-Rosenblatt coupling.

    A node pairs a prefix of a with a prefix of b and carries mass m.  On
    feature k each node's two conditionals are coupled by quantiles: the
    merged cumulative shares cut (0, 1] into segments, and the segment
    (lower, level] pairs the first child on each side whose share reaches
    `level`, with mass m * (level - lower).  Those pairs are the nodes of
    feature k + 1; pairs whose mass rounds to zero are dropped.
    """
    first_a, count_a, share_a, coord_a = tree_a
    first_b, count_b, share_b, coord_b = tree_b
    node_a = node_b = np.zeros(1, dtype=np.intp)
    mass = np.ones(1)
    cost = 0.0
    for k, x in enumerate(centers):
        child_a, of_a = _children(first_a[k][node_a], count_a[k][node_a])
        child_b, of_b = _children(first_b[k][node_b], count_b[k][node_b])
        node = np.concatenate([of_a, of_b])
        level = np.concatenate([share_a[k][child_a], share_b[k][child_b]])
        on_b = np.repeat([False, True], [child_a.size, child_b.size])
        child = np.concatenate([child_a, child_b])
        order = np.lexsort((on_b, level, node))
        node, level, on_b, child = node[order], level[order], on_b[order], child[order]
        head = np.flatnonzero(np.concatenate(
            [[True], (node[1:] != node[:-1]) | (level[1:] != level[:-1])]))
        # every node has an entry at share 1 on each side, so the next entry
        # of a side at or after a segment's head lies in the same node
        at_a, at_b = np.flatnonzero(~on_b), np.flatnonzero(on_b)
        node_a = child[at_a[np.searchsorted(at_a, head)]]
        node_b = child[at_b[np.searchsorted(at_b, head)]]
        top, owner = level[head], node[head]
        bottom = np.concatenate([[0.0], top[:-1]])
        bottom[np.concatenate([[True], owner[1:] != owner[:-1]])] = 0.0
        mass = mass[owner] * (top - bottom)
        cost += float(mass @ (x[coord_a[k][node_a]] - x[coord_b[k][node_b]]) ** 2)
        kept = mass > 0
        node_a, node_b, mass = node_a[kept], node_b[kept], mass[kept]
    return cost


def _children(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges first[j] .. first[j] + count[j] - 1 laid end to end, and the j of each."""
    owner = np.repeat(np.arange(count.size), count)
    offset = np.cumsum(count) - count
    return first[owner] + np.arange(owner.size) - offset[owner], owner


class _GridLayers:
    """Node sets of the pruned (d+1)-partite graph between two supports.

    Layer k holds the grid points whose first k coordinates appear among
    b's support points and whose remaining coordinates appear among a's: the
    product of b's length-k prefixes and a's suffixes from feature k on, each
    kept as a sorted array of row-major keys.  Layer 0 is a's support and
    layer d is b's.  Every point on a shortest coordinate-by-coordinate path
    from an atom of a to an atom of b lies in these layers, so pruning the
    full grid down to them loses no path.
    """

    def __init__(self, scheme: BinningScheme, flats_a: np.ndarray, flats_b: np.ndarray):
        shape = scheme.shape
        self.scheme = scheme
        # strides[k]: grid points per length-k prefix, i.e. the key space of
        # suffixes from feature k on
        self.strides = [math.prod(shape[k:]) for k in range(len(shape) + 1)]
        self.prefixes = [np.unique(flats_b // t) for t in self.strides]
        self.suffixes = [np.unique(flats_a % t) for t in self.strides]
        self.sizes = [p.size * s.size for p, s in zip(self.prefixes, self.suffixes)]
        self.offsets = np.cumsum([0] + self.sizes)

    def stage(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tail node, head node and cost of every arc from layer k to k + 1.

        The arc from (p, x_k, s) to (p, y_k, s) changes coordinate k alone and
        costs the squared gap between the two bin centers.
        """
        radix, stride = self.scheme.shape[k], self.strides[k + 1]
        prefix, suffix = self.prefixes[k + 1], self.suffixes[k]
        parent = np.searchsorted(self.prefixes[k], prefix // radix)
        child = np.searchsorted(self.suffixes[k + 1], suffix % stride)
        centers = np.asarray(self.scheme.features[k].centers())
        step = centers[suffix // stride][None, :] - centers[prefix % radix][:, None]
        tail = self.offsets[k] + parent[:, None] * suffix.size + np.arange(suffix.size)
        head = (self.offsets[k + 1] + np.arange(prefix.size)[:, None] * self.suffixes[k + 1].size
                + child[None, :])
        return tail.ravel(), head.ravel(), (step ** 2).ravel()


def _grid_w2(layers: _GridLayers, a: np.ndarray, b: np.ndarray,
             with_plan: bool) -> TransportPlan:
    """Squared-Euclidean transport between two supports as a layered min-cost flow.

    The cost sum_k (x_k - y_k)^2 is separable, so moving mass from x to y
    along the path that changes one coordinate per layer costs exactly the
    ground cost, and that path is the only one between them.  The flow LP
    over the layers therefore has the optimum of the dense transportation
    LP with far fewer variables, and `_certified_flow` certifies it from the
    node potentials.  The coupling (with_plan=True) is recovered by
    splitting each node's throughput over its outgoing arcs in proportion;
    it costs what the flow costs.  Without with_plan the coupling is None.
    Layer 0's and layer d's potentials are the row and column potentials.
    """
    d = len(layers.sizes) - 1
    tail, head, cost = map(np.concatenate, zip(*(layers.stage(k) for k in range(d))))
    flow, potentials, residual = _certified_flow(tail, head, cost, a, b, layers.offsets[-1])

    if with_plan:
        from scipy import sparse

        coupling = sparse.diags(a, format="csr")
        for k in range(d):
            lo, hi = layers.offsets[k], layers.offsets[k + 1]
            used = (tail >= lo) & (tail < hi) & (flow > 0)
            t, h, f = tail[used] - lo, head[used] - hi, flow[used]
            through = np.bincount(t, weights=f, minlength=layers.sizes[k])
            split = sparse.csr_matrix((f / through[t], (t, h)),
                                      shape=(layers.sizes[k], layers.sizes[k + 1]))
            coupling = coupling @ split
        coupling = coupling.toarray()
        residual = _marginal_residual(coupling, a, b)
    else:
        coupling = None
    if residual > _MARGINAL_TOL:
        raise ConvergenceError(f"flow marginals off by {residual:.3e}", residual=residual)
    return TransportPlan(coupling=coupling, cost=float(cost @ flow),
                         marginal_residual=residual,
                         row_potentials=potentials[:a.size],
                         col_potentials=potentials[-b.size:])


def wasserstein_nd(a: ProbabilityHistogram, b: ProbabilityHistogram, p: float = 2.0,
                   method: str = "exact", *, reg_factor: float = 0.01,
                   with_plan: bool = False):
    """p-Wasserstein distance between joint histograms on a shared scheme.

    Ground cost is the Euclidean distance between bin-center coordinate
    vectors raised to p, built over non-empty bins only; a p at which a
    cost overflows is rejected.  method="exact" solves the transport
    problem to a certified optimum: for p = 2 as a min-cost flow on the
    layered grid graph (see `_grid_w2`), otherwise as the transportation
    LP, and refuses support products above `_MAX_EXACT_ENTRIES`.
    method="entropic" runs the scaling solver at reg = reg_factor * max
    cost.  With with_plan=True returns (distance, TransportPlan) — the plan
    lives on the two supports, ordered by bin index.
    """
    if not 1 <= p < math.inf:
        raise ParameterError("order p must be finite and at least 1")
    if a.scheme != b.scheme:
        raise AlignmentError("histograms use different binning schemes")
    if method not in ("exact", "entropic"):
        raise ParameterError(f"unknown method {method!r} (use 'exact' or 'entropic')")
    (flats_a, wa), (flats_b, wb) = _support(a), _support(b)
    if not wa.size or not wb.size:
        raise ParameterError("both histograms need non-empty support")
    if method == "exact" and wa.size * wb.size > _MAX_EXACT_ENTRIES:
        raise SupportSizeError(
            f"support product {wa.size}x{wb.size} exceeds "
            f"{_MAX_EXACT_ENTRIES} entries; use method='entropic'")

    if method == "exact" and p == 2:
        plan = _grid_w2(_GridLayers(a.scheme, flats_a, flats_b),
                        _as_marginal(wa, "first marginal"),
                        _as_marginal(wb, "second marginal"), with_plan)
    else:
        pts_a, pts_b = _points(a.scheme, flats_a), _points(b.scheme, flats_b)
        dist = np.sqrt(((pts_a[:, None, :] - pts_b[None, :, :]) ** 2).sum(axis=2))
        with np.errstate(over="ignore"):
            costs = dist ** p
        top = float(costs.max())
        if top == math.inf:
            raise ParameterError(f"ground costs overflow at order p = {p!r}; use a smaller p")
        if method == "exact":
            plan = kantorovich_lp(wa, wb, costs)
        elif top == 0.0:
            plan = TransportPlan(coupling=np.outer(wa, wb), cost=0.0, marginal_residual=0.0)
        else:
            plan = sinkhorn(wa, wb, costs, reg=reg_factor * top)
    distance = float(max(plan.cost, 0.0) ** (1.0 / p))
    return (distance, plan) if with_plan else distance
