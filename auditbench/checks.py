"""Output checks computed apart from the program.

Bin counts are recomputed with numpy from the values as written to the CSV,
the budget formula and the hypergeometric law are evaluated on their own,
and the transport distance is compared with an independently built dual LP.
Nothing here imports the package under test.  Every check raises
CheckFailed with the reason.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np
from scipy import sparse, stats
from scipy.optimize import linprog

from inputs import Feature, grid_shape

RECORD_FIELDS = 7  # verdict,delta,s,seed,witness,eps_hat,sup_norm
SWEEP_HEADER = "eps,delta,s,empirical_error,analytic_error,stderr,trials"
# The empirical rate must lie within this many binomial standard errors of
# the exact rate, plus a few trials' worth of slack for rates near 0 or 1; a
# correct run leaves it with probability below 1e-7 per cell.
ENVELOPE_SE = 6.0
ENVELOPE_SLACK_TRIALS = 3.0


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-15) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


class Counts(NamedTuple):
    """Sparse histogram: flat bin id -> count, plus the file's totals."""

    counts: dict[int, int]
    total: int
    skipped: int


# --- bin counts -----------------------------------------------------------------

def read_columns(path: str) -> dict[str, np.ndarray]:
    """CSV columns as arrays of the raw strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return {name: np.asarray([row[i] for row in rows], dtype=object)
            for i, name in enumerate(header)}


def bin_ids(columns: dict[str, np.ndarray], scheme: tuple[Feature, ...]
            ) -> tuple[np.ndarray, np.ndarray]:
    """(flat bin id per record, whether every feature value was usable).

    Continuous values use floor(bins * (v - lower) / (upper - lower)) clamped
    to the grid; categorical values must match a declared category.
    """
    n = len(next(iter(columns.values())))
    valid = np.ones(n, dtype=bool)
    coords = []
    for feature in scheme:
        raw = [text.strip() for text in columns[feature.name].tolist()]
        if feature.kind == "categorical":
            lookup = {c: i for i, c in enumerate(feature.categories)}
            idx = np.asarray([lookup.get(text, -1) for text in raw], dtype=np.int64)
            valid &= idx >= 0
        else:
            values = np.asarray([float(text) if text else math.nan for text in raw])
            valid &= ~np.isnan(values)
            scaled = feature.bins * (values - feature.lower) / (feature.upper - feature.lower)
            idx = np.clip(np.floor(np.nan_to_num(scaled)), 0, feature.bins - 1).astype(np.int64)
        coords.append(np.where(valid, idx, 0))
    flats = np.ravel_multi_index(tuple(coords), grid_shape(scheme))
    return flats, valid


def expected_counts(flats: np.ndarray, valid: np.ndarray,
                    keep: np.ndarray | None = None) -> Counts:
    """Counts of the kept records; kept records with unusable values are skipped."""
    keep = np.ones(flats.size, dtype=bool) if keep is None else keep
    ids, freq = np.unique(flats[keep & valid], return_counts=True)
    total = int(freq.sum())
    return Counts(dict(zip(ids.tolist(), freq.tolist())), total,
                  int((keep & ~valid).sum()))


def read_histogram_file(path: str, shape: tuple[int, ...]) -> Counts:
    """Counts from a histogram file, parsed on its own (header and data lines)."""
    total = skipped = None
    counts: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip() == "total":
                    total = int(value)
                elif key.strip() == "skipped":
                    skipped = int(value)
                continue
            head, _, tail = line.partition("\t")
            flat = int(np.ravel_multi_index(tuple(int(p) for p in head.split(",")), shape))
            require(flat not in counts, f"{path}: bin {head} listed twice")
            counts[flat] = int(tail)
    require(total is not None and skipped is not None, f"{path}: no total/skipped header")
    return Counts(counts, total, skipped)


def check_bin(stdout: str, path: str, expected: Counts, shape: tuple[int, ...]) -> None:
    """The written histogram and the summary line match the recomputed counts."""
    written = read_histogram_file(path, shape)
    require(written.counts == expected.counts,
             f"{path}: bin counts differ from the recomputed counts")
    require(written.total == expected.total and written.skipped == expected.skipped,
             f"{path}: total/skipped {written.total}/{written.skipped}, "
             f"expected {expected.total}/{expected.skipped}")
    summary = (f"total={expected.total} skipped={expected.skipped} "
               f"occupied_bins={len(expected.counts)}")
    require(stdout.strip().endswith(summary), f"bin summary {stdout.strip()!r} != {summary!r}")


# --- band queries ---------------------------------------------------------------

def band_diffs(test: Counts, reference: Counts) -> tuple[np.ndarray, np.ndarray]:
    """(sorted flat ids of the union support, |p - q| on them)."""
    flats = np.asarray(sorted(set(test.counts) | set(reference.counts)), dtype=np.int64)
    p = np.asarray([test.counts.get(f, 0) for f in flats.tolist()]) / float(test.total)
    q = np.asarray([reference.counts.get(f, 0) for f in flats.tolist()]) / float(reference.total)
    return flats, np.abs(p - q)


def _record(line: str) -> list[str]:
    fields = line.strip().split(",")
    require(len(fields) == RECORD_FIELDS, f"verdict record {line.strip()!r} is malformed")
    require(fields[0] in ("TRUE", "FALSE"), f"verdict {fields[0]!r} is neither TRUE nor FALSE")
    return fields


def _witness_flat(field: str, shape: tuple[int, ...]) -> int:
    require(field != "", "a FALSE verdict carries no witness")
    return int(np.ravel_multi_index(tuple(int(p) for p in field.split(";")), shape))


def check_exact(line: str, test: Counts, reference: Counts, delta: float,
                shape: tuple[int, ...]) -> bool:
    """Exact verdict == (max |p - q| >= delta); returns the verdict (inside)."""
    require(delta > 0, "the checks assume a positive band half-width")
    verdict, delta_f, s_f, seed_f, witness_f, eps_f, sup_f = _record(line)
    require(float(delta_f) == delta and s_f == "" and seed_f == "",
             f"exact record echoes {delta_f!r},{s_f!r},{seed_f!r}")
    flats, diffs = band_diffs(test, reference)
    violating = flats[diffs >= delta]
    inside = violating.size == 0
    require((verdict == "TRUE") == inside,
             f"exact verdict {verdict} but max|p-q| = {diffs.max()!r} vs delta {delta!r}")
    require(float(sup_f) == float(diffs.max()), f"sup_norm {sup_f} != {diffs.max()!r}")
    n_total = math.prod(shape)
    require(float(eps_f) == violating.size / n_total,
             f"eps_hat {eps_f} != {violating.size}/{n_total}")
    if not inside:
        require(_witness_flat(witness_f, shape) == int(violating[0]),
                 f"exact witness {witness_f} is not the first violating bin")
    else:
        require(witness_f == "", "a TRUE verdict carries a witness")
    return inside


def check_subsampled(line: str, test: Counts, reference: Counts, delta: float,
                     size: int, seed: int, exact_inside: bool,
                     shape: tuple[int, ...]) -> bool:
    """No FALSE where the exact scan says TRUE; every FALSE witness violates."""
    verdict, delta_f, s_f, seed_f, witness_f, eps_f, sup_f = _record(line)
    require(float(delta_f) == delta and s_f == str(size) and seed_f == str(seed),
             f"subsampled record echoes {delta_f!r},{s_f!r},{seed_f!r}")
    flats, diffs = band_diffs(test, reference)
    eps_hat, sup_norm = float(eps_f), float(sup_f)
    require(sup_norm <= float(diffs.max()), "sampled sup_norm exceeds the full-scan one")
    if verdict == "TRUE":
        require(witness_f == "" and eps_hat == 0.0 and sup_norm < delta,
                 f"TRUE record {line.strip()!r} reports a violation")
        return True
    require(not exact_inside, "subsampled FALSE where the exact scan says TRUE")
    where = np.searchsorted(flats, _witness_flat(witness_f, shape))
    require(where < flats.size and flats[where] == _witness_flat(witness_f, shape)
             and diffs[where] >= delta, f"witness {witness_f} does not violate the band")
    require(eps_hat > 0.0 and sup_norm >= delta, f"FALSE record {line.strip()!r} is inconsistent")
    return False


# --- sample budget --------------------------------------------------------------

def expected_budget(eps: float, delta_prob: float, n_features: int,
                    total_bins: int) -> tuple[int, int, float, bool]:
    """(d, effective s, analytic rate, capped) from the documented formulas.

    d = max(ceil(2 (n+1) log2(n+2)), n+1); s = ceil(max(a ln a, (4/eps) ln(2/delta)))
    with a = 8 d / eps; the rate is the hypergeometric probability that s
    bins drawn without replacement miss all ceil(eps N) violating bins.
    """
    d = max(math.ceil(2.0 * (n_features + 1) * math.log2(n_features + 2)), n_features + 1)
    a = 8.0 * d / eps
    s = max(1, math.ceil(max(a * math.log(a) if a > 1 else 0.0,
                             (4.0 / eps) * math.log(2.0 / delta_prob))))
    violating = min(math.ceil(eps * total_bins), total_bins)
    effective = min(s, total_bins)
    rate = float(stats.hypergeom(total_bins, violating, effective).pmf(0))
    return d, effective, rate, s > total_bins


def check_sample_size(line: str, eps: float, delta_prob: float, n_features: int,
                      total_bins: int) -> int:
    """The d,s,rate(,capped) row matches; returns the effective budget s."""
    d, s, rate, capped = expected_budget(eps, delta_prob, n_features, total_bins)
    fields = line.strip().split(",")
    require(len(fields) == (4 if capped else 3) and (not capped or fields[3] == "capped"),
             f"sample-size row {line.strip()!r} has the wrong shape")
    require(int(fields[0]) == d and int(fields[1]) == s,
             f"sample-size row {line.strip()!r}, expected d={d} s={s}")
    require(_close(float(fields[2]), rate, abs_tol=1e-300),
             f"sample-size rate {fields[2]} != hypergeometric {rate!r}")
    return s


# --- sweep outputs --------------------------------------------------------------

def _sweep_rows(text: str, expected_rows: int) -> list[list[str]]:
    lines = text.strip().split("\n")
    require(lines[0] == SWEEP_HEADER, f"sweep header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    require(len(rows) == expected_rows and all(len(r) == 7 for r in rows),
             f"sweep CSV has {len(rows)} rows, expected {expected_rows}")
    return rows


def check_supnorm_csv(text: str, test: Counts, reference: Counts,
                      eps_targets: tuple[float, ...], samples: tuple[int, ...],
                      trials: int, n_total: int) -> int:
    """Achieved eps, exact rates and envelopes; returns the trials run."""
    _, diffs = band_diffs(test, reference)
    rows = _sweep_rows(text, len(eps_targets) * len(samples))
    run = 0
    for i, row in enumerate(rows):
        eps, delta, s = float(row[0]), float(row[1]), int(row[2])
        empirical, analytic, stderr, n = (float(row[3]), float(row[4]), float(row[5]),
                                          int(row[6]))
        target = eps_targets[i // len(samples)]
        require(s == samples[i % len(samples)] and n == trials, f"sweep row {i} is misplaced")
        violating = int((diffs >= delta).sum())
        require(eps == violating / n_total and eps <= target,
                 f"sweep row {i}: eps {eps!r} vs {violating}/{n_total} and target {target}")
        if violating == 0:
            require(all(math.isnan(x) for x in (empirical, analytic, stderr)),
                     f"sweep row {i}: inside cell with rates")
            continue
        exact = float(stats.hypergeom(n_total, violating, s).pmf(0))
        require(_close(analytic, exact, abs_tol=1e-15),
                 f"sweep row {i}: analytic {analytic!r} != hypergeometric {exact!r}")
        require(_close(stderr, math.sqrt(exact * (1 - exact) / n), abs_tol=1e-15),
                 f"sweep row {i}: stderr {stderr!r}")
        misses = empirical * n
        require(abs(misses - round(misses)) < 1e-6, f"sweep row {i}: rate*trials not whole")
        envelope = ENVELOPE_SE * math.sqrt(exact * (1 - exact) / n) + ENVELOPE_SLACK_TRIALS / n
        require(abs(empirical - exact) <= envelope,
                 f"sweep row {i}: empirical {empirical!r} outside {exact!r} +- {envelope:.3g}")
        run += n
    return run


def check_baseline_csv(text: str, samples: tuple[int, ...], trials: int) -> None:
    """rate * trials is a whole number in [0, trials] on every row."""
    for i, row in enumerate(_sweep_rows(text, len(samples))):
        rate, stderr, n = float(row[3]), float(row[5]), int(row[6])
        require(math.isnan(float(row[0])) and math.isnan(float(row[1]))
                 and math.isnan(float(row[4])), f"baseline row {i}: eps/delta/analytic set")
        require(int(row[2]) == samples[i] and n == trials, f"baseline row {i} is misplaced")
        errors = rate * n
        require(abs(errors - round(errors)) < 1e-9 and 0 <= round(errors) <= n,
                 f"baseline row {i}: rate {rate!r} * {n} trials is not a count")
        require(_close(stderr, math.sqrt(rate * (1 - rate) / n)), f"baseline row {i}: stderr")


# --- transport ------------------------------------------------------------------

def _support(hist: Counts, scheme: tuple[Feature, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(bin-center points, masses) of the occupied bins."""
    flats = np.asarray(sorted(hist.counts), dtype=np.int64)
    masses = np.asarray([hist.counts[f] for f in flats.tolist()]) / float(hist.total)
    coords = np.unravel_index(flats, grid_shape(scheme))
    points = np.stack([f.centers()[c] for f, c in zip(scheme, coords)], axis=1)
    return points, masses


def w2_squared_dual(test: Counts, reference: Counts, scheme: tuple[Feature, ...]) -> float:
    """max a.u + b.v subject to u_i + v_j <= |x_i - y_j|^2, solved by interior point."""
    xa, a = _support(test, scheme)
    xb, b = _support(reference, scheme)
    cost = ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)
    n, m = cost.shape
    pair = np.arange(n * m)
    constraints = sparse.csr_matrix(
        (np.ones(2 * n * m), (np.concatenate([pair, pair]),
                              np.concatenate([pair // m, n + pair % m]))),
        shape=(n * m, n + m))
    # potentials are defined up to a shift: pin u_0 = 0
    bounds = [(0.0, 0.0)] + [(None, None)] * (n + m - 1)
    result = linprog(-np.concatenate([a, b]), A_ub=constraints, b_ub=cost.ravel(),
                     bounds=bounds, method="highs-ipm")
    require(result.status == 0, f"independent dual LP failed: {result.message}")
    return float(-result.fun)


def _w2_squared_line(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """W2^2 on the line between masses a and b on sorted points x (quantile form)."""
    ca, cb = np.cumsum(a), np.cumsum(b)
    ca /= ca[-1]
    cb /= cb[-1]
    levels = np.union1d(ca, cb)
    lower = np.concatenate([[0.0], levels[:-1]])
    ia = np.minimum(np.searchsorted(ca, lower, side="right"), x.size - 1)
    ib = np.minimum(np.searchsorted(cb, lower, side="right"), x.size - 1)
    return float(((levels - lower) * (x[ia] - x[ib]) ** 2).sum())


def w2_squared_bounds(test: Counts, reference: Counts,
                      scheme: tuple[Feature, ...]) -> tuple[float, float]:
    """(sum of the 1-D marginal W2^2, cost of the product coupling)."""
    shape = grid_shape(scheme)
    marginals = []
    for hist in (test, reference):
        flats = np.asarray(list(hist.counts), dtype=np.int64)
        masses = np.asarray(list(hist.counts.values())) / float(hist.total)
        coords = np.unravel_index(flats, shape)
        marginals.append([np.bincount(c, weights=masses, minlength=f.bin_count)
                          for f, c in zip(scheme, coords)])
    lower = sum(_w2_squared_line(f.centers(), ma, mb)
                for f, ma, mb in zip(scheme, *marginals))
    xa, a = _support(test, scheme)
    xb, b = _support(reference, scheme)
    upper = float(a @ ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2) @ b)
    return lower, upper


def check_distance(line: str, test: Counts, reference: Counts,
                   scheme: tuple[Feature, ...]) -> float:
    """`distance --p 2 --method exact` output against the dual LP and the bounds."""
    value, residual = (float(x) for x in line.strip().split(","))
    squared = value * value
    dual = w2_squared_dual(test, reference, scheme)
    lower, upper = w2_squared_bounds(test, reference, scheme)
    require(abs(squared - dual) <= 1e-7 * max(1.0, dual),
             f"W2^2 {squared!r} differs from the dual optimum {dual!r}")
    require(lower - 1e-9 <= squared <= upper + 1e-9,
             f"W2^2 {squared!r} outside the bounds [{lower!r}, {upper!r}]")
    require(0.0 <= residual <= 1e-9, f"marginal residual {residual!r}")
    return squared
