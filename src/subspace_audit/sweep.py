"""Monte-Carlo error-probability sweeps over sample sizes.

For a fixed (test, reference) pair the harness picks band half-widths that
realize the requested violation fractions, replays the subsampled membership
test many times per (fraction, sample size) cell, and tabulates the empirical
rate of one-sided errors next to the exact hypergeometric rate.  A
record-subsampling Wasserstein decision protocol provides the comparison
baseline curve; its threshold factor has no default.  `SweepConfig` checks
the grids when it is built, before any table is read: explicit half-widths
follow `ReferenceBand`'s rule (finite and non-negative), and the binning
grid holds at most `_MAX_SWEEP_BINS` bins.  Both sweeps count measures from
flat bin ids binned once (`histogram.read_flat_ids`, or `flat_bin_ids` for
in-memory rows), and each cell's violation mask is scattered from the
violating ids of `query.violation_report`.

Every trial seed is derived from the master seed and the trial's cell by
`SeedSequence` hashing, so trials can run in any order and results are
bit-identical across reruns.  A sup-norm cell draws all its trial seeds at
once (`trial_seeds`), and trial t checks the `query.keyed_sample` draw
keyed by the cell's t-th seed: the very bins that `query --samples s
--seed <that seed>` checks.  The baseline's record subsamples keep one
`trial_seed` and a `default_rng` permutation per trial.
A sup-norm cell's trials are decided together by `query.keyed_misses`,
which replays numpy's Floyd draws from the raw Philox stream a chunk of
trials at a time and draws with `keyed_sample` only the trials replay
cannot settle; it runs on the calling thread, as threads would only
contend for the GIL.  The baseline first solves its full-data distance
exactly, which fixes the threshold.  Its trials run on a pool of
`SweepConfig.threads` workers, because the solver releases the GIL, and are
reduced in (sample size, trial) order, so the thread count changes no
result.  For exact W2 on two or more features a trial is first screened
with `transport.w2_bracket`: when its bounds on W2^2 lie wholly on one side
of the squared threshold, widened once, the decision needs no solve.  The
other trials are solved.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import methodcaller
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (AlignmentError, BudgetError, EmptyInputError,
                     ParameterError, SchemaError)
from .histogram import BinningScheme, ProbabilityHistogram, format_histogram
from .pac import analytic_false_positive
from .query import (ReferenceBand, keyed_misses, support_differences,
                    violation_report)
from .transport import _CERT_TOL, w2_bracket, wasserstein_1d, wasserstein_nd

CSV_HEADER = "eps,delta,s,empirical_error,analytic_error,stderr,trials"

# Relative widening of the screening bracket, far above the rounding of the
# bounds and of the threshold; a wider one costs solves, not decisions.
_SCREEN_MARGIN = 1e-6

# Largest sweep grid: `violation_mask` holds one byte per bin (1 GiB here).
_MAX_SWEEP_BINS = 1 << 30

# Seed stream tags keep the sup-norm cells and the baseline cells disjoint.
_SUPNORM_STREAM = 0
_BASELINE_STREAM = 1


def trial_seeds(master_seed: int, cell: tuple[int, ...], trials: int) -> np.ndarray:
    """Seeds (uint64) of trials 0 .. trials - 1 of one cell, drawn in bulk
    from `SeedSequence((master_seed, *cell))`.

    A trial's seed does not depend on `trials`, so any trial can be replayed
    on its own: sup-norm trial t of sweep cell (eps index i, size index j)
    checks the bins of `query --samples s --seed S` with
    S = trial_seeds(master, (0, i, j), t + 1)[t].
    """
    return np.random.SeedSequence((master_seed, *cell)).generate_state(trials, np.uint64)


def trial_seed(master_seed: int, *path: int) -> int:
    """The single seed of `SeedSequence((master_seed, *path))`; one per
    baseline trial, whose path ends in the trial number."""
    return int(trial_seeds(master_seed, path, 1)[0])


class DeltaForTarget(NamedTuple):
    delta: float
    eps_actual: float


def eps_to_delta(test: ProbabilityHistogram, reference: ProbabilityHistogram,
                 eps_target: float) -> DeltaForTarget:
    """Smallest band half-width whose violation fraction is within the target.

    Sorts the per-bin absolute differences and steps just above the relevant
    order statistic (a bin whose difference equals the half-width still counts
    as a violation), then reports the violation fraction actually achieved —
    exact targets are generally unattainable on a discrete grid.
    """
    if not 0.0 < eps_target < 1.0:
        raise ParameterError("eps_target must lie strictly inside (0, 1)")
    n_total = test.scheme.total_bins
    diffs = np.sort(support_differences(test, reference)[1])[::-1]
    allowed = int(math.floor(eps_target * n_total))
    pivot = float(diffs[allowed]) if allowed < diffs.size else 0.0
    delta = math.nextafter(pivot, math.inf)
    violations = int((diffs >= delta).sum())
    return DeltaForTarget(delta=delta, eps_actual=violations / n_total)


@dataclass(frozen=True, kw_only=True)
class WassersteinBaseline:
    """Decision protocol for the record-subsampled transport comparison.

    The full-data distance between subgroup and reference, scaled by
    `threshold_factor`, fixes the decision threshold; a measure is declared
    inside when its distance stays strictly below it.  The factor has no
    default: at 1 the full data would be outside by construction.
    """

    p: float = 2.0
    threshold_factor: float
    method: str = "exact"
    trials: int | None = None  # None: reuse the sweep-wide trial count

    def __post_init__(self):
        if not 1 <= self.p < math.inf:
            raise ParameterError("baseline p must be finite and at least 1")
        if not 0 < self.threshold_factor < math.inf:
            raise ParameterError("threshold_factor must be finite and positive")
        if self.method not in ("exact", "entropic"):
            raise ParameterError(f"unknown baseline method {self.method!r}")
        if self.trials is not None and self.trials < 1:
            raise ParameterError("baseline trials must be at least 1")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep run.

    `threads` caps how many baseline transport solves run at once.
    """

    scheme: BinningScheme
    protected_column: str
    subgroup_value: str
    sample_sizes: tuple[int, ...]
    trials: int
    seed: int
    eps_grid: tuple[float, ...] = ()
    delta_grid: tuple[float, ...] = ()
    baseline: WassersteinBaseline | None = None
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(s) for s in self.sample_sizes))
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        object.__setattr__(self, "delta_grid", tuple(float(d) for d in self.delta_grid))
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")
        if not self.sample_sizes or any(s < 1 for s in self.sample_sizes):
            raise ParameterError("sample_sizes must be non-empty and at least 1")
        if bool(self.eps_grid) == bool(self.delta_grid):
            raise ParameterError("give either eps targets or explicit deltas, not both")
        if any(not 0.0 < e < 1.0 for e in self.eps_grid):
            raise ParameterError("eps grid values must lie strictly inside (0, 1)")
        if any(not (math.isfinite(d) and d >= 0) for d in self.delta_grid):
            raise ParameterError("delta grid values must be finite and non-negative")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")
        if self.threads < 1:
            raise ParameterError("threads must be at least 1")
        if self.scheme.total_bins > _MAX_SWEEP_BINS:
            raise ParameterError(f"{self.scheme.total_bins}-bin grid: a sweep takes 2**30 at most")


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: achieved fraction, half-width, empirical vs analytic rates.

    `empirical_error` and `analytic_error` are nan when the exact verdict is
    already inside, so no one-sided error is possible.  `stderr` is the
    binomial standard error at the analytic rate (at the empirical rate for
    baseline rows, which have no analytic law).
    """

    eps: float
    delta: float
    samples: int
    empirical_error: float
    analytic_error: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    metadata: dict

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                _num(r.eps), _num(r.delta), str(r.samples),
                _num(r.empirical_error), _num(r.analytic_error),
                _num(r.stderr), str(r.trials),
            ]))
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return "nan" if math.isnan(x) else repr(float(x))


def _fingerprint(measure: ProbabilityHistogram) -> str:
    digest = hashlib.sha256(format_histogram(measure).encode()).hexdigest()
    return f"sha256:{digest}"


def violation_mask(test: ProbabilityHistogram, band: ReferenceBand) -> np.ndarray:
    """Dense indicator over flat bin ids of "difference >= delta"."""
    # at delta == 0 every bin violates: untouched bins differ by exactly zero
    mask = np.full(test.scheme.total_bins, band.delta == 0)
    mask[violation_report(test, band).flats] = True
    return mask


def _empirical_rate(mask: np.ndarray, size: int, trials: int,
                    master_seed: int, cell_path: tuple[int, ...]) -> float:
    seeds = trial_seeds(master_seed, cell_path, trials)
    return int(np.count_nonzero(keyed_misses(mask, size, seeds))) / trials


def estimate_false_positive_rate(test: ProbabilityHistogram, band: ReferenceBand,
                                 size: int, trials: int, master_seed: int,
                                 cell: tuple[int, ...] = ()) -> float:
    """Empirical share of subsampled runs answering inside when the exact
    verdict is outside.

    Trial t replays subsampled_query with the seed
    trial_seeds(master_seed, cell, trials)[t]; `query.keyed_misses` decides
    the trials against a dense violation mask without changing which sets
    get sampled.
    """
    report = violation_report(test, band)
    if report.count_k == 0:
        raise ParameterError("exact verdict is inside; no one-sided error is possible")
    mask = violation_mask(test, band)
    return _empirical_rate(mask, size, trials, master_seed, cell)


def run_supnorm_sweep(config: SweepConfig, test: ProbabilityHistogram,
                      reference: ProbabilityHistogram) -> SweepResult:
    """Empirical vs analytic one-sided error of the subsampled test over the grid.

    Cells whose exact verdict is already inside admit no one-sided error and
    are recorded with nan rates rather than failing the run.  Deterministic
    given config.seed.
    """
    if test.scheme != reference.scheme:
        raise AlignmentError("histograms use different binning schemes")
    n_total = test.scheme.total_bins
    for s in config.sample_sizes:
        if s > n_total:
            raise ParameterError(f"sample size {s} exceeds the {n_total}-bin grid")

    if config.eps_grid:
        picks = [eps_to_delta(test, reference, target) for target in config.eps_grid]
        deltas = [pick.delta for pick in picks]
    else:
        deltas = list(config.delta_grid)

    rows: list[SweepRow] = []
    for cell_idx, delta in enumerate(deltas):
        band = ReferenceBand(base=reference, delta=delta)
        report = violation_report(test, band)
        k = report.count_k
        mask = violation_mask(test, band) if k > 0 else None
        for s_idx, size in enumerate(config.sample_sizes):
            if k == 0:
                rows.append(SweepRow(eps=0.0, delta=delta, samples=size,
                                     empirical_error=math.nan, analytic_error=math.nan,
                                     stderr=math.nan, trials=config.trials))
                continue
            analytic = analytic_false_positive(n_total, k, size)
            empirical = _empirical_rate(mask, size, config.trials, config.seed,
                                        (_SUPNORM_STREAM, cell_idx, s_idx))
            stderr = math.sqrt(analytic * (1.0 - analytic) / config.trials)
            rows.append(SweepRow(eps=report.fraction, delta=delta, samples=size,
                                 empirical_error=empirical, analytic_error=analytic,
                                 stderr=stderr, trials=config.trials))

    metadata = {
        "kind": "supnorm",
        "seed": config.seed,
        "total_bins": n_total,
        "trials": config.trials,
        "eps_targets": list(config.eps_grid),
        "deltas": deltas,
        "sample_sizes": list(config.sample_sizes),
        "test_fingerprint": _fingerprint(test),
        "reference_fingerprint": _fingerprint(reference),
    }
    return SweepResult(rows=tuple(rows), metadata=metadata)


def subgroup_split(records: Iterable[Mapping[str, str]], protected_column: str,
                   subgroup_value: str) -> tuple[list, list]:
    """(matching records, all records) of in-memory rows.

    The subgroup is audited against the whole population, not against its
    complement; pass the complement yourself if that comparison is wanted.
    """
    rows = list(records)
    if not rows:
        raise EmptyInputError("no records to split")
    if protected_column not in rows[0]:
        raise SchemaError(f"column {protected_column!r} not present in records")
    matching = [r for r in rows if r.get(protected_column) == subgroup_value]
    if not matching:
        raise EmptyInputError(f"no records match {protected_column}={subgroup_value}")
    return matching, rows


def flat_bin_ids(records: Iterable[Mapping[str, str]],
                 scheme: BinningScheme) -> tuple[np.ndarray, int]:
    """`histogram.read_flat_ids` for in-memory row dicts."""
    rows = list(records)
    flats = scheme.bin_columns([list(map(methodcaller("get", f.name), rows))
                                for f in scheme.features])
    return flats[flats >= 0], int(np.count_nonzero(flats < 0))


def measure_from_flats(flats: np.ndarray, scheme: BinningScheme) -> ProbabilityHistogram:
    """Normalized histogram of a vector of flat bin ids."""
    if flats.size == 0:
        raise EmptyInputError("no binned records to build a measure from")
    ids, counts = np.unique(flats, return_counts=True)
    return ProbabilityHistogram.from_flats(scheme, ids, counts / float(flats.size))


def measure_from_records(records: Iterable[Mapping[str, str]],
                         scheme: BinningScheme) -> tuple[ProbabilityHistogram, int]:
    """Normalized histogram of raw records, plus the dropped-record count."""
    flats, dropped = flat_bin_ids(records, scheme)
    return measure_from_flats(flats, scheme), dropped


def run_wasserstein_sweep(config: SweepConfig, test: tuple[np.ndarray, int],
                          reference: tuple[np.ndarray, int]) -> SweepResult:
    """Record-subsampled transport decision errors across sample sizes.

    `test` and `reference` are (flat bin ids, dropped-record count) pairs,
    as `histogram.read_flat_ids` and `flat_bin_ids` return them.  The
    full-data distance between them fixes a threshold (scaled by the
    baseline's factor); each trial redraws `s` subgroup records without
    replacement and decides inside iff their measure's distance stays below
    the threshold.  An error is any disagreement with the full-data
    decision.  Per-trial decisions are Bernoulli, so the stderr column
    doubles as the standard-deviation band.  `config.baseline` must be set.

    The full-data distance is solved exactly first, and a threshold that
    overflows is refused before any trial is drawn.  For exact W2 on two or
    more features a trial whose `w2_bracket` lies wholly below or above the
    squared threshold, widened for rounding and solver accuracy
    (`_screen_bounds`), is decided without a solve.  Other trials are solved
    exactly on a pool of `config.threads` workers; the result does not
    depend on that count, and `screened` in the metadata counts the trials
    decided without a solve.
    """
    baseline = config.baseline
    if baseline is None:
        raise ParameterError("the sweep config declares no transport baseline")
    scheme = config.scheme
    (test_flats, dropped_test), (ref_flats, dropped_ref) = test, reference
    ref_measure = measure_from_flats(ref_flats, scheme)
    full_test = measure_from_flats(test_flats, scheme)
    group = int(test_flats.size)
    for s in config.sample_sizes:
        if s > group:
            raise BudgetError(f"sample size {s} exceeds the subgroup size {group}")
    distance = _distance_fn(scheme, baseline)
    trials = baseline.trials if baseline.trials is not None else config.trials

    w_full = distance(full_test, ref_measure)
    threshold = baseline.threshold_factor * w_full
    if threshold == math.inf:
        raise ParameterError("threshold_factor times the full-data distance overflows")
    full_inside = w_full < threshold
    screen = (_screen_bounds(scheme, threshold) if baseline.method == "exact"
              and baseline.p == 2 and scheme.n_features >= 2 else None)

    def decide(s_idx: int, size: int, trial: int) -> tuple[bool, bool]:
        """(inside, screened) of one trial."""
        rng = np.random.default_rng(trial_seed(config.seed, _BASELINE_STREAM, s_idx, trial))
        measure = measure_from_flats(test_flats[rng.permutation(group)[:size]], scheme)
        if screen is not None:
            lower, upper = w2_bracket(measure, ref_measure)
            if math.isfinite(lower) and math.isfinite(upper):
                if upper < screen[0]:
                    return True, True
                if lower > screen[1]:
                    return False, True
        return distance(measure, ref_measure) < threshold, False

    # The solver releases the GIL, so the solves overlap; results are read
    # back in (size, trial) order, which keeps the output schedule-free.
    pool = ThreadPoolExecutor(max_workers=config.threads)
    try:
        decisions = [[pool.submit(decide, s_idx, size, trial) for trial in range(trials)]
                     for s_idx, size in enumerate(config.sample_sizes)]
        cells = [[decision.result() for decision in row] for row in decisions]
    finally:
        pool.shutdown(cancel_futures=True)

    rows: list[SweepRow] = []
    screened = 0
    for size, results in zip(config.sample_sizes, cells):
        screened += sum(by_bracket for _, by_bracket in results)
        rate = sum(inside != full_inside for inside, _ in results) / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        rows.append(SweepRow(eps=math.nan, delta=math.nan, samples=size,
                             empirical_error=rate, analytic_error=math.nan,
                             stderr=stderr, trials=trials))

    metadata = {
        "kind": "wasserstein",
        "seed": config.seed,
        "p": baseline.p,
        "method": baseline.method,
        "threshold_factor": baseline.threshold_factor,
        "full_distance": w_full,
        "threshold": threshold,
        "full_inside": full_inside,
        "subgroup_size": group,
        "dropped_test": dropped_test,
        "dropped_reference": dropped_ref,
        "sample_sizes": list(config.sample_sizes),
        "trials": trials,
        "screened": screened,
        "test_fingerprint": _fingerprint(full_test),
        "reference_fingerprint": _fingerprint(ref_measure),
    }
    return SweepResult(rows=tuple(rows), metadata=metadata)


def _screen_bounds(scheme: BinningScheme, threshold: float) -> tuple[float, float] | None:
    """Bounds (t_lo, t_hi) on a trial's W2^2 bracket that decide the trial.

    The squared threshold is widened once: by a relative margin for the
    rounding of the bounds and of the threshold, and by `slack`, the
    certificate's per-arc tolerance times the grid's largest ground cost,
    within which a solved W2^2 is taken to lie of the exact one.  A trial
    whose upper bound is below t_lo then solves inside, and one whose lower
    bound is above t_hi outside.  None when a bound is not finite.
    """
    spans = [max(c) - min(c) for c in (f.centers() for f in scheme.features)]
    slack = _CERT_TOL * max(1.0, sum(span * span for span in spans))
    # product, not **, so that a huge threshold overflows to inf, not an error
    squared = threshold * threshold
    bounds = (squared * (1.0 - _SCREEN_MARGIN) - slack,
              squared * (1.0 + _SCREEN_MARGIN) + slack)
    return bounds if all(map(math.isfinite, bounds)) else None


def _distance_fn(scheme: BinningScheme, baseline: WassersteinBaseline):
    if scheme.n_features == 1 and baseline.method == "exact":
        return lambda x, y: wasserstein_1d(x, y, baseline.p)
    return lambda x, y: wasserstein_nd(x, y, baseline.p, method=baseline.method)
