"""Band membership tests on aligned probability histograms.

A reference population's normalized histogram plus a half-width delta define
a band of admissible measures: a test measure is inside when every bin mass
sits strictly within delta of the reference mass, and a bin with difference
at or above delta counts as a violation.  The exact test scans all bins; the
subsampled test checks a uniform random subset of bins and can only err by
answering "inside" for a measure that is outside — it never rejects a measure
that is inside, and any rejection carries a witness bin that can be rechecked
directly.

Bin samples are keyed by seed: the sample for seed S is the first draw of
`Generator(Philox(key=S))`, so a seed is any integer in [0, 2**128) and
names one counter-based stream (Salmon et al., SC 2011).  `keyed_sample`
draws them for queries, from one generator per thread, each by numpy's
`choice` whatever its size (`sample_flat_indices`).  Monte-Carlo trials
ask only whether a keyed sample meets a set of bins; `keyed_misses` answers
that for many seeds at once, replaying numpy's Floyd draws from the raw
Philox words where it can and drawing with `keyed_sample` where it cannot,
or where two replayed rows of a call do not match their keyed samples.

Every per-bin difference comes from one kernel, `support_differences`, which
works on the histograms' flat-id arrays: the union of the two supports and
|test - base| on it.  Bins outside both supports differ by exactly zero.

All operations are pure given (inputs, seed); parallel callers must supply
distinct seeds.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import AlignmentError, BudgetError, ParameterError
from .histogram import BinningScheme, Index, ProbabilityHistogram, gather

_SEED_LIMIT = 1 << 128  # seeds are Philox keys
_LOW32 = (1 << 32) - 1
_LOW64 = (1 << 64) - 1
_ZERO4 = [0, 0, 0, 0]
# numpy's `choice(replace=False)` runs Floyd's algorithm on grids up to this
# many bins, and on larger ones for samples of at most a fiftieth of the grid
_FLOYD_BINS = 10_000
# entries per array of one `keyed_misses` chunk, which bounds its memory
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ReferenceBand:
    """Reference masses with a per-bin uncertainty half-width."""

    base: ProbabilityHistogram
    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ParameterError("band half-width delta must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Full-scan violation accounting for one (test, band) pair.

    `flats` lists the stored violating bins (difference >= delta) in flat-id
    order and `excess` their excess difference - delta.  Bins outside the
    stored support of both measures are counted only in `count_k`: they can
    violate only when delta == 0, in which case each contributes an excess
    of exactly zero.
    """

    scheme: BinningScheme
    flats: np.ndarray
    excess: np.ndarray
    count_k: int
    total_bins: int
    fraction: float
    sup_norm: float

    def outcome(self) -> QueryOutcome:
        """Exact verdict; the witness is the violating bin first in index order."""
        if self.count_k == 0:
            return QueryOutcome(inside=True)
        # no stored violation means delta == 0 on empty supports: bin 0 violates
        first = int(self.flats[0]) if self.flats.size else 0
        return QueryOutcome(inside=False, witness=self.scheme.unflatten(first))


@dataclass(frozen=True, eq=False)
class QueryOutcome:
    """Verdict of a band membership test.

    `witness` names a genuinely violated bin whenever `inside` is False.
    Subsampled verdicts also record the seed, the sampled flat bin ids in
    draw order (`sampled_flats`) and their differences |test - base|
    (`sampled_diffs`), so a run can be replayed exactly.  Outcomes compare
    equal when verdict, witness, seed and sampled flat ids agree.
    """

    inside: bool
    witness: Index | None = None
    seed: int | None = None
    sampled_flats: np.ndarray | None = None
    sampled_diffs: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, QueryOutcome):
            return NotImplemented
        key = lambda o: (o.inside, o.witness, o.seed,
                         None if o.sampled_flats is None else o.sampled_flats.tolist())
        return key(self) == key(other)


@lru_cache(maxsize=4)
def support_differences(test: ProbabilityHistogram,
                        base: ProbabilityHistogram) -> tuple[np.ndarray, np.ndarray]:
    """(sorted flat ids of the union of the two supports, |test - base| on them).

    Bins absent from both supports differ by exactly zero and are omitted.
    Results are cached per (immutable) pair, as Monte-Carlo trials and
    `query --samples` ask for one pair repeatedly, and are read-only.
    """
    if test.scheme != base.scheme:
        raise AlignmentError("histograms use different binning schemes")
    # both supports are sorted and unique, so a stable sort of the two laid
    # end to end merges two runs, and the union drops each id's repeat
    flats = np.concatenate([test.flats, base.flats])
    flats.sort(kind="stable")
    first = np.ones(flats.size, dtype=bool)
    first[1:] = flats[1:] != flats[:-1]
    flats = flats[first]
    diffs = np.abs(gather(test.flats, test.values, flats) - gather(base.flats, base.values, flats))
    flats.flags.writeable = diffs.flags.writeable = False
    return flats, diffs


def exact_query(test: ProbabilityHistogram, band: ReferenceBand) -> QueryOutcome:
    """Full scan: inside iff every bin satisfies |test - base| < delta.

    All bins participate, including bins empty in both measures; those can
    only violate in the degenerate delta == 0 case.  The witness, when one
    exists, is the violating stored bin that is first in index order (bin 0
    when neither measure stores any bin).
    """
    return violation_report(test, band).outcome()


def violation_report(test: ProbabilityHistogram, band: ReferenceBand) -> ViolationReport:
    """Per-bin violations, their count, fraction, and the sup-norm distance."""
    flats, diffs = support_differences(test, band.base)
    n_total = test.scheme.total_bins
    hit = diffs >= band.delta
    count = int(np.count_nonzero(hit))
    if band.delta == 0:
        count += n_total - flats.size
    return ViolationReport(
        scheme=test.scheme,
        flats=flats[hit],
        excess=diffs[hit] - band.delta,
        count_k=count,
        total_bins=n_total,
        fraction=count / n_total,
        sup_norm=float(diffs.max(initial=0.0)),
    )


def sample_flat_indices(n_total: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of `size` distinct flat bin ids from range(n_total).

    Without replacement, in draw order, and deterministic given the generator
    state: numpy's `choice(replace=False)`.  That is Floyd's algorithm
    (Bentley & Floyd, CACM 1987), which costs O(size) at any grid size, or,
    when the sample exceeds a fiftieth of a grid over 10 000 bins, a partial
    shuffle, which allocates and fills arange(n_total) before it swaps
    `size` entries and so costs O(n_total), under O(50 size).
    """
    _check_size(n_total, size)
    return rng.choice(n_total, size, replace=False)


def _check_size(n_total: int, size: int) -> None:
    if not 1 <= size <= n_total:
        raise BudgetError(f"sample size {size} outside [1, {n_total}]")


_THREAD = threading.local()  # `pair`: this thread's (Philox, Generator)


def _thread_pair() -> tuple[np.random.Philox, np.random.Generator]:
    """The calling thread's (Philox, Generator), built on its first draw."""
    try:
        return _THREAD.pair
    except AttributeError:
        bits = np.random.Philox(key=0)
        _THREAD.pair = bits, np.random.Generator(bits)
        return _THREAD.pair


def _reset(bits: np.random.Philox, seed: int) -> None:
    """Reset `bits` to key `seed` in [0, 2**128), counter 0 and an empty
    buffer through its public state, about a sixth of the cost of building
    a new generator."""
    bits.state = {"bit_generator": "Philox", "buffer": _ZERO4, "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0,
                  "state": {"counter": _ZERO4, "key": [seed & _LOW64, seed >> 64]}}


def keyed_sample(n_total: int, size: int, seed: int) -> np.ndarray:
    """`sample_flat_indices(n_total, size, Generator(Philox(key=seed)))`, seed
    in [0, 2**128), drawn by the calling thread's generator."""
    seed = operator.index(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed {seed} outside [0, 2**128)")
    bits, rng = _thread_pair()
    _reset(bits, seed)
    return sample_flat_indices(n_total, size, rng)


def _floyd_replayable(n_total: int, size: int) -> bool:
    """Whether `sample_flat_indices` draws this shape with numpy's Floyd loop,
    one 32-bit word per step while Lemire's rejection does not fire; at
    s = n its first step draws from [0, 0] and takes no word."""
    return (size < n_total < 1 << 32
            and (n_total <= _FLOYD_BINS or size <= n_total // 50))


def _floyd_draws(n_total: int, size: int, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(draws, settled) of numpy's Floyd loop for a `_floyd_replayable`
    shape, one row per uint64 seed, replayed from the raw Philox stream.

    Step j = n_total - size + i of Floyd's loop draws a bin in [0, j] by
    Lemire's method from the i-th 32-bit word of the stream, in which each
    64-bit output gives its low half, then its high half: the bin is the
    high half of word * (j + 1).  A low half below (2**32 - 1 - j) mod
    (j + 1) is rejected and the step takes more words, so `settled` is
    False for a row where that happens and its draws are meaningless.  A
    settled row's draws are all in its `keyed_sample`; Floyd adds step j
    itself where a draw repeats.
    """
    half = (size + 1) // 2
    words = np.empty((len(seeds), half, 2), dtype=np.uint64)
    bits = _thread_pair()[0]
    for row, seed in enumerate(seeds.tolist()):
        _reset(bits, seed)
        words[row, :, 1] = bits.random_raw(half)
    # split by shifts, not a byte view, so the word order holds on any byte order
    words[:, :, 0] = words[:, :, 1] & _LOW32
    words[:, :, 1] >>= 32
    scaled = words.reshape(len(seeds), -1)[:, :size]
    bound = np.arange(n_total - size + 1, n_total + 1, dtype=np.uint64)  # j + 1
    scaled *= bound
    settled = ~((scaled & _LOW32) < (_LOW32 - (bound - 1)) % bound).any(axis=1)
    scaled >>= 32
    return scaled, settled


def keyed_misses(mask: np.ndarray, size: int, seeds: np.ndarray) -> np.ndarray:
    """For each uint64 seed, whether `keyed_sample(mask.size, size, seed)`
    misses every True bin of the boolean `mask`.

    When the mask holds more bins than lie outside a sample, every sample
    meets it.  On `_floyd_replayable` shapes the seeds are decided a chunk
    at a time from `_floyd_draws` (`_replayed_misses`): a drawn bin in the
    mask is a hit, and a row without one misses unless the mask meets
    [n - size, n), where Floyd may have added a step's own bin.  That row,
    a row Lemire's rejection unsettled, every seed of other shapes, and
    every seed of a call whose replay does not match numpy's draw are drawn
    with `keyed_sample`, so the answer is always the keyed sample's.
    """
    n_total = mask.size
    _check_size(n_total, size)
    misses = np.zeros(len(seeds), dtype=bool)
    if np.count_nonzero(mask) > n_total - size:
        return misses
    drawn = range(len(seeds))  # rows decided by a keyed draw
    if _floyd_replayable(n_total, size):
        drawn = _replayed_misses(mask, size, seeds, misses)
    keys = seeds.tolist()
    for row in drawn:
        misses[row] = not mask[keyed_sample(n_total, size, keys[row])].any()
    return misses


def _replayed_misses(mask: np.ndarray, size: int, seeds: np.ndarray,
                     misses: np.ndarray) -> Sequence[int]:
    """Fill `misses` from `_floyd_draws` and return the rows left to a
    keyed draw.

    The replay assumes numpy's Floyd loop, Lemire's method and Philox's word
    order.  So the first two settled rows are checked first: Floyd's rule
    applied to their draws must give the set of their keyed samples.  If it
    does not, as under a numpy that draws another way, every row is left to
    a keyed draw.
    """
    n_total = mask.size
    tail_clear = not mask[n_total - size:].any()
    step = max(1, _CHUNK_ENTRIES // size)
    drawn, unchecked = [], 2
    for start in range(0, len(seeds), step):
        chunk = seeds[start:start + step]
        draws, settled = _floyd_draws(n_total, size, chunk)
        for row in np.flatnonzero(settled)[:unchecked].tolist():
            sample = keyed_sample(n_total, size, int(chunk[row]))
            if _floyd_set(draws[row], n_total) != set(sample.tolist()):
                return range(len(seeds))
            unchecked -= 1
        seen = mask[draws].any(axis=1)
        misses[start:start + step] = settled & ~seen
        drawn += (start + np.flatnonzero(~settled | (~seen & ~tail_clear))).tolist()
    return drawn


def _floyd_set(draws: np.ndarray, n_total: int) -> set[int]:
    """The bins Floyd's loop keeps from one row of settled draws: step j
    keeps its draw, or j itself when the draw is already kept."""
    kept: set[int] = set()
    for j, draw in enumerate(draws.tolist(), start=n_total - draws.size):
        kept.add(j if draw in kept else draw)
    return kept


def subsampled_query(test: ProbabilityHistogram, band: ReferenceBand,
                     size: int, seed: int) -> QueryOutcome:
    """Check a uniform random subset of bins instead of the whole grid.

    Rejection is sound: a sampled violation proves the full scan would also
    reject.  Acceptance may be a false positive; with K violating bins out of
    N, the chance of missing all of them is hypergeometric in (N, K, size) —
    see pac.analytic_false_positive for the exact law.  Identical (inputs,
    size, seed) produce the identical sampled set and verdict; the seed must
    lie in [0, 2**128).  The witness is the first violating bin in draw order.
    """
    support, diffs = support_differences(test, band.base)
    flats = keyed_sample(test.scheme.total_bins, size, seed)
    # looked up in sorted order, where searchsorted walks the support once
    order = np.argsort(flats)
    sampled = np.empty(flats.size)
    sampled[order] = gather(support, diffs, flats[order])
    hits = np.flatnonzero(sampled >= band.delta)
    witness = test.scheme.unflatten(int(flats[hits[0]])) if hits.size else None
    return QueryOutcome(inside=hits.size == 0, witness=witness, seed=seed,
                        sampled_flats=flats, sampled_diffs=sampled)


def verdict_record(outcome: QueryOutcome, delta: float,
                   eps_hat: float | None = None,
                   sup_norm: float | None = None) -> str:
    """One-line machine-readable verdict.

    Fields: verdict, delta, s, seed, witness (semicolon-joined multi-index),
    eps_hat, sup_norm.  Empty fields mean "not applicable to this mode".
    """
    fields = [
        "TRUE" if outcome.inside else "FALSE",
        repr(float(delta)),
        "" if outcome.sampled_flats is None else str(outcome.sampled_flats.size),
        "" if outcome.seed is None else str(outcome.seed),
        "" if outcome.witness is None else ";".join(str(i) for i in outcome.witness),
        "" if eps_hat is None else repr(float(eps_hat)),
        "" if sup_norm is None else repr(float(sup_norm)),
    ]
    return ",".join(fields)
