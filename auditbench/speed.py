"""Machine-speed calibration for timings on a shared host.

Neighbours on a shared host slow this process by up to half for tens of
seconds at a time, which no run length here averages out.  A fixed slice of
work is timed before, during and after each timed region.  It has the three
kinds of work the CLI does, each run once untimed (a slice often follows a
command that evicted the caches) and then timed against its own reference
duration:
interpreter-bound csv parsing and dict counting, numpy generator set-up and
small permutations, and a small HiGHS transportation LP.  The mean ratio of
the parts to their references is the speed index of the moment (1.0 = the
reference speed); a region's wall time divided by the median index around
it is its scaled time.  A region that is mostly HiGHS solves uses the LP
part alone: the interpreter-bound parts swing with neighbours' load far more
than a large LP does, and would over-correct it.  The references are the quiet-machine durations of the parts on
a 2-core Xeon sandbox, so scaled times read as seconds on that machine
undisturbed.  The raw wall times are kept next to them.

Nothing here calls the package under test, so a change to the program never
changes the calibration.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import signal
import statistics
from time import perf_counter
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Quiet-machine durations of the three parts of the slice, in seconds (the
# 10th percentile of 300 timings on the reference sandbox).
REFERENCE_S = (0.0018, 0.00075, 0.0023)
# Period of the in-region slices.  They run from a SIGALRM handler on the
# main thread between bytecodes, so a long native call (an LP solve) delays
# the next slice until it returns.
SAMPLE_INTERVAL_S = 0.5
# A region's index is the median over the slices from this long before it
# starts to the one just after it ends: a single slice is a noisy reading of
# a load that changes over seconds.
LOOKBACK_S = 2.0


def _parse_text() -> str:
    rng = np.random.default_rng(0)
    xs = rng.random(1000).tolist()
    ys = (rng.random(1000) * 80).tolist()
    rows = (f"g{i % 3},{x:.6f},{y:.6f}" for i, (x, y) in enumerate(zip(xs, ys)))
    return "group,x,y\n" + "\n".join(rows) + "\n"


def _transport_lp(n: int = 12):
    rng = np.random.default_rng(1)
    pair = np.arange(n * n)
    rows = np.concatenate([pair // n, n + pair % n])
    constraints = sparse.csr_matrix((np.ones(2 * n * n), (rows, np.concatenate([pair, pair]))),
                                    shape=(2 * n, n * n))
    return rng.random(n * n), constraints, np.full(2 * n, 1.0 / n)


_TEXT = _parse_text()
_LP = _transport_lp()


def _parse() -> None:
    counts: dict[tuple[int, int], int] = {}
    for row in csv.DictReader(io.StringIO(_TEXT)):
        key = (int(float(row["x"]) * 20), int(float(row["y"]) / 4))
        counts[key] = counts.get(key, 0) + 1


def _generators() -> None:
    for i in range(40):
        np.random.default_rng(np.random.SeedSequence((5, i))).permutation(500)


def _solve() -> None:
    cost, constraints, marginals = _LP
    linprog(cost, A_eq=constraints, b_eq=marginals, bounds=(0, None), method="highs")


PARTS = (_parse, _generators, _solve)
ALL_PARTS = (0, 1, 2)
LP_PART = (2,)


def part_ratios() -> tuple[float, ...]:
    """Each part's duration right now over its reference (garbage collection
    held off, so a collection of the program's heap is not charged to the
    machine)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = []
        for part, reference in zip(PARTS, REFERENCE_S):
            part()  # untimed: refills the caches the program's last call evicted
            start = perf_counter()
            part()
            ratios.append((perf_counter() - start) / reference)
        return tuple(ratios)
    finally:
        if enabled:
            gc.enable()


class Timing(NamedTuple):
    raw: float
    scaled: float


class Meter:
    """Times regions on the main thread and scales them to the reference speed.

    One stream of slices serves every region: a slice before and after each
    region and one every SAMPLE_INTERVAL_S while any region runs, so regions
    may nest (a set-up round around its commands).  A region's scale uses
    the median index from LOOKBACK_S before it to the slice just after it,
    and the time spent in slices inside it is subtracted from its wall time.
    """

    def __init__(self):
        self._slices: list[tuple[float, float, tuple[float, ...]]] = []  # (start, s, ratios)
        self._depth = 0
        self._in_slice = False
        self._previous_handler = None
        self.tracer = None  # when set, each slice is recorded as a `calibration` span
        part_ratios()  # first calls pay one-off library set-up

    def _slice(self, *_signal) -> None:
        if self._in_slice:
            return
        self._in_slice = True
        try:
            with self.tracer.span("calibration") if self.tracer else contextlib.nullcontext():
                start = perf_counter()
                ratios = part_ratios()
                self._slices.append((start, perf_counter() - start, ratios))
        finally:
            self._in_slice = False

    def measure(self, fn, *args, parts: tuple[int, ...] = ALL_PARTS):
        """(fn(*args), Timing), scaled by the mean ratio of the given parts."""
        if not self._slices:
            self._slice()
        first = len(self._slices) - 1
        timer = self._depth == 0
        if timer:
            self._previous_handler = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._depth += 1
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            self._depth -= 1
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, self._previous_handler)
            end = perf_counter()
        spent = sum(s for at, s, _ in self._slices[first + 1:] if start <= at <= end)
        self._slice()
        raw = end - start - spent
        index = statistics.median(sum(ratios[i] for i in parts) / len(parts)
                                  for at, _, ratios in self._slices
                                  if at >= start - LOOKBACK_S or at >= self._slices[first][0])
        return result, Timing(raw, raw / index)
