"""Span tracing around calls into the package's public functions.

`Tracer.install` replaces each listed function with a timing wrapper at every
module attribute that holds it (the defining module and each module that
imported it by name, such as `cli.ingest_csv` and `sweep.sample_flat_indices`),
and `uninstall` puts the originals back, so untraced passes run the program
unchanged.  Spans (id, parent, name, start, end, count) are kept in memory and
written out by `write`; self time and the per-layer metrics are derived from
them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

PACKAGE = "subspace_audit"
MODULES = ("cli", "config", "datasets", "fileio", "histogram", "pac", "query",
           "sweep", "transport")

# Public functions timed per layer, those the workloads' commands reach.
# Per-record helpers such as bin_record are left out: a wrapper on every CSV
# row would cost more than the row itself.
LAYER_FUNCTIONS = {
    "config": ("load_config", "scheme_from_config", "sweep_config_from"),
    "datasets": ("read_csv_records",),
    "fileio": ("atomic_write_text", "sha256_file"),
    "histogram": ("ingest_csv", "parse_histogram", "format_histogram", "normalize",
                  "read_histogram", "write_histogram"),
    "pac": ("analytic_false_positive", "sample_size"),
    "query": ("exact_query", "violation_report", "support_differences",
              "subsampled_query", "sample_flat_indices"),
    "sweep": ("trial_seed", "eps_to_delta", "violation_mask", "run_supnorm_sweep",
              "subgroup_split", "measure_from_records", "flat_bin_ids",
              "measure_from_flats", "run_wasserstein_sweep"),
    "transport": ("kantorovich_lp", "wasserstein_nd"),
}


class Tracer:
    """In-memory span recorder.

    Threads keep their own span stacks.  A span opened on a worker thread
    with an empty stack takes as parent the innermost span open on the
    thread that installed the tracer, which is the caller that started the
    pool.
    """

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.origin = time.perf_counter()
        self._counters = counters or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return 0

    @contextmanager
    def span(self, name: str, count: int = 0):
        stack = self._stack()
        parent = self._parent(stack)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, count))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, counter(*args, **kwargs) if counter else 0):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            return
        self._local.stack = self._owner_stack
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,count\n")
            for span_id, parent, name, start, end, count in self.spans:
                fh.write(f"{span_id},{parent},{name},{start - self.origin:.9f},"
                         f"{end - self.origin:.9f},{count}\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed count.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children on parallel threads are merged first, so it
    never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for span_id, _, name, start, end, count in spans:
        row = table[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - _covered(children.get(span_id, []), start, end)
        row["count"] += count
    return dict(table)
