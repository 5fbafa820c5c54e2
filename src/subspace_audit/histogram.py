"""Joint histograms over encoded features.

Records are discretized feature by feature into a fixed grid, and the joint
histogram over the Cartesian product of per-feature bins is the object every
query and baseline in this package consumes.  The product grid grows
multiplicatively with each added feature while real tables occupy a small
fraction of it, so a histogram stores only its occupied bins, as two arrays:
the sorted, unique row-major flat bin ids (`flats`, int64) and one count or
mass per id (`values`).  Tuple-keyed views (`counts`, `masses`) are built on
request.

All histogram types are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
from dataclasses import dataclass
from itertools import compress, islice, repeat, zip_longest
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import EmptyInputError, ParameterError, SchemaError
from .fileio import atomic_write_text, read_text

Index = tuple[int, ...]

_FORMAT_HEADER = "# subspace-audit histogram v1"
# CSV rows binned per batch: ingest memory stays flat in the table size.
_CHUNK_ROWS = 1 << 10


@dataclass(frozen=True)
class FeatureSpec:
    """One encoded feature: an equal-width continuous grid or a category list."""

    name: str
    kind: str  # "continuous" | "categorical"
    lower: float = 0.0
    upper: float = 0.0
    bins: int = 0
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ParameterError("feature name must be a non-empty string")
        if self.kind == "continuous":
            if not self.lower < self.upper:
                raise ParameterError(f"feature {self.name!r}: lower must be below upper")
            if self.bins < 1:
                raise ParameterError(f"feature {self.name!r}: needs at least one bin")
        elif self.kind == "categorical":
            object.__setattr__(self, "categories", tuple(self.categories))
            if not self.categories:
                raise ParameterError(f"feature {self.name!r}: empty category list")
            if len(set(self.categories)) != len(self.categories):
                raise ParameterError(f"feature {self.name!r}: duplicate categories")
        else:
            raise ParameterError(f"feature {self.name!r}: unknown kind {self.kind!r}")

    @classmethod
    def continuous(cls, name: str, lower: float, upper: float, bins: int) -> "FeatureSpec":
        return cls(name=name, kind="continuous", lower=float(lower), upper=float(upper), bins=int(bins))

    @classmethod
    def categorical(cls, name: str, categories: Iterable[str]) -> "FeatureSpec":
        return cls(name=name, kind="categorical", categories=tuple(categories))

    @property
    def bin_count(self) -> int:
        return self.bins if self.kind == "continuous" else len(self.categories)

    def bin_of(self, raw: str | None) -> int | None:
        """Bin index for a raw CSV value, or None when missing/unparsable."""
        idx = int(self.bin_column([raw])[0])
        return None if idx < 0 else idx

    def bin_column(self, raws: Sequence[str | None]) -> np.ndarray:
        """Bin index (int64) per raw CSV value; -1 where missing or unparsable.

        Continuous values use equal-width bins over [lower, upper]; values
        outside the range clamp to the boundary bins, and v == upper lands in
        the last bin.  Categorical values must match a declared category
        exactly once surrounding whitespace is stripped.
        """
        if self.kind == "categorical":
            lookup = {c: i for i, c in enumerate(self.categories) if c}
            codes = {raw: lookup.get(raw.strip(), -1) if raw else -1 for raw in set(raws)}
            return np.fromiter(map(codes.__getitem__, raws), np.int64, len(raws))
        values = np.fromiter(map(_float_or_nan, raws), float, len(raws))
        with np.errstate(invalid="ignore", over="ignore"):
            idx = np.floor(self.bins * (values - self.lower) / (self.upper - self.lower))
        idx = np.clip(idx, 0, self.bins - 1)
        return np.where(np.isnan(idx), -1, idx).astype(np.int64)

    def centers(self) -> tuple[float, ...]:
        """Representative coordinate per bin: midpoints, or integer category codes."""
        if self.kind == "categorical":
            return tuple(float(i) for i in range(len(self.categories)))
        width = (self.upper - self.lower) / self.bins
        return tuple(self.lower + (i + 0.5) * width for i in range(self.bins))


def _float_or_nan(raw: str | None) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True)
class BinningScheme:
    """Ordered feature grid; the joint domain has prod(per-feature bins) cells.

    Two schemes are compatible only when equal field by field, so histograms
    built from different configurations never silently mix.  Flat bin ids are
    int64, so the grid may hold at most 2**63 - 1 cells.
    """

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise ParameterError("scheme needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate feature names in scheme")
        if self.total_bins > np.iinfo(np.int64).max:
            raise ParameterError("joint grid has more than 2**63 - 1 bins")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.bin_count for f in self.features)

    @property
    def total_bins(self) -> int:
        return math.prod(self.shape)

    def validate_index(self, idx: Index) -> None:
        """Raise IndexError unless `idx` is a multi-index of this grid."""
        self.flat_ids([tuple(idx)])

    def flatten(self, idx: Index) -> int:
        """Row-major flat id of a multi-index."""
        return int(self.flat_ids([tuple(idx)])[0])

    def unflatten(self, flat: int) -> Index:
        """Multi-index of a row-major flat id (mixed-radix decoding)."""
        return tuple(map(int, np.unravel_index(flat, self.shape)))

    def flat_ids(self, indices: Sequence[Index]) -> np.ndarray:
        """Row-major flat ids (int64) of many multi-indices; IndexError off the grid."""
        try:
            coords = np.array(indices, dtype=np.int64).reshape(len(indices), self.n_features)
            return np.ravel_multi_index(tuple(coords.T), self.shape).astype(np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise IndexError(f"bin index outside the {self.shape} grid") from exc

    def indices(self, flats: np.ndarray) -> tuple[Index, ...]:
        """Multi-indices of an array of flat ids, in the same order."""
        return tuple(zip(*(axis.tolist() for axis in np.unravel_index(flats, self.shape))))

    def bin_columns(self, columns: Sequence[Sequence[str | None]]) -> np.ndarray:
        """Flat joint-bin id per record from one raw column per feature.

        A record with a missing or unparsable value in any feature gets -1.
        """
        flats = np.zeros(len(columns[0]), dtype=np.int64)
        for feature, column in zip(self.features, columns):
            ids = feature.bin_column(column)
            flats = np.where((flats < 0) | (ids < 0), -1, flats * feature.bin_count + ids)
        return flats


def gather(flats: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The value stored for each id in `at`; zero for ids absent from the
    sorted, unique `flats`."""
    if flats.size == 0:
        return np.zeros(len(at), dtype=values.dtype)
    pos = np.minimum(np.searchsorted(flats, at), flats.size - 1)
    return np.where(flats[pos] == at, values[pos], 0)


@dataclass(frozen=True, eq=False, init=False)
class _SparseHistogram:
    """Occupied bins: sorted unique int64 flat ids and one value per id."""

    scheme: BinningScheme
    flats: np.ndarray
    values: np.ndarray
    _dtype, _unit = float, "mass"

    @classmethod
    def from_flats(cls, scheme: BinningScheme, flats, values, *totals):
        """Build from flat bin ids (any order, no repeats) and their values;
        a JointHistogram also takes `total` and `skipped` after them."""
        hist = cls.__new__(cls)
        hist._store(scheme, flats, values, *totals)
        return hist

    def _store(self, scheme: BinningScheme, flats, values) -> None:
        flats = np.array(flats, dtype=np.int64)
        order = np.argsort(flats, kind="stable")
        flats, values = flats[order], np.array(values, dtype=self._dtype)[order]
        if flats.size and not 0 <= flats[0] <= flats[-1] < scheme.total_bins:
            raise IndexError(f"flat bin id outside the {scheme.shape} grid")
        for bad, problem in ((flats[1:] == flats[:-1], "is listed twice"),
                             (~np.isfinite(values) | (values < 0),
                              f"has a {self._unit} that is not finite and non-negative")):
            if np.any(bad):
                idx = scheme.unflatten(int(flats[np.flatnonzero(bad)[0]]))
                raise ParameterError(f"bin {idx} {problem}")
        flats.flags.writeable = values.flags.writeable = False
        for name, value in (("scheme", scheme), ("flats", flats), ("values", values)):
            object.__setattr__(self, name, value)

    def _mapping(self) -> dict:
        return dict(zip(self.scheme.indices(self.flats), self.values.tolist()))

    def _value(self, idx: Index):
        try:
            at = self.scheme.flat_ids([tuple(idx)])
        except IndexError:
            at = np.array([-1])  # off the grid, so never stored
        return gather(self.flats, self.values, at).item()


@dataclass(frozen=True, eq=False, init=False)
class JointHistogram(_SparseHistogram):
    """Raw counts over the joint grid; absent indices mean zero.

    `skipped` counts records that were dropped during ingestion because a
    feature value was missing or unparsable; they are reported, never imputed.
    """

    total: int
    skipped: int
    _dtype, _unit = np.int64, "count"

    def __init__(self, scheme: BinningScheme, counts: Mapping[Index, int], total: int,
                 skipped: int = 0):
        self._store(scheme, scheme.flat_ids(list(counts)), list(counts.values()), total, skipped)

    def _store(self, scheme, flats, values, total, skipped=0) -> None:
        super()._store(scheme, flats, values)
        if total != sum(self.values.tolist()):
            raise ParameterError("total does not match the sum of counts")
        if skipped < 0:
            raise ParameterError("skipped count must be non-negative")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "skipped", skipped)

    counts = property(_SparseHistogram._mapping, doc="{multi-index: count}, built on access.")
    count = _SparseHistogram._value  # count(idx) -> int, zero off the support


class ProbabilityHistogram(_SparseHistogram):
    """Non-negative masses over the joint grid; absent indices mean zero.

    `normalize` produces genuine probability vectors (masses summing to one).
    """

    def __init__(self, scheme: BinningScheme, masses: Mapping[Index, float]):
        self._store(scheme, scheme.flat_ids(list(masses)), list(masses.values()))

    masses = property(_SparseHistogram._mapping, doc="{multi-index: mass}, built on access.")
    mass = _SparseHistogram._value  # mass(idx) -> float, zero off the support

    def total_mass(self) -> float:
        return math.fsum(self.values.tolist())


@dataclass(frozen=True)
class RecordFilter:
    """Equality test on one column; negate=True keeps the complement instead."""

    column: str
    value: str
    negate: bool = False

    def mask(self, raws: Sequence[str | None]) -> np.ndarray:
        """Keep flag per record, given the filter column's raw values."""
        compare = operator.ne if self.negate else operator.eq
        return np.fromiter(map(compare, raws, repeat(self.value)), bool, len(raws))


Source = Union[str, os.PathLike, IO[str], IO[bytes]]


def ingest_csv(source: Source, scheme: BinningScheme,
               record_filter: RecordFilter | None = None) -> JointHistogram:
    """Read an RFC-4180 CSV (UTF-8, header row) into a joint histogram.

    Every surviving record increments exactly one bin.  Records with a
    missing or unparsable value in any scheme feature are excluded and
    tallied in the result's `skipped` field.

    Raises SchemaError when the header lacks a feature (or filter) column or
    the source is not UTF-8 or not valid CSV, and EmptyInputError when no
    records survive — a zero-total histogram is never produced.
    """
    close, stream = _as_text_stream(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyInputError("CSV source is empty")
        position = {name: i for i, name in enumerate(header)}  # last duplicate wins
        required = [f.name for f in scheme.features]
        if record_filter is not None:
            required.append(record_filter.column)
        missing = [c for c in required if c not in position]
        if missing:
            raise SchemaError(f"CSV header is missing column(s): {', '.join(missing)}")
        records = filter(None, reader)  # blank lines are not records
        chunks = []
        for chunk in iter(lambda: list(islice(records, _CHUNK_ROWS)), []):
            columns = list(zip_longest(*chunk))  # short rows pad with None
            columns += [(None,) * len(chunk)] * (len(header) - len(columns))
            picked = [columns[position[f.name]] for f in scheme.features]
            if record_filter is not None:  # bin only the kept records
                keep = record_filter.mask(columns[position[record_filter.column]])
                picked = [list(compress(column, keep)) for column in picked]
            chunks.append(scheme.bin_columns(picked))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{getattr(source, 'name', source)} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{getattr(source, 'name', source)} is not valid CSV: {exc}") from exc
    finally:
        if close:
            stream.close()
        elif isinstance(stream, io.TextIOWrapper) and stream is not source:
            stream.detach()
    if not chunks:
        raise EmptyInputError("CSV source has a header but no data rows")
    flats = np.concatenate(chunks)
    if flats.size == 0:
        raise EmptyInputError("no records matched the filter")
    binned = flats[flats >= 0]
    if binned.size == 0:
        raise EmptyInputError("all matching records had missing or unparsable feature values")
    ids, counts = np.unique(binned, return_counts=True)
    return JointHistogram.from_flats(scheme, ids, counts, int(binned.size),
                                     int(flats.size - binned.size))


def _as_text_stream(source: Source) -> tuple[bool, IO[str]]:
    if isinstance(source, (str, os.PathLike)):
        return True, open(source, "r", encoding="utf-8", newline="")
    if not hasattr(source, "read"):
        raise ParameterError("source must be a path or a readable file object")
    if isinstance(source, io.TextIOBase):
        return False, source
    probe = source.read(0)
    if isinstance(probe, str):
        return False, source  # text-mode duck type
    return False, io.TextIOWrapper(source, encoding="utf-8", newline="")


def normalize(hist: JointHistogram) -> ProbabilityHistogram:
    """Turn raw counts into bin masses on the same scheme."""
    if hist.total <= 0:
        raise EmptyInputError("cannot normalize a histogram with zero total")
    occupied = hist.values > 0
    return ProbabilityHistogram.from_flats(hist.scheme, hist.flats[occupied],
                                           hist.values[occupied] / float(hist.total))


# --- plain-text exchange format ---------------------------------------------
#
# Header block ('#'-prefixed): format tag, kind (counts|masses), totals, then
# one JSON line per feature.  Data lines: comma-joined multi-index, a tab, and
# the count or mass.  Bins are written in sorted order so identical histograms
# serialize byte-identically; a bin may appear on one line only.


def format_histogram(hist: JointHistogram | ProbabilityHistogram) -> str:
    """Serialize a histogram to the plain-text exchange format."""
    lines = [_FORMAT_HEADER]
    if isinstance(hist, JointHistogram):
        lines += ["# kind: counts", f"# total: {hist.total}", f"# skipped: {hist.skipped}"]
    else:
        lines.append("# kind: masses")
    lines += ["# feature: " + json.dumps(_feature_to_json(f)) for f in hist.scheme.features]
    lines += [",".join(map(str, idx)) + "\t" + repr(v)
              for idx, v in zip(hist.scheme.indices(hist.flats), hist.values.tolist())]
    return "\n".join(lines) + "\n"


def parse_histogram(text: str) -> JointHistogram | ProbabilityHistogram:
    """Parse the plain-text exchange format back into a histogram.

    Any malformed line, a non-integer total, or a bin listed twice raises
    SchemaError.
    """
    lines = text.splitlines()
    if not lines or lines[0] != _FORMAT_HEADER:
        raise SchemaError("not a subspace-audit histogram file")
    kind = None
    totals: dict[str, int] = {}
    features: list[FeatureSpec] = []
    body_start = len(lines)
    for lineno, line in enumerate(lines[1:], start=1):
        if not line.startswith("#"):
            body_start = lineno
            break
        key, _, value = line[1:].partition(":")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            kind = value
        elif key in ("total", "skipped"):
            try:
                totals[key] = int(value)
            except ValueError as exc:
                raise SchemaError(f"malformed header line in histogram file: {line!r}") from exc
        elif key == "feature":
            features.append(_feature_from_json(value))
        else:
            raise SchemaError(f"unknown header line in histogram file: {line!r}")
    if kind not in ("counts", "masses"):
        raise SchemaError(f"histogram file declares no valid kind (got {kind!r})")
    if not features:
        raise SchemaError("histogram file declares no features")
    scheme = BinningScheme(features=tuple(features))
    n = scheme.n_features
    rows = list(map(str.partition, filter(str.strip, lines[body_start:]), repeat("\t")))
    heads, tabs, tails = zip(*rows) if rows else ((), (), ())
    try:
        if "" in tabs or set(map(str.count, heads, repeat(","))) - {n - 1}:
            raise ValueError(f"expected {n} comma-separated bin coordinates and a tab")
        coords = np.array(",".join(heads).split(",") if rows else [], dtype=np.int64)
        values = np.array(tails, dtype=np.int64 if kind == "counts" else float)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed histogram data line: {exc}") from exc
    try:
        flats = scheme.flat_ids(coords.reshape(-1, n))
        if kind == "counts":
            total = totals.get("total", sum(values.tolist()))
            return JointHistogram.from_flats(scheme, flats, values, total, totals.get("skipped", 0))
        return ProbabilityHistogram.from_flats(scheme, flats, values)
    except (ParameterError, IndexError) as exc:
        raise SchemaError(f"inconsistent histogram file: {exc}") from exc


def write_histogram(hist: JointHistogram | ProbabilityHistogram, path: str) -> None:
    atomic_write_text(str(path), format_histogram(hist))


def read_histogram(path: str) -> JointHistogram | ProbabilityHistogram:
    return parse_histogram(read_text(path))


def _feature_to_json(feature: FeatureSpec) -> dict:
    if feature.kind == "continuous":
        return {"name": feature.name, "kind": "continuous",
                "lower": feature.lower, "upper": feature.upper, "bins": feature.bins}
    return {"name": feature.name, "kind": "categorical", "categories": list(feature.categories)}


def _feature_from_json(payload: str) -> FeatureSpec:
    try:
        data = json.loads(payload)
        if data["kind"] == "continuous":
            return FeatureSpec.continuous(data["name"], data["lower"], data["upper"], data["bins"])
        if data["kind"] == "categorical":
            return FeatureSpec.categorical(data["name"], data["categories"])
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise SchemaError(f"malformed feature line in histogram file: {payload!r}") from exc
    raise SchemaError(f"unknown feature kind in histogram file: {payload!r}")
