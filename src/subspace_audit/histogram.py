"""Joint histograms over encoded features.

Records are discretized feature by feature into a fixed grid, and the joint
histogram over the Cartesian product of per-feature bins is the object every
query and baseline in this package consumes.  The product grid grows
multiplicatively with each added feature while real tables occupy a small
fraction of it, so a histogram stores only its occupied bins, as two arrays:
the sorted, unique row-major flat bin ids (`flats`, int64) and one count or
mass per id (`values`), the one read path (`gather` looks values up by id);
tuple-keyed constructors are an input convenience.  `read_flat_ids` is the
one CSV reader: `ingest_csv` counts its flat bin ids into a histogram, and
the sweep turns them into measures.

A path or a seekable binary source is read as bytes, in blocks of about
`_BLOCK_BYTES`, each cut at a line end, so the reader's memory stays flat
in the table size.  A plain block (ASCII; no quote, carriage return or
NUL; no field over `csv.field_size_limit()`) is split in numpy at its comma
and newline offsets, and its fields are located one column at a time: the
filter column of every record, then the feature columns of the kept records
only, each copied out at most once, into an array no larger than the block.
A header that is not plain or lacks a column, or the first block that is
not plain, sends the reader back to where that read started, and from there
the rest of the table goes through `csv.reader`, the only path for quoted,
CRLF and non-ASCII tables; it decodes the same 8 KiB chunks as a text read
from the start.  A text stream, or a binary one that cannot seek, is read
by `csv.reader` throughout.  All sources give identical ids, dropped counts
and error messages.

A histogram file is a `#` header block and one `j,...,z<TAB>value` line per
occupied bin.  Only the header is split into lines.  A plain body (ASCII,
each line n coordinates of digits, a tab, a count of digits or a mass of
digits and `.eE+-`, and a newline) is parsed with array operations over its
bytes; any other body, such as one with CR line ends, blank lines, padded
or signed fields or integers over 19 digits, goes through the line parser,
which defines the format.  Both give the same histogram or the same
SchemaError, and every body `format_histogram` writes is plain.

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
import warnings
from dataclasses import dataclass, replace
from itertools import compress, islice, repeat, zip_longest
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import EmptyInputError, ParameterError, SchemaError
from .fileio import atomic_write_text, read_text

Index = tuple[int, ...]

_FORMAT_HEADER = "# subspace-audit histogram v1"
# Bytes per CSV block read from a path or a seekable binary source, plus
# the rest of its last line: ingest memory stays flat in the table size.
_BLOCK_BYTES = 1 << 20
# CSV rows binned per batch on the csv.reader path.
_CHUNK_ROWS = 1 << 10
# The bytes a TextIOWrapper decodes at a time (its default `_CHUNK_SIZE`).
# A text read that goes on from a bytes read starts at a multiple of it, so
# it decodes the same chunks as a text read from the start, and reports an
# undecodable byte at the same position.
_TEXT_CHUNK = 8192


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
        return self.bin_values(np.fromiter(map(_float_or_nan, raws), float, len(raws)))

    def bin_values(self, values: np.ndarray) -> np.ndarray:
        """Continuous bin index (int64) per float value; -1 where it is NaN."""
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
        return self.join_ids([f.bin_column(c) for f, c in zip(self.features, columns)])

    def join_ids(self, ids: Sequence[np.ndarray]) -> np.ndarray:
        """Flat joint-bin id per record from one bin-index array per feature;
        -1 where any of them is -1."""
        flats = np.zeros(len(ids[0]), dtype=np.int64)
        for feature, column in zip(self.features, ids):
            flats = np.where((flats < 0) | (column < 0), -1, flats * feature.bin_count + column)
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


class ProbabilityHistogram(_SparseHistogram):
    """Non-negative masses over the joint grid; absent indices mean zero.

    `normalize` produces genuine probability vectors (masses summing to one).
    """

    def __init__(self, scheme: BinningScheme, masses: Mapping[Index, float]):
        self._store(scheme, scheme.flat_ids(list(masses)), list(masses.values()))

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


def read_flat_ids(source: Source, scheme: BinningScheme,
                  record_filter: RecordFilter | None = None) -> tuple[np.ndarray, int]:
    """Flat bin ids (int64) of the kept, binnable records of an RFC-4180 CSV
    (UTF-8, header row) in file order, and how many kept records were dropped
    for a missing or unparsable feature value.  Only kept records are binned.

    Raises SchemaError when the header lacks a feature (or filter) column or
    the source is not UTF-8 or not valid CSV, and EmptyInputError when it
    has no header or no data rows.
    """
    required = [f.name for f in scheme.features]
    if record_filter is not None:
        required.append(record_filter.column)
    close, stream, binary = _open_source(source)
    text = None if binary else stream  # the text stream read, if any
    header, chunks = None, []
    try:
        if binary:
            origin = stream.tell()
            header, offset = _read_plain_bytes(stream, required, scheme, record_filter, chunks)
            if offset is not None:  # go on as text from the chunk boundary before `offset`
                skip = offset % _TEXT_CHUNK
                stream.seek(origin + offset - skip)
                text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
                text.read(skip)  # ASCII, so `skip` characters
        if text is not None:
            _read_text(text, header, required, scheme, record_filter, chunks)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{getattr(source, 'name', source)} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise SchemaError(f"{getattr(source, 'name', source)} is not valid CSV: {exc}") from exc
    finally:
        if isinstance(text, io.TextIOWrapper) and text is not source:
            text.detach()  # leaves the binary stream open
        if close:
            stream.close()
    if not chunks:
        raise EmptyInputError("CSV source has a header but no data rows")
    flats = np.concatenate(chunks)
    return flats[flats >= 0], int(np.count_nonzero(flats < 0))


def _columns(header: list[str] | None, required: list[str]) -> list[int]:
    """Position of each required column in the header (the last duplicate
    wins)."""
    if header is None:
        raise EmptyInputError("CSV source is empty")
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in required if c not in position]
    if missing:
        raise SchemaError(f"CSV header is missing column(s): {', '.join(missing)}")
    return [position[name] for name in required]


def _read_plain_bytes(stream: IO[bytes], required: list[str], scheme: BinningScheme,
                      record_filter: RecordFilter | None,
                      chunks: list[np.ndarray]) -> tuple[list[str] | None, int | None]:
    """Bin the plain blocks of a seekable binary stream, read as bytes,
    into `chunks`, up to the first block that is not plain.

    Returns the header and None when the whole table was read, or the
    header and the offset of that block from where the stream started,
    from which the text reader goes on.  A header that is not plain, not
    valid CSV or lacks a column gives (None, 0): the text reader then starts
    over and raises what it raises.
    """
    line = stream.readline()
    try:
        header = next(csv.reader([line.decode("ascii")]), None) if _is_plain(line) else None
        picks = _columns(header, required)
    except (csv.Error, SchemaError, EmptyInputError):
        return None, 0
    offset = len(line)
    while block := stream.read(_BLOCK_BYTES):
        block += stream.readline()
        fields = _PlainFields.split(block)
        if fields is None:
            return header, offset
        offset += len(block)
        if fields.counts.size:
            chunks.append(fields.bin(picks, scheme, record_filter))
    return header, None


def _is_plain(block: bytes) -> bool:
    """Whether the bytes are ASCII with no quote, carriage return or NUL."""
    return block.isascii() and not any(c in block for c in (b'"', b"\r", b"\0"))


def _read_text(stream: IO[str], header: list[str] | None, required: list[str],
               scheme: BinningScheme, record_filter: RecordFilter | None,
               chunks: list[np.ndarray]) -> None:
    """Bin the rest of a text stream into `chunks` through `csv.reader`,
    reading its header row first unless `header` is given: the flat ids (-1
    where unbinnable) of the kept records, in batches of `_CHUNK_ROWS`."""
    rows = csv.reader(stream)
    if header is None:
        header = next(rows, None)
    picks = _columns(header, required)  # the feature columns, then the filter column
    records = filter(None, rows)  # blank lines are not records
    for chunk in iter(lambda: list(islice(records, _CHUNK_ROWS)), []):
        columns = list(zip_longest(*chunk))  # short rows pad with None
        columns += [(None,) * len(chunk)] * (len(header) - len(columns))
        picked = [columns[i] for i in picks[:scheme.n_features]]
        if record_filter is not None:  # bin only the kept records
            keep = record_filter.mask(columns[picks[-1]])
            picked = [list(compress(column, keep)) for column in picked]
        chunks.append(scheme.bin_columns(picked))


@dataclass
class _PlainFields:
    """Records of a plain CSV block: ASCII, no quote, CR or NUL, and no
    field longer than `csv.field_size_limit()`, so every comma and newline
    separates fields exactly as `csv.reader` would split them.

    `raw` holds the block's bytes, ending at a newline, and `separators`
    the offsets of its commas and newlines.  Record r (blank lines left out)
    starts at offset `starts[r]`, and its separators are `separators[firsts[r]:
    firsts[r] + counts[r] + 1]`: `counts[r]` commas, then its newline.  So
    field c of the record ends at `separators[firsts[r] + c]`.  Fields are
    located one column at a time, for the records still wanted: the filter
    column of every record, the feature columns of the kept ones.
    """

    raw: np.ndarray
    separators: np.ndarray
    starts: np.ndarray
    firsts: np.ndarray
    counts: np.ndarray

    @classmethod
    def split(cls, block: bytes) -> "_PlainFields | None":
        """Records of a block that ends at a line end or at the end of the
        table, or None when the block is not plain."""
        if not _is_plain(block):
            return None
        raw = np.frombuffer(block if block.endswith(b"\n") else block + b"\n", np.uint8)
        separators = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        lasts = np.flatnonzero(raw[separators] == ord("\n"))  # each line's newline
        firsts = np.concatenate(([0], lasts[:-1] + 1))
        counts = lasts - firsts
        starts = np.concatenate(([0], separators[lasts[:-1]] + 1))
        lengths = separators[lasts] - starts
        limit = csv.field_size_limit()
        if int(lengths.max()) > limit and int(np.diff(separators, prepend=-1).max()) - 1 > limit:
            return None
        records = (counts > 0) | (lengths > 0)  # blank lines are not records
        return cls(raw, separators, starts[records], firsts[records], counts[records])

    def column(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of field c of each record; length -1 where the
        record is too short to have it."""
        after = self.firsts + c  # the separator that ends field c
        stops = self.separators.take(after, mode="clip")
        starts = self.starts if c == 0 else self.separators.take(after - 1, mode="clip") + 1
        return starts, np.where(c <= self.counts, stops - starts, -1)

    def matches(self, c: int, value: str) -> np.ndarray:
        """Per record, whether field c is present and equals `value`; no
        field of a plain block equals a value that is not ASCII."""
        if not value.isascii():
            return np.zeros(self.starts.size, bool)
        starts, lengths = self.column(c)
        target = np.frombuffer(value.encode("ascii"), np.uint8)
        equal = lengths == target.size
        at = np.flatnonzero(equal)
        if target.size and at.size:  # a field's window ends before its separator
            windows = np.lib.stride_tricks.sliding_window_view(self.raw, target.size)
            equal[at] = (windows[starts[at]] == target).all(axis=1)
        return equal

    def strings(self, c: int) -> np.ndarray | None:
        """Field c of each record as a fixed-width bytes array; b"" where
        the field is empty or missing.  None when that array would be larger
        than the block, as when one field is far longer than the rest."""
        starts, lengths = self.column(c)
        width = max(1, int(lengths.max(initial=0)))
        if width * starts.size > self.raw.size:
            return None
        last = self.raw.size - width  # the last window that fits in the block
        rows = np.lib.stride_tricks.sliding_window_view(self.raw, width)[np.minimum(starts, last)]
        for r in np.flatnonzero(starts > last).tolist():  # a field near the block's end
            shift = int(starts[r]) - last
            rows[r, :width - shift] = rows[r, shift:]
        rows[np.arange(width) >= lengths[:, None]] = 0  # bytes past the field
        return rows.view(f"S{width}")[:, 0]

    def texts(self, c: int) -> list[str | None]:
        """Field c of each record as a str; None where it is missing."""
        starts, lengths = self.column(c)
        data = self.raw.tobytes()
        return [data[s:s + n].decode("ascii") if n >= 0 else None
                for s, n in zip(starts.tolist(), lengths.tolist())]

    def bin(self, picks: list[int], scheme: BinningScheme,
            record_filter: RecordFilter | None) -> np.ndarray:
        """Flat ids (-1 where unbinnable) of the records the filter keeps;
        `picks` are the feature columns, then the filter column."""
        fields = self
        if record_filter is not None:  # bin only the kept records
            keep = self.matches(picks[-1], record_filter.value) != record_filter.negate
            fields = replace(self, starts=self.starts[keep], firsts=self.firsts[keep],
                             counts=self.counts[keep])
        ids = []
        for feature, c in zip(scheme.features, picks):
            raws = fields.strings(c)
            if raws is None:  # a fixed-width copy would outgrow the block
                ids.append(feature.bin_column(fields.texts(c)))
                continue
            if feature.kind == "categorical":
                unique, inverse = np.unique(raws, return_inverse=True)
                ids.append(feature.bin_column(unique.astype(str).tolist())[inverse])
                continue
            values = np.full(raws.size, math.nan)
            filled = raws != b""
            try:
                values[filled] = raws[filled].astype(np.float64)
            except ValueError:  # a value float() rejects: parse the odd ones in Python
                decimal = filled & _decimals(raws)
                values[decimal] = raws[decimal].astype(np.float64)
                odd = filled & ~decimal
                values[odd] = list(map(_float_or_nan, raws[odd].astype(str).tolist()))
            ids.append(feature.bin_values(values))
        return scheme.join_ids(ids)


def _decimals(raws: np.ndarray) -> np.ndarray:
    """Per fixed-width bytes value, whether it is a sign, digits and at most
    one point, with at least one digit: a float() literal, which numpy casts
    as float() reads it."""
    data = np.ascontiguousarray(raws).view(np.uint8).reshape(raws.size, raws.itemsize)
    digit = data - np.uint8(ord("0")) < 10
    point = data == ord(".")
    sign = np.zeros_like(digit)
    sign[:, 0] = (data[:, 0] == ord("+")) | (data[:, 0] == ord("-"))
    return ((digit | point | sign | (data == 0)).all(axis=1) & (point.sum(axis=1) <= 1)
            & digit.any(axis=1))


def ingest_csv(source: Source, scheme: BinningScheme,
               record_filter: RecordFilter | None = None) -> JointHistogram:
    """Count `read_flat_ids` into a joint histogram; dropped records are
    tallied in `skipped`.  Raises what `read_flat_ids` raises, and
    EmptyInputError when no record survives (a total is never zero)."""
    flats, dropped = read_flat_ids(source, scheme, record_filter)
    if flats.size + dropped == 0:
        raise EmptyInputError("no records matched the filter")
    if flats.size == 0:
        raise EmptyInputError("all matching records had missing or unparsable feature values")
    ids, counts = np.unique(flats, return_counts=True)
    return JointHistogram.from_flats(scheme, ids, counts, int(flats.size), dropped)


def _open_source(source: Source) -> tuple[bool, IO, bool]:
    """(whether to close it, the stream to read, whether that stream is
    binary): a path or a seekable binary file object is read as bytes in
    blocks, any other binary source through a UTF-8 text layer, by
    `csv.reader`."""
    if isinstance(source, (str, os.PathLike)):
        return True, open(source, "rb"), True
    if not hasattr(source, "read"):
        raise ParameterError("source must be a path or a readable file object")
    if isinstance(source, io.TextIOBase) or isinstance(source.read(0), str):
        return False, source, False  # a text stream, or a text-mode duck type
    if isinstance(source, io.IOBase) and source.seekable():
        return False, source, True
    return False, io.TextIOWrapper(source, encoding="utf-8", newline=""), False


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
    template = ",".join(["{}"] * hist.scheme.n_features) + "\t{!r}"
    coords = [axis.tolist() for axis in np.unravel_index(hist.flats, hist.scheme.shape)]
    lines += map(template.format, *coords, hist.values.tolist())
    return "\n".join(lines) + "\n"


def parse_histogram(text: str) -> JointHistogram | ProbabilityHistogram:
    """Parse the plain-text exchange format back into a histogram.

    Only the `#` header block is split into lines.  A plain body is parsed
    with array operations (`_plain_body`); any other body goes through the
    line parser (`_parse_lines`), which defines the format.  Both give the
    same histogram.  Any malformed line, a non-integer total, or a bin
    listed twice raises SchemaError.
    """
    head_end = _header_end(text)
    lines = text[:head_end].splitlines()
    if not lines or lines[0] != _FORMAT_HEADER:
        raise SchemaError("not a subspace-audit histogram file")
    kind = None
    totals: dict[str, int] = {}
    features: list[FeatureSpec] = []
    body_start = len(lines)
    for lineno, line in enumerate(lines[1:], start=1):
        if not line.startswith("#"):  # a header line cut by a CR or another line break
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
    body = text[head_end:]
    fields = _plain_body(body, scheme.n_features, kind) if body_start == len(lines) else None
    if fields is None:
        fields = _parse_lines(lines[body_start:] + body.splitlines(), scheme.n_features, kind)
    coords, values = fields
    try:
        flats = scheme.flat_ids(coords)
        if kind == "counts":
            total = totals.get("total", sum(values.tolist()))
            return JointHistogram.from_flats(scheme, flats, values, total, totals.get("skipped", 0))
        return ProbabilityHistogram.from_flats(scheme, flats, values)
    except (ParameterError, IndexError) as exc:
        raise SchemaError(f"inconsistent histogram file: {exc}") from exc


def _header_end(text: str) -> int:
    """Offset just past the first line and the `#` lines after it, each cut
    at a newline."""
    end = text.find("\n") + 1 or len(text)
    while text.startswith("#", end):
        end = text.find("\n", end) + 1 or len(text)
    return end


def _parse_lines(lines: list[str], n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Bin coordinates (m x n, int64) and values of data lines, read one line
    at a time; blank lines are skipped.  This parser defines the format."""
    rows = list(map(str.partition, filter(str.strip, lines), repeat("\t")))
    heads, tabs, tails = zip(*rows) if rows else ((), (), ())
    try:
        if "" in tabs or set(map(str.count, heads, repeat(","))) - {n - 1}:
            raise ValueError(f"expected {n} comma-separated bin coordinates and a tab")
        coords = np.array(",".join(heads).split(",") if rows else [], dtype=np.int64)
        values = np.array(tails, dtype=np.int64 if kind == "counts" else float)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed histogram data line: {exc}") from exc
    return coords.reshape(-1, n), values


# Bytes a plain body may hold: digits and separators, and `.eE+-` in masses.
_COUNT_BYTES = np.zeros(256, bool)
_COUNT_BYTES[list(b"0123456789,\t\n")] = True
_MASS_BYTES = _COUNT_BYTES.copy()
_MASS_BYTES[list(b".eE+-")] = True
# 10**k for each digit place of an integer of up to 19 digits (uint64).
_POWERS = 10 ** np.arange(19, dtype=np.uint64)


def _plain_body(body: str, n: int, kind: str) -> tuple[np.ndarray, np.ndarray] | None:
    """What `_parse_lines` returns for a plain body, parsed with array
    operations over its bytes; None when the body is not plain.

    A plain body is ASCII, and each of its lines (the last newline may be
    missing) is n comma-separated coordinates, a tab and a value, where
    every coordinate and count has 1 to 19 digits and fits int64 and every
    mass is made of digits and `.eE+-` and is a float() literal.  Anything
    else (CR, blank or padded lines, signs or underscores in integers, a
    wrong comma or tab count) is left to the line parser.
    """
    if not body.isascii():
        return None
    if body and not body.endswith("\n"):
        body += "\n"
    raw = np.frombuffer(body.encode("ascii"), np.uint8)
    if not (_COUNT_BYTES if kind == "counts" else _MASS_BYTES)[raw].all():
        return None
    digits = raw - np.uint8(ord("0"))  # 10 or more for any other byte
    tabs, newlines = raw == ord("\t"), raw == ord("\n")
    separators = (raw == ord(",")) | tabs | newlines
    ends = np.flatnonzero(separators)
    m, rest = divmod(ends.size, n + 1)
    layout = np.frombuffer(b"," * (n - 1) + b"\t\n", np.uint8)
    if rest or not (raw[ends].reshape(m, n + 1) == layout).all():
        return None
    columns = n + 1 if kind == "counts" else n  # the integer fields of a line
    lengths = np.diff(ends, prepend=-1).reshape(m, n + 1) - 1
    sizes = lengths[:, :columns].ravel()
    width = int(sizes.max(initial=1))
    if sizes.min(initial=1) < 1 or width > 19:
        return None
    # each integer field's value, one digit place at a time from its end
    at = ends.reshape(m, n + 1)[:, :columns].flatten()
    integers = np.zeros(sizes.size, np.uint64)
    for place in range(width):
        at -= 1
        digit = digits[at] * (place < sizes)  # 0 before the field's start
        if digit.max(initial=0) > 9:  # a mass character in a coordinate
            return None
        # dtype given: numpy 1.x keeps uint8 * uint64 scalar in uint8, wrapping
        integers += np.multiply(digit, _POWERS[place], dtype=np.uint64)
    integers = integers.view(np.int64).reshape(m, columns)
    if integers.min(initial=0) < 0:  # past int64 (19 digits fit uint64)
        return None
    if kind == "counts":
        return integers[:, :n], integers[:, n]
    # masses: each value's bytes (from its tab to its newline), joined by
    # commas for numpy's text parser, which reads these literals as float()
    # does and refuses the rest (older numpy only warned and kept what it had
    # read so far, so that warning is a refusal too)
    in_mass = np.cumsum(tabs.view(np.int8) - newlines.view(np.int8), dtype=np.int8)
    joined = raw[in_mass.view(bool)]
    joined[joined == ord("\t")] = ord(",")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            masses = np.fromstring(joined[1:].tobytes(), sep=",")
    except (ValueError, DeprecationWarning):
        return None
    return (integers, masses) if masses.size == m else None


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
