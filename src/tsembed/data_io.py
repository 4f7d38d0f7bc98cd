"""Dataset loading, validation, saving, and group-disjoint splitting.

Two on-disk layouts are supported:

long CSV   header ``series_id,group,channel,t,value,label``; one row per
           (series, channel, timestep). Every series must cover the full
           channels x timesteps grid. Series may have different lengths.

wide CSV   optional first comment line ``# channels=C``; header
           ``series_id,group,label,c0_t0,...,c{C-1}_t{T-1}``; one row per
           series, channel-major flattened values. All series share one T.

Labels are arbitrary tokens in the files and are mapped to dense 0-based ids
in first-appearance order (file order), so the mapping depends only on file
content. Splitting assigns whole groups to train/val/test, never splitting a
group across sides.

Both loaders first read the data rows as columns with numpy's C text reader
and check them as arrays (long CSV: one sort by series, t and channel shows
duplicates, gaps, conflicting labels and second groups). The row loop
(``_long_rows``, ``_wide_rows``) reads the file instead when it is not
quote-free ASCII, when numpy cannot parse a field, and on any value or grid
the row loop would reject. It is the only code that raises parse and schema
errors, so their messages and line numbers do not depend on the path taken.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .rng import Xoshiro256StarStar


@dataclass
class SeriesRecord:
    """One multivariate series: values is (T, C), labels is length T."""

    series_id: str
    group: str
    values: np.ndarray
    labels: np.ndarray


@dataclass
class TimeSeriesDataset:
    series: list[SeriesRecord] = field(default_factory=list)
    n_channels: int = 0
    label_alphabet: list[str] = field(default_factory=list)

    def validate(self) -> None:
        """Raise if any record violates the dataset contract."""
        if self.n_channels < 1:
            raise DataError("dataset must have at least one channel")
        seen_ids = set()
        for rec in self.series:
            if rec.series_id in seen_ids:
                raise SchemaError(f"duplicate series_id {rec.series_id!r}")
            seen_ids.add(rec.series_id)
            if rec.values.ndim != 2 or rec.values.shape[1] != self.n_channels:
                raise SchemaError(
                    f"series {rec.series_id!r} has channel count "
                    f"{rec.values.shape[1] if rec.values.ndim == 2 else '?'}, "
                    f"expected {self.n_channels}"
                )
            if rec.values.shape[0] < 1:
                raise DataError(f"series {rec.series_id!r} is empty")
            if rec.labels.shape != (rec.values.shape[0],):
                raise SchemaError(f"series {rec.series_id!r} label length mismatch")
            if not np.all(np.isfinite(rec.values)):
                raise DataError(f"series {rec.series_id!r} contains NaN or Inf")
            if rec.labels.min() < 0 or rec.labels.max() >= len(self.label_alphabet):
                raise DataError(f"series {rec.series_id!r} has label id outside alphabet")


class _LabelAlphabet:
    """Token -> dense id mapping in first-appearance order."""

    def __init__(self) -> None:
        self.tokens: list[str] = []
        self._index: dict[str, int] = {}

    def id_for(self, token: str) -> int:
        if token not in self._index:
            self._index[token] = len(self.tokens)
            self.tokens.append(token)
        return self._index[token]


@contextmanager
def open_text(path: str):
    """Open a UTF-8 text file to read; undecodable bytes raise ParseError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 ({e.reason})") from None


def _parse_float(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: non-finite value {text!r}")
    return value


def _parse_int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {line_no}: {what} {text!r} is not an integer") from None


def _read_columns(path: str, dtype: np.dtype, skiprows: int) -> np.ndarray | None:
    """The data rows as one structured array, read by numpy's C reader; None
    where the row loop must decide.

    Only quote-free ASCII files without NUL or the bytes 0x1c-0x1f, and
    without a line longer than csv.reader's field size limit, take this path:
    csv.reader strips quotes that numpy would keep, and it stops on an
    overlong field and (before Python 3.11) on NUL; numpy parses some
    non-ASCII digits and those separator bytes in numbers where Python's
    int() and float() refuse them. On such files both readers split the same
    lines into the same fields, and every number numpy accepts is the one
    int() or float() returns.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii() or any(b in raw for b in (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e",
                                                    b"\x1f")):
        return None
    limit = csv.field_size_limit()
    if len(raw) > limit:
        newlines = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        if np.diff(newlines, prepend=-1, append=len(raw)).max() > limit:
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows: the row loop says so
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                              quotechar=None, skiprows=skiprows, ndmin=1, encoding="ascii")
    except ValueError:
        return None
    return rows if len(rows) else None


def _codes(column: np.ndarray) -> tuple[np.ndarray, list]:
    """First-appearance ids of an object column's values, and the values in
    that order. Rows of a series come in runs, so only run heads are hashed."""
    heads = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    index: dict = {}
    head_ids = np.array([index.setdefault(v, len(index)) for v in column[heads].tolist()],
                        dtype=np.int64)
    return np.repeat(head_ids, np.diff(heads, append=len(column))), list(index)


_LONG_DTYPE = np.dtype([("series_id", "O"), ("group", "O"), ("channel", "i8"),
                        ("t", "i8"), ("value", "f8"), ("label", "O")])


def _long_columns(path: str) -> TimeSeriesDataset | None:
    """The long layout from sorted columns; None on anything the row loop
    would reject, or that it might read differently."""
    rows = _read_columns(path, _LONG_DTYPE, skiprows=1)
    if rows is None:
        return None
    sid, ids = _codes(rows["series_id"])
    gid, groups = _codes(rows["group"])
    lid, alphabet = _codes(rows["label"])
    channel, t, value = (np.ascontiguousarray(rows[f]) for f in ("channel", "t", "value"))
    del rows  # drop the object columns before the records are built
    n_channels = int(channel.max()) + 1  # a grid has C rows or more; keeps C in int64
    if not 1 <= n_channels <= len(value) or not np.isfinite(value).all():
        return None
    # Sorted by (series, t, channel), a complete grid from 0 reads
    # t = pos // C, channel = pos % C at position pos within its series;
    # that also rules out duplicates and missing, negative or extra cells.
    order = np.lexsort((channel, t, sid))
    sid, gid, lid, channel, t, value = (a[order] for a in (sid, gid, lid, channel, t, value))
    starts = np.flatnonzero(np.diff(sid, prepend=-1))
    counts = np.diff(starts, append=len(sid))
    pos = np.arange(len(sid)) - np.repeat(starts, counts)
    if ((counts % n_channels).any() or (channel != pos % n_channels).any()
            or (t != pos // n_channels).any() or (gid != np.repeat(gid[starts], counts)).any()):
        return None
    labels = lid.reshape(-1, n_channels)
    if (labels != labels[:, :1]).any():  # one label per (series, t)
        return None
    values = value.reshape(-1, n_channels)
    bounds = np.append(starts, len(sid)) // n_channels
    records = [SeriesRecord(ids[k], groups[gid[starts[k]]], values[a:b].copy(),
                            labels[a:b, 0].copy())
               for k, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()))]
    return TimeSeriesDataset(records, n_channels, alphabet)


def load_long_csv(path: str) -> TimeSeriesDataset:
    """Load the long layout; any row order is accepted, grids must be complete."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(_LONG_DTYPE.names):
            raise ParseError(f"{path}: unexpected long CSV header {header}")
        ds = _long_columns(path) or _long_rows(path, reader)
    ds.validate()
    return ds


def _long_rows(path: str, reader) -> TimeSeriesDataset:
    """The row loop: the long layout's data rows, one at a time."""
    alphabet = _LabelAlphabet()
    # series_id -> (group, {(channel, t): value}, {t: label_id})
    acc: dict[str, tuple[str, dict, dict]] = {}
    order: list[str] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(f"line {line_no}: expected 6 fields, got {len(row)}")
        sid, group, ch_s, t_s, val_s, label = row
        channel = _parse_int(ch_s, line_no, "channel")
        t = _parse_int(t_s, line_no, "t")
        if channel < 0 or t < 0:
            raise SchemaError(f"line {line_no}: negative channel or t")
        value = _parse_float(val_s, line_no)
        label_id = alphabet.id_for(label)
        if sid not in acc:
            acc[sid] = (group, {}, {})
            order.append(sid)
        grp, cells, labels = acc[sid]
        if grp != group:
            raise SchemaError(f"line {line_no}: series {sid!r} listed under two groups")
        if (channel, t) in cells:
            raise SchemaError(f"line {line_no}: duplicate entry for series {sid!r} "
                              f"channel {channel} t {t}")
        cells[(channel, t)] = value
        if t in labels and labels[t] != label_id:
            raise SchemaError(f"line {line_no}: conflicting labels for series {sid!r} t {t}")
        labels[t] = label_id

    if not order:
        raise DataError(f"{path}: no series found")

    n_channels = None
    records = []
    for sid in order:
        group, cells, labels = acc[sid]
        channels = sorted({c for c, _ in cells})
        ts = sorted({t for _, t in cells})
        C = len(channels)
        T = len(ts)
        if channels != list(range(C)) or ts != list(range(T)):
            raise SchemaError(f"series {sid!r}: channels/timesteps are not contiguous from 0")
        if len(cells) != C * T:
            raise SchemaError(f"series {sid!r}: incomplete grid ({len(cells)} of {C * T} entries)")
        if n_channels is None:
            n_channels = C
        elif C != n_channels:
            raise SchemaError(f"series {sid!r} has {C} channels, expected {n_channels}")
        values = np.empty((T, C))
        for (c, t), v in cells.items():
            values[t, c] = v
        label_arr = np.array([labels[t] for t in range(T)], dtype=np.int64)
        records.append(SeriesRecord(sid, group, values, label_arr))
    return TimeSeriesDataset(records, n_channels or 0, alphabet.tokens)


def load_wide_csv(path: str, channels: int | None = None) -> TimeSeriesDataset:
    """Load the wide layout. Channel count comes from the ``# channels=C``
    comment or the ``channels`` argument; the argument wins if both exist."""
    with open_text(path) as fh:
        first = fh.readline()
        line_no = 1
        file_channels = None
        if first.startswith("#"):
            text = first.lstrip("#").strip()
            if not text.startswith("channels="):
                raise ParseError(f"line 1: unrecognized comment {first.strip()!r}")
            file_channels = _parse_int(text.split("=", 1)[1], 1, "channels")
            header_line = fh.readline()
            line_no = 2
        else:
            header_line = first
        if channels is not None and file_channels is not None and channels != file_channels:
            raise ConfigError(
                f"{path}: channel argument {channels} conflicts with file comment "
                f"channels={file_channels}")
        n_ch = channels if channels is not None else file_channels
        if n_ch is None:
            raise ConfigError(f"{path}: channel count not given (no comment, no argument)")
        if n_ch < 1:
            raise ConfigError(f"{path}: channel count must be >= 1, got {n_ch}")

        header = next(csv.reader([header_line]), None)
        if header is None or header[:3] != ["series_id", "group", "label"]:
            raise ParseError(f"line {line_no}: unexpected wide CSV header")
        n_values = len(header) - 3
        if n_values < 1 or n_values % n_ch != 0:
            raise SchemaError(
                f"{path}: {n_values} value columns not divisible by {n_ch} channels")
        T = n_values // n_ch
        expected_cols = [f"c{c}_t{t}" for c in range(n_ch) for t in range(T)]
        if header[3:] != expected_cols:
            raise ParseError(f"line {line_no}: value column names do not match "
                             f"channel-major c<c>_t<t> layout")

        ds = (_wide_columns(path, line_no, n_ch, T)
              or _wide_rows(path, csv.reader(fh), line_no, len(header), n_ch, T))
    ds.validate()
    return ds


def _wide_columns(path: str, skiprows: int, n_ch: int, T: int) -> TimeSeriesDataset | None:
    """The wide layout's data rows in one C read; None where the row loop must decide."""
    dtype = np.dtype([("series_id", "O"), ("group", "O"), ("label", "O"),
                      ("values", "f8", (n_ch * T,))])
    rows = _read_columns(path, dtype, skiprows)
    if rows is None or not np.isfinite(rows["values"]).all():
        return None
    lid, alphabet = _codes(rows["label"])
    records = [SeriesRecord(sid, group, flat.copy().reshape(n_ch, T).T,
                            np.full(T, label_id, dtype=np.int64))
               for sid, group, flat, label_id in zip(
                   rows["series_id"].tolist(), rows["group"].tolist(), rows["values"],
                   lid.tolist())]
    return TimeSeriesDataset(records, n_ch, alphabet)


def _wide_rows(path: str, reader, line_no: int, n_fields: int, n_ch: int,
               T: int) -> TimeSeriesDataset:
    """The row loop: the wide layout's data rows, one at a time."""
    alphabet = _LabelAlphabet()
    records = []
    for row_no, row in enumerate(reader, start=line_no + 1):
        if not row:
            continue
        if len(row) != n_fields:
            raise ParseError(f"line {row_no}: expected {n_fields} fields, got {len(row)}")
        sid, group, label = row[0], row[1], row[2]
        flat = np.array([_parse_float(v, row_no) for v in row[3:]])
        values = flat.reshape(n_ch, T).T  # channel-major flat -> (T, C)
        label_id = alphabet.id_for(label)
        labels = np.full(T, label_id, dtype=np.int64)
        records.append(SeriesRecord(sid, group, values, labels))

    if not records:
        raise DataError(f"{path}: no series found")
    return TimeSeriesDataset(records, n_ch, alphabet.tokens)


def load_dataset(path: str, fmt: str, channels: int | None = None) -> TimeSeriesDataset:
    if fmt == "long_csv":
        return load_long_csv(path)
    if fmt == "wide_csv":
        return load_wide_csv(path, channels)
    raise ConfigError(f"unknown dataset format {fmt!r}")


def save_wide_csv(ds: TimeSeriesDataset, path: str) -> None:
    """Write the wide layout. Requires a uniform series length (the header
    fixes the column set) and a single label per series. Values are written
    with full precision so a reload reproduces the dataset exactly. A failed
    write is a ConfigError."""
    lengths = {rec.values.shape[0] for rec in ds.series}
    if len(lengths) > 1:
        raise SchemaError(f"wide CSV requires uniform series length, got {sorted(lengths)}")
    for rec in ds.series:
        if len(set(rec.labels.tolist())) > 1:
            raise SchemaError(f"series {rec.series_id!r} has per-timestep labels; "
                              "wide CSV stores one label per series")
    T = lengths.pop() if lengths else 0
    try:
        with open(path, "w", newline="") as fh:
            fh.write(f"# channels={ds.n_channels}\n")
            writer = csv.writer(fh, lineterminator="\n")
            cols = [f"c{c}_t{t}" for c in range(ds.n_channels) for t in range(T)]
            writer.writerow(["series_id", "group", "label"] + cols)
            for rec in ds.series:
                token = ds.label_alphabet[int(rec.labels[0])]
                flat = rec.values.T.reshape(-1)  # (T, C) -> channel-major flat
                writer.writerow([rec.series_id, rec.group, token] + [repr(float(v)) for v in flat])
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


def split_by_group(
    ds: TimeSeriesDataset,
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[TimeSeriesDataset, TimeSeriesDataset, TimeSeriesDataset]:
    """Group-disjoint train/val/test split.

    Groups are sorted lexicographically, shuffled with a seeded stream, and
    cut at the cumulative ratios (rounded to the nearest group). Every series
    of a group lands on the same side. Ratios must be nonnegative and sum to
    1; the number of distinct groups must reach the number of nonzero ratios.
    """
    r_train, r_val, r_test = ratios
    if min(ratios) < 0:
        raise ConfigError(f"split ratios must be nonnegative, got {ratios}")
    if abs(r_train + r_val + r_test - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")

    groups = sorted({rec.group for rec in ds.series})
    n_buckets = sum(1 for r in ratios if r > 0)
    if len(groups) < n_buckets:
        raise ConfigError(
            f"{len(groups)} group(s) but {n_buckets} nonzero ratio buckets; "
            "need at least one group per bucket")

    rng = Xoshiro256StarStar(seed)
    rng.shuffle(groups)
    n = len(groups)
    cut1 = int(np.floor(n * r_train + 0.5))
    cut2 = int(np.floor(n * (r_train + r_val) + 0.5))
    assignment = {}
    for i, g in enumerate(groups):
        assignment[g] = 0 if i < cut1 else (1 if i < cut2 else 2)

    parts: list[list[SeriesRecord]] = [[], [], []]
    for rec in ds.series:
        parts[assignment[rec.group]].append(rec)
    return tuple(
        TimeSeriesDataset(part, ds.n_channels, list(ds.label_alphabet))
        for part in parts
    )
