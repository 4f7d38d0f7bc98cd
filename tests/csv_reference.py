"""The row-by-row CSV loaders that tsembed.data_io's column reads replaced.

They are the reference the loaders must match: the same dataset (ids,
groups, label alphabet, value and label bytes) or the same exception type
and message, on every file.
"""

import csv

import numpy as np

from tsembed.data_io import (SeriesRecord, TimeSeriesDataset, _LabelAlphabet, _parse_float,
                             _parse_int, open_text)
from tsembed.errors import ConfigError, DataError, ParseError, SchemaError


def load_long_csv_reference(path: str) -> TimeSeriesDataset:
    """Load the long layout; any row order is accepted, grids must be complete."""
    alphabet = _LabelAlphabet()
    # series_id -> (group, {(channel, t): value}, {t: label_id})
    acc: dict[str, tuple[str, dict, dict]] = {}
    order: list[str] = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "group", "channel", "t", "value", "label"]:
            raise ParseError(f"{path}: unexpected long CSV header {header}")
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

    ds = TimeSeriesDataset(records, n_channels or 0, alphabet.tokens)
    ds.validate()
    return ds


def load_wide_csv_reference(path: str, channels: int | None = None) -> TimeSeriesDataset:
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

        alphabet = _LabelAlphabet()
        records = []
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=line_no + 1):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"line {row_no}: expected {len(header)} fields, got {len(row)}")
            sid, group, label = row[0], row[1], row[2]
            flat = np.array([_parse_float(v, row_no) for v in row[3:]])
            values = flat.reshape(n_ch, T).T  # channel-major flat -> (T, C)
            label_id = alphabet.id_for(label)
            labels = np.full(T, label_id, dtype=np.int64)
            records.append(SeriesRecord(sid, group, values, labels))

    if not records:
        raise DataError(f"{path}: no series found")
    ds = TimeSeriesDataset(records, n_ch, alphabet.tokens)
    ds.validate()
    return ds
