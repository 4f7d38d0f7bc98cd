import csv
import re

import numpy as np
import pytest
from csv_reference import load_long_csv_reference, load_wide_csv_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tsembed.bench import load_config
from tsembed.data_io import (SeriesRecord, TimeSeriesDataset, _long_columns, _wide_columns,
                             load_dataset, load_long_csv, load_wide_csv, save_wide_csv,
                             split_by_group)
from tsembed.embed_neural import load_checkpoint
from tsembed.errors import ConfigError, DataError, ParseError, SchemaError


def write(path, text):
    path.write_text(text)
    return str(path)


LONG_HEADER = "series_id,group,channel,t,value,label\n"


def small_long(tmp_path):
    rows = [LONG_HEADER]
    for sid, group, vals, label in [("a", "g1", [1.0, 2.0, 3.0], "x"),
                                    ("b", "g2", [4.0, 5.0, 6.0], "y")]:
        for t, v in enumerate(vals):
            rows.append(f"{sid},{group},0,{t},{v},{label}\n")
    return write(tmp_path / "long.csv", "".join(rows))


def test_long_csv_loads(tmp_path):
    ds = load_long_csv(small_long(tmp_path))
    assert ds.n_channels == 1
    assert [r.series_id for r in ds.series] == ["a", "b"]
    assert ds.label_alphabet == ["x", "y"]
    np.testing.assert_array_equal(ds.series[0].values[:, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.series[0].labels, [0, 0, 0])
    np.testing.assert_array_equal(ds.series[1].labels, [1, 1, 1])


def test_long_csv_row_order_free(tmp_path):
    text = LONG_HEADER + "a,g,0,1,2.0,x\na,g,0,0,1.0,x\n"
    ds = load_long_csv(write(tmp_path / "f.csv", text))
    np.testing.assert_array_equal(ds.series[0].values[:, 0], [1.0, 2.0])


def test_long_csv_multichannel_grid(tmp_path):
    rows = [LONG_HEADER]
    for c in range(2):
        for t in range(3):
            rows.append(f"a,g,{c},{t},{c * 10 + t},z\n")
    ds = load_long_csv(write(tmp_path / "f.csv", "".join(rows)))
    assert ds.n_channels == 2
    np.testing.assert_array_equal(ds.series[0].values,
                                  [[0, 10], [1, 11], [2, 12]])


def test_long_csv_incomplete_grid_rejected(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0,x\na,g,1,0,2.0,x\na,g,0,1,3.0,x\n"
    with pytest.raises(SchemaError):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_ragged_channels_rejected(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0,x\nb,g,0,0,1.0,x\nb,g,1,0,2.0,x\n"
    with pytest.raises(SchemaError):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_parse_error_names_line(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0,x\na,g,0,1,oops,x\n"
    with pytest.raises(ParseError, match="line 3"):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_wrong_field_count(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0\n"
    with pytest.raises(ParseError, match="line 2"):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_nan_rejected(tmp_path):
    text = LONG_HEADER + "a,g,0,0,nan,x\n"
    with pytest.raises(DataError):
        load_long_csv(write(tmp_path / "f.csv", text))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_long_csv_non_finite_message(tmp_path, value):
    text = LONG_HEADER + f"a,g,0,0,1.0,x\na,g,0,1,{value},x\n"
    with pytest.raises(DataError, match=f"line 3: non-finite value '{value}'"):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_conflicting_labels_rejected(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0,x\na,g,1,0,2.0,y\n"
    with pytest.raises(SchemaError):
        load_long_csv(write(tmp_path / "f.csv", text))


def test_long_csv_per_timestep_labels(tmp_path):
    text = LONG_HEADER + "a,g,0,0,1.0,x\na,g,0,1,2.0,y\n"
    ds = load_long_csv(write(tmp_path / "f.csv", text))
    np.testing.assert_array_equal(ds.series[0].labels, [0, 1])


WIDE_TEXT = ("# channels=2\n"
             "series_id,group,label,c0_t0,c0_t1,c1_t0,c1_t1\n"
             "a,g1,x,1.0,2.0,10.0,20.0\n"
             "b,g2,y,3.0,4.0,30.0,40.0\n")


def test_wide_csv_loads(tmp_path):
    ds = load_wide_csv(write(tmp_path / "w.csv", WIDE_TEXT))
    assert ds.n_channels == 2
    np.testing.assert_array_equal(ds.series[0].values, [[1.0, 10.0], [2.0, 20.0]])
    assert ds.label_alphabet == ["x", "y"]


def test_wide_csv_without_comment_loads(tmp_path):
    # the header's names alone give two channels of length two
    bare = outcome(load_wide_csv, write(tmp_path / "w.csv", WIDE_TEXT.split("\n", 1)[1]))
    assert bare[0] == 2 and bare == outcome(load_wide_csv, write(tmp_path / "c.csv", WIDE_TEXT))


def test_wide_csv_channel_conflict(tmp_path):
    for count in ("1", "4", "0", "-2"):
        path = write(tmp_path / "w.csv", WIDE_TEXT.replace("channels=2", f"channels={count}"))
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: line 1: channels={count} "
                                              "disagrees with the 2 channel"):
            load_dataset(path, "wide_csv")


def test_wide_csv_bad_column_names(tmp_path):
    for names in ("v0,v1", "", "c0_t1", "c0_t0,c0_t2", "c0_t0,c1_t0,c1_t1",
                  "c0_t0,c0_t01", "c999999999_t9", "c0_t0,c999999999_t9"):
        text = f"series_id,group,label,{names}".rstrip(",") + "\na,g,x,1.0,2.0\n"
        with pytest.raises(ParseError, match="value column names do not match"):
            load_wide_csv(write(tmp_path / "w.csv", text))


def test_wide_round_trip_identical(tmp_path):
    ds = load_wide_csv(write(tmp_path / "w.csv", WIDE_TEXT))
    out = tmp_path / "w2.csv"
    save_wide_csv(ds, str(out))
    ds2 = load_wide_csv(str(out))
    assert ds2.n_channels == ds.n_channels
    assert ds2.label_alphabet == ds.label_alphabet
    for a, b in zip(ds.series, ds2.series):
        assert a.series_id == b.series_id and a.group == b.group
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_wide_round_trip_preserves_awkward_floats(tmp_path):
    values = np.array([[0.1], [1 / 3], [np.nextafter(2.0, 3.0)]])
    ds = TimeSeriesDataset(
        [SeriesRecord("a", "g", values, np.zeros(3, dtype=np.int64))], 1, ["x"])
    out = tmp_path / "w.csv"
    save_wide_csv(ds, str(out))
    ds2 = load_wide_csv(str(out))
    np.testing.assert_array_equal(ds2.series[0].values, values)


def test_save_wide_rejects_ragged(tmp_path):
    recs = [SeriesRecord("a", "g", np.zeros((3, 1)), np.zeros(3, dtype=np.int64)),
            SeriesRecord("b", "g", np.zeros((4, 1)), np.zeros(4, dtype=np.int64))]
    ds = TimeSeriesDataset(recs, 1, ["x"])
    with pytest.raises(SchemaError):
        save_wide_csv(ds, str(tmp_path / "w.csv"))


def test_load_dataset_dispatch(tmp_path):
    path = write(tmp_path / "w.csv", WIDE_TEXT)
    assert load_dataset(path, "wide_csv").n_channels == 2
    with pytest.raises(ConfigError):
        load_dataset(path, "parquet")


@pytest.mark.parametrize("load", [
    lambda path: load_dataset(path, "wide_csv"),
    lambda path: load_dataset(path, "long_csv"),
    load_config,
    load_checkpoint,
], ids=["wide_csv", "long_csv", "config", "checkpoint"])
@pytest.mark.parametrize("where,reason", [("missing.csv", "No such file"), (".", "Is a directory")])
def test_unreadable_path_is_a_parse_error_naming_it(tmp_path, load, where, reason):
    # the OSError used to escape, though every tsembed error derives from TsembedError
    path = str(tmp_path / where)
    with pytest.raises(ParseError, match=f"^{re.escape(path)}: cannot read .*{reason}"):
        load(path)


def test_alphabet_first_appearance_order(tmp_path):
    text = ("# channels=1\n"
            "series_id,group,label,c0_t0\n"
            "a,g,zebra,1.0\n"
            "b,g,apple,2.0\n"
            "c,g,zebra,3.0\n")
    ds = load_wide_csv(write(tmp_path / "w.csv", text))
    assert ds.label_alphabet == ["zebra", "apple"]
    assert [int(r.labels[0]) for r in ds.series] == [0, 1, 0]


def test_quoted_fields_and_underscored_numbers_still_load(tmp_path):
    long_text = LONG_HEADER + '"a",g,0,0,1_0,"x,y"\n'
    ds = load_long_csv(write(tmp_path / "l.csv", long_text))
    assert ds.series[0].series_id == "a" and ds.label_alphabet == ["x,y"]
    np.testing.assert_array_equal(ds.series[0].values, [[10.0]])
    wide_text = 'series_id,group,label,c0_t0\n"a",g,x,1_0\n'
    ds = load_wide_csv(write(tmp_path / "w.csv", wide_text))
    assert ds.series[0].series_id == "a"
    np.testing.assert_array_equal(ds.series[0].values, [[10.0]])


# One file per check of the column path; each one fails that check alone.
CHECKED_FILES = {
    "quote": LONG_HEADER + '"a",g,0,0,1,x\n',
    "separator_byte": LONG_HEADER + "a,g,0,0,\x1c1,x\n",
    "non_ascii_int": LONG_HEADER + "".join(f"a,g,0,{t},1,x\n" for t in range(4416))
    + "a,g,0,\u1170,1,x\n",  # numpy reads U+1170 as 4416; int() refuses it
    "non_finite": LONG_HEADER + "a,g,0,0,1,x\na,g,0,1,inf,x\n",
    "second_group": LONG_HEADER + "a,g,0,0,1,x\na,h,0,1,1,x\n",
    "conflicting_label": LONG_HEADER + "a,g,0,0,1,x\na,g,1,0,1,y\n",
    "incomplete_t": LONG_HEADER + "a,g,0,0,1,x\na,g,1,0,1,x\na,g,0,1,1,x\nb,g,0,0,1,x\n",
    "duplicate_t": LONG_HEADER + "a,g,0,0,1,x\na,g,0,0,2,x\n",
    "duplicate_cell": LONG_HEADER + "a,g,0,0,1,x\na,g,1,0,1,x\nb,g,0,0,1,x\nb,g,0,0,1,x\n",
    "wide_non_finite": "series_id,group,label,c0_t0\na,g,x,nan\n",
}


@pytest.mark.parametrize("name", sorted(CHECKED_FILES))
def test_each_column_check_falls_back_to_the_row_loop(tmp_path, name):
    path = write(tmp_path / "f.csv", CHECKED_FILES[name])
    if name.startswith("wide"):
        assert _wide_columns(path, 1, 1, 1) is None
        assert outcome(load_wide_csv, path) == outcome(load_wide_csv_reference, path)
    else:
        assert _long_columns(path) is None
        assert outcome(load_long_csv, path) == outcome(load_long_csv_reference, path)


def test_field_over_the_csv_limit_goes_to_the_row_loop(tmp_path):
    # the row loop's csv.reader refuses the field: one ParseError naming the line
    over = "x" * 131073
    path = write(tmp_path / "l.csv", LONG_HEADER + "a,g,0,0,1.0,y\na,g,0,1,1.0," + over + "\n")
    assert _long_columns(path) is None
    expected = (ParseError, f"{path} line 3: field larger than field limit (131072)")
    assert outcome(load_long_csv, path) == outcome(load_long_csv_reference, path) == expected
    wide = "# channels=1\nseries_id,group,label,c0_t0\n"
    for text, line in [(wide + "a,g,y,1.0\nb,g," + over + ",2.0\n", 4),
                       (wide.replace("label", over), 2)]:
        path = write(tmp_path / "w.csv", text)
        expected = (ParseError, f"{path} line {line}: field larger than field limit (131072)")
        assert (outcome(load_wide_csv, path) == outcome(load_wide_csv_reference, path)
                == expected)
    path = write(tmp_path / "h.csv", over + ",series_id\n")
    assert outcome(load_long_csv, path) == outcome(load_long_csv_reference, path)


def outcome(load, *args):
    """What a loader makes of a file: the dataset's content, or its exception.

    The reference loaders let csv.Error out of csv.reader; the loaders must
    raise ParseError("<path> line N: ...") for it, N counting records as lines.
    """
    try:
        ds = load(*args)
    except csv.Error as e:
        assert load in (load_long_csv_reference, load_wide_csv_reference), repr(e)
        return ParseError, f"{args[0]} line {_csv_error_line(args[0])}: {e}"
    except Exception as e:  # any exception must be the reference's, message and all
        return type(e), str(e)
    return (ds.n_channels, ds.label_alphabet,
            [(r.series_id, r.group, r.values.shape, r.values.strides, r.values.tobytes(),
              r.labels.tobytes()) for r in ds.series])


def _csv_error_line(path):
    """The number of the record csv.reader stops on, the header being line 1."""
    with open(path, newline="", encoding="utf-8") as fh:
        line_no = 1
        try:
            for _ in csv.reader(fh):
                line_no += 1
        except csv.Error:
            return line_no


# Field texts that one reader or the other treats differently from a plain
# number or token, or that the row loop rejects.
ODD_FIELDS = ['"x"', '"1"', "x\"y", "1_0", "١", "１", "nan", "1e999", "-inf",
              "99999999999999999999", "-1", "", " ", "x y", "#a", "1.0", "\x1c1", "1\x1f",
              "0x10", "\t3 ", "+4", "1,2", "\x00", "5e-324", "é"]
VALUE_TEXTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.sampled_from(["1", "-0.0", " 2.5", "+3e2", "1e-320", ".5"]))


@st.composite
def mutated_csv(draw, rows, header_lines):
    """The CSV bytes of header_lines plus rows (lists of fields) after a few
    drawn mutations, and whether any mutation was applied."""
    rows = [list(r) for r in rows]
    n_mutations = draw(st.integers(0, 3))
    for _ in range(n_mutations):
        kind = draw(st.sampled_from(["shuffle", "drop", "dup", "field", "step", "odd",
                                     "nonfinite", "quote", "extra", "short"]))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        if kind == "shuffle":
            rows = draw(st.permutations(rows))
        elif kind == "drop" and len(rows) > 1:
            del rows[draw(st.sampled_from([i, -1]))]  # the last row ends a grid
        elif kind == "dup":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif kind == "field":  # another row's field: a second group, label, t or channel
            other = draw(st.sampled_from(rows))
            rows[i][j] = other[j] if j < len(other) else rows[i][j]
        elif kind == "step" and rows[i][j].isdigit():  # a gap in t or channel
            rows[i][j] = str(int(rows[i][j]) + 1)
        elif kind == "odd":
            rows[i][j] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "nonfinite":
            rows[i][j] = draw(st.sampled_from(["nan", "-inf", "1e999"]))
        elif kind == "quote":
            rows[i][j] = f'"{rows[i][j]}"'
        elif kind == "extra":
            rows[i].append("")
        elif kind == "short":
            rows[i].pop()
    lines = header_lines + [",".join(r) for r in rows]
    n_blank = draw(st.integers(0, 2))
    for _ in range(n_blank):
        lines.insert(draw(st.integers(len(header_lines), len(lines))),
                     draw(st.sampled_from(["", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode()
    damage = draw(st.sampled_from([None, None, None, "truncate", "latin1"]))
    if damage == "truncate":
        data = data[:draw(st.integers(0, len(data)))]
    elif damage == "latin1":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data, bool(n_mutations or n_blank or damage)


@st.composite
def long_files(draw):
    n_series, C, T = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    labels = st.sampled_from(["x", "y", "#a"])
    label_per_cell = draw(st.sampled_from([False, False, False, True]))  # conflicts if C > 1
    rows = []
    for s in range(n_series):
        group = draw(st.sampled_from(["g0", "g1"]))
        for t in range(T):
            label = draw(labels)
            for c in range(C):
                rows.append([f"s{s}", group, str(c), str(t), draw(VALUE_TEXTS),
                             draw(labels) if label_per_cell else label])
    data, mutated = draw(mutated_csv(rows, [LONG_HEADER.strip()]))
    return data, mutated or label_per_cell


@settings(max_examples=400, deadline=None)
@given(long_files())
def test_long_csv_matches_row_loop(tmp_path_factory, case):
    data, mutated = case
    path = tmp_path_factory.mktemp("long") / "f.csv"
    path.write_bytes(data)
    assert outcome(load_long_csv, str(path)) == outcome(load_long_csv_reference, str(path))
    if not mutated:
        assert _long_columns(str(path)) is not None


@st.composite
def wide_files(draw):
    n_rows, C, T = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    header = ",".join(["series_id", "group", "label"]
                      + [f"c{c}_t{t}" for c in range(C) for t in range(T)])
    rows = [[f"s{i}", draw(st.sampled_from(["g0", "g1"])), draw(st.sampled_from(["x", "y"]))]
            + [draw(VALUE_TEXTS) for _ in range(C * T)] for i in range(n_rows)]
    # no comment, one that agrees with the header, or one that does not
    comment = draw(st.sampled_from([None, C, C, C + 1, 0]))
    lines = ([] if comment is None else [f"# channels={comment}"]) + [header]
    data, mutated = draw(mutated_csv(rows, lines))
    return data, mutated or comment not in (None, C), C, T, comment is not None


@settings(max_examples=400, deadline=None)
@given(wide_files())
def test_wide_csv_matches_row_loop(tmp_path_factory, case):
    data, mutated, C, T, comment = case
    path = tmp_path_factory.mktemp("wide") / "f.csv"
    path.write_bytes(data)
    assert outcome(load_wide_csv, str(path)) == outcome(load_wide_csv_reference, str(path))
    if not mutated:
        assert _wide_columns(str(path), 1 + comment, C, T) is not None


def _groups_dataset(n_groups, per_group=2):
    recs = []
    for g in range(n_groups):
        for i in range(per_group):
            recs.append(SeriesRecord(f"s{g}-{i}", f"g{g:02d}",
                                     np.zeros((4, 1)),
                                     np.zeros(4, dtype=np.int64)))
    return TimeSeriesDataset(recs, 1, ["x"])


def test_split_group_disjoint_and_complete():
    ds = _groups_dataset(10)
    train, val, test = split_by_group(ds, (0.8, 0.1, 0.1), seed=3)
    gtr = {r.group for r in train.series}
    gv = {r.group for r in val.series}
    gte = {r.group for r in test.series}
    assert not (gtr & gv) and not (gtr & gte) and not (gv & gte)
    assert len(gtr) == 8 and len(gv) == 1 and len(gte) == 1
    assert len(train.series) + len(val.series) + len(test.series) == len(ds.series)


def test_split_deterministic_per_seed():
    ds = _groups_dataset(12)
    a = split_by_group(ds, (0.5, 0.25, 0.25), seed=9)
    b = split_by_group(ds, (0.5, 0.25, 0.25), seed=9)
    for left, right in zip(a, b):
        assert [r.series_id for r in left.series] == [r.series_id for r in right.series]
    c = split_by_group(ds, (0.5, 0.25, 0.25), seed=10)
    assert any([r.series_id for r in x.series] != [r.series_id for r in y.series]
               for x, y in zip(a, c))


def test_split_zero_ratio_gives_empty_split():
    ds = _groups_dataset(6)
    train, val, test = split_by_group(ds, (0.5, 0.0, 0.5), seed=1)
    assert val.series == []
    assert val.n_channels == ds.n_channels
    assert val.label_alphabet == ds.label_alphabet


def test_split_too_few_groups_rejected():
    ds = _groups_dataset(2)
    with pytest.raises(ConfigError):
        split_by_group(ds, (0.6, 0.2, 0.2), seed=1)


def test_split_bad_ratios_rejected():
    ds = _groups_dataset(5)
    with pytest.raises(ConfigError):
        split_by_group(ds, (0.5, 0.4, 0.2), seed=1)
    with pytest.raises(ConfigError):
        split_by_group(ds, (0.8, -0.1, 0.3), seed=1)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            split_by_group(ds, (bad, 0.5, 0.5), seed=1)


def test_split_keeps_alphabet_regardless_of_members(tmp_path):
    # alphabet order depends only on file content, not on the split seed
    text = ("# channels=1\n"
            "series_id,group,label,c0_t0\n"
            "a,g0,beta,1.0\n"
            "b,g1,alpha,2.0\n"
            "c,g2,beta,3.0\n"
            "d,g3,alpha,4.0\n")
    ds = load_wide_csv(write(tmp_path / "w.csv", text))
    for seed in (1, 2, 3):
        for part in split_by_group(ds, (0.5, 0.25, 0.25), seed=seed):
            assert part.label_alphabet == ["beta", "alpha"]


def test_validate_catches_duplicate_ids():
    recs = [SeriesRecord("a", "g", np.zeros((2, 1)), np.zeros(2, dtype=np.int64)),
            SeriesRecord("a", "h", np.zeros((2, 1)), np.zeros(2, dtype=np.int64))]
    with pytest.raises(SchemaError):
        TimeSeriesDataset(recs, 1, ["x"]).validate()


def test_validate_catches_nan():
    values = np.array([[np.nan], [1.0]])
    recs = [SeriesRecord("a", "g", values, np.zeros(2, dtype=np.int64))]
    with pytest.raises(DataError):
        TimeSeriesDataset(recs, 1, ["x"]).validate()
