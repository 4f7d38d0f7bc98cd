import numpy as np
import pytest

from tsembed.data_io import (SeriesRecord, TimeSeriesDataset, load_dataset,
                             load_long_csv, load_wide_csv, save_wide_csv,
                             split_by_group)
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


def test_wide_csv_channels_argument(tmp_path):
    text = WIDE_TEXT.split("\n", 1)[1]  # drop the comment
    ds = load_wide_csv(write(tmp_path / "w.csv", text), channels=2)
    assert ds.n_channels == 2
    with pytest.raises(ConfigError):
        load_wide_csv(write(tmp_path / "w2.csv", text))


def test_wide_csv_channel_conflict(tmp_path):
    with pytest.raises(ConfigError):
        load_wide_csv(write(tmp_path / "w.csv", WIDE_TEXT), channels=4)


def test_wide_csv_bad_column_names(tmp_path):
    text = ("# channels=1\n"
            "series_id,group,label,v0,v1\n"
            "a,g,x,1.0,2.0\n")
    with pytest.raises(ParseError):
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


def test_alphabet_first_appearance_order(tmp_path):
    text = ("# channels=1\n"
            "series_id,group,label,c0_t0\n"
            "a,g,zebra,1.0\n"
            "b,g,apple,2.0\n"
            "c,g,zebra,3.0\n")
    ds = load_wide_csv(write(tmp_path / "w.csv", text))
    assert ds.label_alphabet == ["zebra", "apple"]
    assert [int(r.labels[0]) for r in ds.series] == [0, 1, 0]


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
