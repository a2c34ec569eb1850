import numpy as np
import pytest

from dips.dataset import CategoricalColumn, ContinuousColumn, TabularDataset


def _toy():
    cols = [
        CategoricalColumn("color", ("red", "green", "blue")),
        ContinuousColumn("x", -2.0, 5.0),
    ]
    data = {
        "color": np.array([0, 2, 1, 1], dtype=np.int64),
        "x": np.array([0.1, -1.5, 4.999, 3.25]),
    }
    return TabularDataset(cols, data)


def test_basic_shape():
    ds = _toy()
    assert ds.n == 4
    assert ds.column("x")[2] == 4.999


def test_empty_schema_has_zero_rows():
    ds = TabularDataset([], {})
    assert ds.n == 0


def test_name_mismatch_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0)]
    with pytest.raises(ValueError, match="mismatch"):
        TabularDataset(cols, {"y": np.zeros(3)})


def test_ragged_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0), ContinuousColumn("y", 0.0, 1.0)]
    with pytest.raises(ValueError, match="ragged"):
        TabularDataset(cols, {"x": np.zeros(3), "y": np.zeros(2)})


def test_out_of_bounds_rejected():
    cols = [ContinuousColumn("x", 0.0, 1.0)]
    with pytest.raises(ValueError, match="out of bounds"):
        TabularDataset(cols, {"x": np.array([0.5, 1.5])})
    # but allowed when validation is off
    ds = TabularDataset(cols, {"x": np.array([0.5, 1.5])}, validate=False)
    assert ds.n == 2


def test_bad_codes_rejected():
    cols = [CategoricalColumn("c", ("a", "b"))]
    with pytest.raises(ValueError, match="codes"):
        TabularDataset(cols, {"c": np.array([0, 2])})
    with pytest.raises(ValueError, match="codes"):
        TabularDataset(cols, {"c": np.array([-1, 0])})


def test_degenerate_columns_rejected():
    with pytest.raises(ValueError):
        CategoricalColumn("c", ())
    with pytest.raises(ValueError):
        ContinuousColumn("x", 1.0, 1.0)
    with pytest.raises(ValueError):
        ContinuousColumn("x", 2.0, 1.0)


def test_csv_round_trip(tmp_path):
    ds = _toy()
    path = tmp_path / "toy.csv"
    ds.to_csv(path)
    back = TabularDataset.from_csv(path, ds.columns)
    assert back.n == ds.n
    np.testing.assert_array_equal(back.column("color"), ds.column("color"))
    # floats are written with repr, so the round trip is exact
    np.testing.assert_array_equal(back.column("x"), ds.column("x"))


def test_csv_round_trip_preserves_awkward_floats(tmp_path):
    cols = [ContinuousColumn("x", -10.0, 10.0)]
    vals = np.array([0.1 + 0.2, 1 / 3, -9.999999999999998])
    ds = TabularDataset(cols, {"x": vals})
    path = tmp_path / "f.csv"
    ds.to_csv(path)
    back = TabularDataset.from_csv(path, cols)
    np.testing.assert_array_equal(back.column("x"), vals)
