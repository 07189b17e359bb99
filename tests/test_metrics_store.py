"""Tests for the dense MetricStore."""

import numpy as np
import pytest

from repro.errors import SeriesError, UnknownEntityError
from repro.metrics.store import MetricStore


@pytest.fixture()
def store() -> MetricStore:
    s = MetricStore(["m1", "m2", "m3"], np.array([0.0, 60.0, 120.0, 180.0]))
    s.set_series("m1", "cpu", [10, 20, 30, 40])
    s.set_series("m2", "cpu", [50, 50, 50, 50])
    s.set_series("m3", "cpu", [90, 80, 70, 60])
    s.set_series("m1", "mem", [5, 5, 5, 5])
    return s


class TestConstruction:
    def test_shape(self, store):
        assert store.num_machines == 3
        assert store.num_samples == 4
        assert store.metrics == ("cpu", "mem", "disk")
        assert store.data.shape == (3, 3, 4)

    def test_duplicate_machine_ids_rejected(self):
        with pytest.raises(SeriesError):
            MetricStore(["a", "a"], np.array([0.0]))

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(SeriesError):
            MetricStore(["a"], np.array([0.0, 0.0]))

    def test_contains(self, store):
        assert "m1" in store
        assert "zz" not in store


class TestMutation:
    def test_set_series_wrong_length(self, store):
        with pytest.raises(SeriesError):
            store.set_series("m1", "cpu", [1, 2])

    def test_unknown_machine(self, store):
        with pytest.raises(UnknownEntityError):
            store.set_series("nope", "cpu", [0, 0, 0, 0])

    def test_unknown_metric(self, store):
        with pytest.raises(UnknownEntityError):
            store.series("m1", "gpu")

    def test_add_to_series_accumulates(self, store):
        store.add_to_series("m1", "cpu", [1, 1, 1, 1])
        assert store.series("m1", "cpu").values[0] == 11.0

    def test_clip(self, store):
        store.add_to_series("m3", "cpu", [50, 50, 50, 50])
        store.clip(0, 100)
        assert store.series("m3", "cpu").max() <= 100.0


class TestQueries:
    def test_series_roundtrip(self, store):
        series = store.series("m1", "cpu")
        assert list(series.values) == [10, 20, 30, 40]
        assert list(series.timestamps) == [0, 60, 120, 180]

    def test_series_is_a_copy(self, store):
        series = store.series("m1", "cpu")
        arr = np.array(series.values)  # copy to mutate
        arr[0] = 999
        assert store.series("m1", "cpu").values[0] == 10.0

    def test_machine_snapshot(self, store):
        snap = store.machine_snapshot("m1", 60)
        assert snap == {"cpu": 20.0, "mem": 5.0, "disk": 0.0}

    def test_snapshot_step_semantics(self, store):
        assert store.machine_snapshot("m1", 65)["cpu"] == 20.0
        assert store.machine_snapshot("m1", -5)["cpu"] == 10.0
        assert store.machine_snapshot("m1", 999)["cpu"] == 40.0

    def test_snapshot_per_metric(self, store):
        snap = store.snapshot(0, metric="cpu")
        assert snap == {"m1": 10.0, "m2": 50.0, "m3": 90.0}

    def test_snapshot_nested(self, store):
        snap = store.snapshot(0)
        assert snap["m2"]["cpu"] == 50.0

    def test_aggregate_reducers(self, store):
        assert store.aggregate("cpu", "mean").values[0] == pytest.approx(50.0)
        assert store.aggregate("cpu", "max").values[0] == 90.0
        assert store.aggregate("cpu", "min").values[3] == 40.0
        assert store.aggregate("cpu", "sum").values[0] == 150.0
        assert len(store.aggregate("cpu", "p95")) == 4

    def test_aggregate_unknown_reducer(self, store):
        with pytest.raises(SeriesError):
            store.aggregate("cpu", "mode")

    def test_subset(self, store):
        sub = store.subset(["m1", "m3"])
        assert sub.num_machines == 2
        assert sub.series("m3", "cpu").values[0] == 90.0

    def test_window(self, store):
        windowed = store.window(60, 120)
        assert windowed.num_samples == 2
        assert list(windowed.series("m1", "cpu").values) == [20, 30]

    def test_window_invalid(self, store):
        with pytest.raises(SeriesError):
            store.window(100, 50)


class TestEdgeCases:
    def test_single_timestamp_store(self):
        store = MetricStore(["m1", "m2"], np.array([42.0]))
        store.set_series("m1", "cpu", [55.0])
        assert store.num_samples == 1
        assert store.machine_snapshot("m1", 42.0)["cpu"] == 55.0
        # step semantics clamp probes on either side of the lone sample
        assert store.machine_snapshot("m1", -1.0)["cpu"] == 55.0
        assert store.machine_snapshot("m1", 1e9)["cpu"] == 55.0
        series = store.series("m1", "cpu")
        assert len(series) == 1 and series.values[0] == 55.0
        assert store.aggregate("cpu", "mean").values[0] == pytest.approx(27.5)

    def test_single_timestamp_window_and_subset(self):
        store = MetricStore(["m1"], np.array([42.0]))
        windowed = store.window(0.0, 100.0)
        assert windowed.num_samples == 1
        assert store.subset(["m1"]).num_machines == 1

    def test_empty_machine_list(self):
        store = MetricStore([], np.array([0.0, 60.0]))
        assert store.num_machines == 0
        assert store.machine_ids == []
        assert store.data.shape == (0, 3, 2)
        assert store.snapshot(0.0, metric="cpu") == {}
        assert store.snapshot(0.0) == {}
        assert list(store.iter_records()) == []
        assert store.subset([]).num_machines == 0

    def test_empty_machine_list_unknown_lookup(self):
        store = MetricStore([], np.array([0.0]))
        with pytest.raises(UnknownEntityError):
            store.series("ghost", "cpu")

    def test_unknown_metric_raises_everywhere(self, store):
        with pytest.raises(UnknownEntityError):
            store.set_series("m1", "gpu", [0, 0, 0, 0])
        with pytest.raises(UnknownEntityError):
            store.add_to_series("m1", "gpu", [0, 0, 0, 0])
        with pytest.raises(UnknownEntityError):
            store.aggregate("gpu", "mean")
        with pytest.raises(UnknownEntityError):
            store.snapshot(0.0, metric="gpu")

    def test_snapshot_on_empty_sample_store_rejected(self):
        store = MetricStore(["m1"], np.array([]))
        assert store.num_samples == 0
        with pytest.raises(SeriesError):
            store.machine_snapshot("m1", 0.0)


class TestFromDense:
    def test_adopts_data_without_copy(self):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        store = MetricStore.from_dense(["a", "b"], np.arange(4, dtype=float),
                                       ("cpu", "mem", "disk"), data)
        assert np.shares_memory(store.data, data)
        assert store.series("b", "disk").values.tolist() == [20, 21, 22, 23]

    def test_validates_shape_and_ids_and_timestamps(self):
        data = np.zeros((2, 3, 4))
        with pytest.raises(SeriesError):
            MetricStore.from_dense(["a", "a"], np.arange(4, dtype=float),
                                   ("cpu", "mem", "disk"), data)
        with pytest.raises(SeriesError):
            MetricStore.from_dense(["a", "b"], np.array([3.0, 2.0, 1.0, 0.0]),
                                   ("cpu", "mem", "disk"), data)
        with pytest.raises(SeriesError):
            MetricStore.from_dense(["a", "b"], np.arange(5, dtype=float),
                                   ("cpu", "mem", "disk"), data)


class TestValueEquality:
    def copy_of(self, store: MetricStore) -> MetricStore:
        return MetricStore.from_dense(store.machine_ids, store.timestamps.copy(),
                                      store.metrics, store.data.copy())

    def test_equal_values_compare_equal(self, store):
        assert store == self.copy_of(store)
        assert store.subset(store.machine_ids) == store   # a read-only view
        assert store != "not a store"

    def test_every_part_counts(self, store):
        changed = self.copy_of(store)
        changed.data[2, 1, 3] = 1.0
        assert store != changed
        assert store != store.subset(["m1", "m2"])
        assert store != store.window(60.0, 180.0)
        assert store != MetricStore.from_dense(
            ["m1", "m2", "x"], store.timestamps, store.metrics, store.data)
        assert store != MetricStore.from_dense(
            store.machine_ids, store.timestamps + 1.0, store.metrics,
            store.data)
        assert store != MetricStore.from_dense(
            store.machine_ids, store.timestamps, ("a", "b", "c"), store.data)

    def test_a_store_is_not_hashable(self, store):
        with pytest.raises(TypeError):
            hash(store)


class TestRecordsRoundTrip:
    def test_iter_records_count(self, store):
        records = list(store.iter_records())
        assert len(records) == 3 * 4

    def test_from_records_roundtrip(self, store):
        rebuilt = MetricStore.from_records(store.iter_records())
        assert rebuilt.num_machines == store.num_machines
        assert rebuilt.num_samples == store.num_samples
        np.testing.assert_allclose(
            rebuilt.series("m1", "cpu").values, store.series("m1", "cpu").values)
        np.testing.assert_allclose(
            rebuilt.series("m3", "cpu").values, store.series("m3", "cpu").values)

    def test_from_records_duplicate_timestamps_across_machines(self):
        # several machines reporting at the same instant share one grid slot
        records = [
            (0.0, "a", {"cpu": 10.0}),
            (0.0, "b", {"cpu": 20.0}),
            (60.0, "a", {"cpu": 11.0}),
            (60.0, "b", {"cpu": 21.0}),
        ]
        store = MetricStore.from_records(records)
        assert store.num_samples == 2
        assert list(store.series("a", "cpu").values) == [10.0, 11.0]
        assert list(store.series("b", "cpu").values) == [20.0, 21.0]

    def test_from_records_duplicate_cell_last_wins(self):
        records = [
            (0.0, "a", {"cpu": 10.0}),
            (0.0, "a", {"cpu": 99.0}),
        ]
        store = MetricStore.from_records(records)
        assert store.series("a", "cpu").values[0] == 99.0

    def test_from_records_missing_metrics_stay_zero(self):
        records = [
            (0.0, "a", {"cpu": 10.0}),
            (60.0, "a", {"mem": 30.0}),
            (120.0, "a", {}),
        ]
        store = MetricStore.from_records(records)
        assert list(store.series("a", "cpu").values) == [10.0, 0.0, 0.0]
        assert list(store.series("a", "mem").values) == [0.0, 30.0, 0.0]
        assert list(store.series("a", "disk").values) == [0.0, 0.0, 0.0]

    def test_from_records_unordered_rows(self):
        records = [
            (120.0, "b", {"cpu": 5.0}),
            (0.0, "a", {"cpu": 1.0}),
            (60.0, "b", {"cpu": 3.0}),
            (0.0, "b", {"cpu": 2.0}),
        ]
        store = MetricStore.from_records(records)
        assert list(store.timestamps) == [0.0, 60.0, 120.0]
        assert store.machine_ids == ["a", "b"]
        assert list(store.series("b", "cpu").values) == [2.0, 3.0, 5.0]

    def test_from_records_empty(self):
        store = MetricStore.from_records([])
        assert store.num_machines == 0
        assert store.num_samples == 0
