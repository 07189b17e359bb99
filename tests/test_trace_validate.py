"""Tests for trace-bundle validation."""

import numpy as np
import pytest

from repro.errors import TraceValidationError
from repro.metrics.store import MetricStore
from repro.trace.records import (
    BatchInstanceRecord,
    BatchTaskRecord,
    MachineEvent,
    TraceBundle,
)
from repro.trace.validate import validate_bundle


def minimal_bundle() -> TraceBundle:
    store = MetricStore(["m1"], np.array([0.0, 100.0]))
    store.set_series("m1", "cpu", [10, 20])
    return TraceBundle(
        machine_events=[MachineEvent(0, "m1", "add")],
        tasks=[BatchTaskRecord(0, 100, "j1", "t1", 1, "Terminated")],
        instances=[BatchInstanceRecord(0, 100, "j1", "t1", "m1", "Terminated",
                                       1, 1, 10.0, 20.0, 10.0, 20.0)],
        usage=store,
    )


class TestValidBundle:
    def test_generated_bundles_are_valid(self, healthy_bundle, hotjob_bundle,
                                         thrashing_bundle):
        for bundle in (healthy_bundle, hotjob_bundle, thrashing_bundle):
            report = validate_bundle(bundle)
            assert report.ok, report.errors

    def test_minimal_bundle_valid(self):
        report = validate_bundle(minimal_bundle())
        assert report.ok
        report.raise_if_failed()


class TestMachineEventChecks:
    def test_unknown_event_type(self):
        bundle = minimal_bundle()
        bundle.machine_events.append(MachineEvent(5, "m1", "explode"))
        report = validate_bundle(bundle)
        assert any("unknown event type" in e for e in report.errors)

    def test_negative_timestamp(self):
        bundle = minimal_bundle()
        bundle.machine_events.append(MachineEvent(-5, "m2", "add"))
        report = validate_bundle(bundle)
        assert any("negative timestamp" in e for e in report.errors)

    def test_duplicate_add_is_warning(self):
        bundle = minimal_bundle()
        bundle.machine_events.append(MachineEvent(10, "m1", "add"))
        report = validate_bundle(bundle)
        assert report.ok
        assert any("added twice" in w for w in report.warnings)


class TestTaskChecks:
    def test_duplicate_task(self):
        bundle = minimal_bundle()
        bundle.tasks.append(BatchTaskRecord(0, 50, "j1", "t1", 1, "Terminated"))
        report = validate_bundle(bundle)
        assert any("duplicate task" in e for e in report.errors)

    def test_non_positive_instance_num(self):
        bundle = minimal_bundle()
        bundle.tasks.append(BatchTaskRecord(0, 50, "j2", "t1", 0, "Terminated"))
        report = validate_bundle(bundle)
        assert any("instance_num" in e for e in report.errors)

    def test_modified_before_created(self):
        bundle = minimal_bundle()
        bundle.tasks.append(BatchTaskRecord(100, 50, "j3", "t1", 1, "Terminated"))
        report = validate_bundle(bundle)
        assert any("modified before created" in e for e in report.errors)


class TestInstanceChecks:
    def test_unknown_task_reference(self):
        bundle = minimal_bundle()
        bundle.instances.append(BatchInstanceRecord(0, 10, "ghost", "t1", "m1",
                                                    "Terminated", 1, 1))
        report = validate_bundle(bundle)
        assert any("unknown task" in e for e in report.errors)

    def test_end_before_start(self):
        bundle = minimal_bundle()
        bundle.instances[0] = BatchInstanceRecord(100, 50, "j1", "t1", "m1",
                                                  "Terminated", 1, 1)
        report = validate_bundle(bundle)
        assert any("ends before it starts" in e for e in report.errors)

    def test_terminated_without_machine(self):
        bundle = minimal_bundle()
        bundle.instances[0] = BatchInstanceRecord(0, 100, "j1", "t1", None,
                                                  "Terminated", 1, 1)
        report = validate_bundle(bundle)
        assert any("no machine" in e for e in report.errors)

    def test_unknown_machine_reference(self):
        bundle = minimal_bundle()
        bundle.instances[0] = BatchInstanceRecord(0, 100, "j1", "t1", "m9",
                                                  "Terminated", 1, 1)
        report = validate_bundle(bundle)
        assert any("unknown machine" in e for e in report.errors)

    def test_out_of_range_cpu(self):
        bundle = minimal_bundle()
        bundle.instances[0] = BatchInstanceRecord(0, 100, "j1", "t1", "m1",
                                                  "Terminated", 1, 1,
                                                  cpu_avg=140.0)
        report = validate_bundle(bundle)
        assert any("outside [0, 100]" in e for e in report.errors)

    def test_instance_count_mismatch_is_warning(self):
        bundle = minimal_bundle()
        bundle.tasks[0] = BatchTaskRecord(0, 100, "j1", "t1", 5, "Terminated")
        report = validate_bundle(bundle)
        assert report.ok
        assert any("declares" in w for w in report.warnings)


class TestUsageChecks:
    def test_out_of_range_usage(self):
        bundle = minimal_bundle()
        bundle.usage.data[0, 0, 0] = 150.0
        report = validate_bundle(bundle)
        assert any("outside [0, 100]" in e for e in report.errors)

    def test_nan_usage(self):
        bundle = minimal_bundle()
        bundle.usage.data[0, 0, 0] = np.nan
        report = validate_bundle(bundle)
        assert any("outside [0, 100]" in e for e in report.errors)

    def test_usage_for_unknown_machine(self):
        bundle = minimal_bundle()
        store = MetricStore(["m1", "m_unknown"], np.array([0.0]))
        bundle.usage = store
        report = validate_bundle(bundle)
        assert any("absent from machine_events" in e for e in report.errors)

    def test_missing_usage_is_warning_only(self):
        bundle = minimal_bundle()
        bundle.usage = None
        report = validate_bundle(bundle)
        assert report.ok
        assert any("no usage samples" in w for w in report.warnings)


class TestReportBehaviour:
    def test_raise_if_failed(self):
        bundle = minimal_bundle()
        bundle.machine_events.append(MachineEvent(-1, "mX", "add"))
        report = validate_bundle(bundle)
        with pytest.raises(TraceValidationError):
            report.raise_if_failed()
