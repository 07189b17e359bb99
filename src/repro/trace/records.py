"""Typed records for the Alibaba trace tables and the in-memory bundle.

A :class:`TraceBundle` is the unit the rest of the library works on: the
three scheduler-side tables as typed record lists plus the server-usage
table as a dense :class:`~repro.metrics.store.MetricStore`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import UnknownEntityError
from repro.metrics.store import MetricStore
from repro.trace import schema


@dataclass(frozen=True)
class MachineEvent:
    """One row of ``machine_events``: a machine joining/leaving/failing."""

    timestamp: int
    machine_id: str
    event_type: str
    event_detail: str | None = None
    capacity_cpu: float | None = None
    capacity_mem: float | None = None
    capacity_disk: float | None = None

    def to_row(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "machine_id": self.machine_id,
            "event_type": self.event_type,
            "event_detail": self.event_detail,
            "capacity_cpu": self.capacity_cpu,
            "capacity_mem": self.capacity_mem,
            "capacity_disk": self.capacity_disk,
        }

    @classmethod
    def from_row(cls, row: dict) -> "MachineEvent":
        return cls(**row)


@dataclass(frozen=True)
class BatchTaskRecord:
    """One row of ``batch_task``: a task of a batch job."""

    create_timestamp: int
    modify_timestamp: int
    job_id: str
    task_id: str
    instance_num: int
    status: str
    plan_cpu: float | None = None
    plan_mem: float | None = None

    def to_row(self) -> dict:
        return {
            "create_timestamp": self.create_timestamp,
            "modify_timestamp": self.modify_timestamp,
            "job_id": self.job_id,
            "task_id": self.task_id,
            "instance_num": self.instance_num,
            "status": self.status,
            "plan_cpu": self.plan_cpu,
            "plan_mem": self.plan_mem,
        }

    @classmethod
    def from_row(cls, row: dict) -> "BatchTaskRecord":
        return cls(**row)


@dataclass(frozen=True)
class BatchInstanceRecord:
    """One row of ``batch_instance``: one instance of a task on one machine."""

    start_timestamp: int
    end_timestamp: int
    job_id: str
    task_id: str
    machine_id: str | None
    status: str
    seq_no: int
    total_seq_no: int
    cpu_avg: float | None = None
    cpu_max: float | None = None
    mem_avg: float | None = None
    mem_max: float | None = None

    @property
    def duration(self) -> int:
        """Wall-clock duration of the instance in seconds."""
        return max(0, self.end_timestamp - self.start_timestamp)

    def to_row(self) -> dict:
        return {
            "start_timestamp": self.start_timestamp,
            "end_timestamp": self.end_timestamp,
            "job_id": self.job_id,
            "task_id": self.task_id,
            "machine_id": self.machine_id,
            "status": self.status,
            "seq_no": self.seq_no,
            "total_seq_no": self.total_seq_no,
            "cpu_avg": self.cpu_avg,
            "cpu_max": self.cpu_max,
            "mem_avg": self.mem_avg,
            "mem_max": self.mem_max,
        }

    @classmethod
    def from_row(cls, row: dict) -> "BatchInstanceRecord":
        return cls(**row)


@dataclass(frozen=True)
class ServerUsageRecord:
    """One row of ``server_usage``: utilisation of one machine at one time."""

    timestamp: int
    machine_id: str
    cpu_util: float
    mem_util: float
    disk_util: float

    def to_row(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "machine_id": self.machine_id,
            "cpu_util": self.cpu_util,
            "mem_util": self.mem_util,
            "disk_util": self.disk_util,
        }

    @classmethod
    def from_row(cls, row: dict) -> "ServerUsageRecord":
        return cls(**row)

    def as_metric_tuple(self) -> tuple[float, str, dict[str, float]]:
        """Convert into the ``MetricStore.from_records`` input shape."""
        return (float(self.timestamp), self.machine_id,
                {"cpu": self.cpu_util, "mem": self.mem_util, "disk": self.disk_util})


#: The row factory of each record table, by schema table name.
_FROM_ROW = {
    "machine_events": MachineEvent.from_row,
    "batch_task": BatchTaskRecord.from_row,
    "batch_instance": BatchInstanceRecord.from_row,
}


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """One record table held as columns, built into records on first read.

    ``columns`` holds one ``(values, nulls)`` pair per schema column of
    ``table``, in schema order: ``values`` is a 1-d array and ``nulls``
    its boolean null mask (``None`` for a non-nullable column).  Whoever
    builds one has checked that all the arrays have the same length, so
    :meth:`records` cannot fail: it converts the values to Python objects
    and calls the table's ``from_row`` factory, row by row, in order.
    """

    table: str
    columns: tuple

    def records(self) -> list:
        """The table's typed records, one per row."""
        factory = _FROM_ROW[self.table]
        names = schema.SCHEMAS[self.table].column_names
        columns: list[list] = []
        for values, nulls in self.columns:
            values = values.tolist()
            if nulls is not None:
                values = [None if null else value
                          for value, null in zip(values, nulls.tolist())]
            columns.append(values)
        return [factory(dict(zip(names, row))) for row in zip(*columns)]


#: Held while a record table is built, so two first reads of one field
#: store one list, not two.
_BUILD_LOCK = threading.Lock()


class _RecordTable:
    """Data descriptor behind each record-table field of :class:`TraceBundle`.

    The field holds a list, or a :class:`RecordColumns` that its first
    read replaces with the built list; every later read and every
    mutation sees that one list.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        fields = vars(bundle)
        value = fields[self.name]
        if isinstance(value, RecordColumns):
            with _BUILD_LOCK:
                value = fields[self.name]
                if isinstance(value, RecordColumns):
                    value = fields[self.name] = value.records()
        return value

    def __set__(self, bundle, value) -> None:
        vars(bundle)[self.name] = value


@dataclass
class TraceBundle:
    """An in-memory Alibaba-style trace: three record tables + usage store.

    Each record table (``machine_events``, ``tasks``, ``instances``) is a
    list of typed records.  A warm :func:`~repro.trace.loader.load_trace`
    passes each as a :class:`RecordColumns` instead: the sidecar's columns,
    checked when the cache was read, which the first read of the field
    builds into the list (same factories, same order) and stores.  A run
    that reads only ``usage`` never builds a record.  Equality, ``repr``
    and :func:`dataclasses.replace` read the fields, so they see the
    lists; ``copy`` and ``pickle`` carry a table not read yet as its
    columns, and the copy builds the same list on its own first read.
    """

    machine_events: list[MachineEvent] = field(default_factory=list)
    tasks: list[BatchTaskRecord] = field(default_factory=list)
    instances: list[BatchInstanceRecord] = field(default_factory=list)
    usage: MetricStore | None = None
    #: Free-form metadata (scenario name, seed, generator config, ...).
    meta: dict = field(default_factory=dict)

    # -- id sets ------------------------------------------------------------
    def job_ids(self) -> list[str]:
        """Distinct job ids in creation order."""
        seen: dict[str, None] = {}
        for task in self.tasks:
            seen.setdefault(task.job_id, None)
        return list(seen)

    def task_ids(self, job_id: str | None = None) -> list[str]:
        """Distinct task ids, optionally restricted to one job."""
        out: list[str] = []
        for task in self.tasks:
            if job_id is None or task.job_id == job_id:
                out.append(task.task_id)
        return out

    def machine_ids(self) -> list[str]:
        """Machine ids known from machine events (falls back to usage store)."""
        ids = [event.machine_id for event in self.machine_events
               if event.event_type == schema.EVENT_ADD]
        if ids:
            seen: dict[str, None] = {}
            for mid in ids:
                seen.setdefault(mid, None)
            return list(seen)
        if self.usage is not None:
            return self.usage.machine_ids
        return []

    # -- lookups ------------------------------------------------------------
    def tasks_of_job(self, job_id: str) -> list[BatchTaskRecord]:
        records = [task for task in self.tasks if task.job_id == job_id]
        if not records:
            raise UnknownEntityError("job", job_id)
        return records

    def instances_of_task(self, job_id: str, task_id: str) -> list[BatchInstanceRecord]:
        records = [inst for inst in self.instances
                   if inst.job_id == job_id and inst.task_id == task_id]
        if not records:
            raise UnknownEntityError("task", f"{job_id}/{task_id}")
        return records

    def instances_of_job(self, job_id: str) -> list[BatchInstanceRecord]:
        records = [inst for inst in self.instances if inst.job_id == job_id]
        if not records:
            raise UnknownEntityError("job", job_id)
        return records

    def instances_on_machine(self, machine_id: str) -> list[BatchInstanceRecord]:
        return [inst for inst in self.instances if inst.machine_id == machine_id]

    def machines_of_job(self, job_id: str) -> list[str]:
        """Machines executing at least one instance of the job."""
        seen: dict[str, None] = {}
        for inst in self.instances_of_job(job_id):
            if inst.machine_id is not None:
                seen.setdefault(inst.machine_id, None)
        return list(seen)

    # -- time extent ---------------------------------------------------------
    def time_range(self) -> tuple[float, float]:
        """Earliest and latest timestamp across all tables."""
        lows: list[float] = []
        highs: list[float] = []
        if self.usage is not None and self.usage.num_samples:
            lows.append(float(self.usage.timestamps[0]))
            highs.append(float(self.usage.timestamps[-1]))
        if self.instances:
            lows.append(float(min(inst.start_timestamp for inst in self.instances)))
            highs.append(float(max(inst.end_timestamp for inst in self.instances)))
        if self.tasks:
            lows.append(float(min(task.create_timestamp for task in self.tasks)))
            highs.append(float(max(task.modify_timestamp for task in self.tasks)))
        if not lows:
            return (0.0, 0.0)
        return (min(lows), max(highs))

    def active_jobs(self, timestamp: float) -> list[str]:
        """Job ids with at least one instance running at ``timestamp``."""
        seen: dict[str, None] = {}
        for inst in self.instances:
            if inst.start_timestamp <= timestamp <= inst.end_timestamp:
                seen.setdefault(inst.job_id, None)
        return list(seen)

    # -- usage round-tripping --------------------------------------------------
    def usage_records(self) -> Iterable[ServerUsageRecord]:
        """Yield the usage store back as :class:`ServerUsageRecord` rows."""
        if self.usage is None:
            return
        for timestamp, machine_id, values in self.usage.iter_records():
            yield ServerUsageRecord(
                timestamp=int(timestamp),
                machine_id=machine_id,
                cpu_util=values["cpu"],
                mem_util=values["mem"],
                disk_util=values["disk"],
            )

    def ground_truth(self):
        """The ground-truth manifest recorded by the scenario engine.

        Returns a :class:`~repro.scenarios.groundtruth.GroundTruthManifest`
        (empty for loaded traces and scenarios without fault injectors).
        """
        from repro.scenarios.groundtruth import manifest_from_meta

        return manifest_from_meta(self.meta)

    def summary(self) -> dict:
        """Small human-readable description of the bundle."""
        start, end = self.time_range()
        return {
            "jobs": len(self.job_ids()),
            "tasks": len(self.tasks),
            "instances": len(self.instances),
            "machines": len(self.machine_ids()),
            "usage_samples": 0 if self.usage is None else
            self.usage.num_samples * self.usage.num_machines,
            "start": start,
            "end": end,
            "scenario": self.meta.get("scenario"),
        }


# Set after @dataclass: a descriptor in the class body would become the
# fields' default value.
TraceBundle.machine_events = _RecordTable("machine_events")
TraceBundle.tasks = _RecordTable("tasks")
TraceBundle.instances = _RecordTable("instances")
