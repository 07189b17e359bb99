"""Structural validation of trace bundles.

The checks mirror the invariants §II of the paper states about the Alibaba
dataset: every instance belongs to a known task, runs on exactly one machine,
within its task's lifetime; task ``instance_num`` matches the instance rows;
utilisation stays within [0, 100]; machine events use known event types.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceValidationError
from repro.metrics.store import valid_utilisation
from repro.trace import schema
from repro.trace.records import TraceBundle


@dataclass
class ValidationReport:
    """Outcome of validating one bundle."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise TraceValidationError(
                f"{len(self.errors)} validation error(s); first: {self.errors[0]}")

    def extend(self, other: "ValidationReport") -> None:
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)


def _validate_machine_events(bundle: TraceBundle) -> ValidationReport:
    report = ValidationReport()
    seen_add: set[str] = set()
    for event in bundle.machine_events:
        if event.event_type not in schema.VALID_EVENT_TYPES:
            report.errors.append(
                f"machine_events: unknown event type {event.event_type!r} "
                f"for machine {event.machine_id}")
        if event.timestamp < 0:
            report.errors.append(
                f"machine_events: negative timestamp for machine {event.machine_id}")
        if event.event_type == schema.EVENT_ADD:
            if event.machine_id in seen_add:
                report.warnings.append(
                    f"machine_events: machine {event.machine_id} added twice")
            seen_add.add(event.machine_id)
    return report


def _validate_tasks(bundle: TraceBundle) -> ValidationReport:
    report = ValidationReport()
    seen: set[tuple[str, str]] = set()
    for task in bundle.tasks:
        key = (task.job_id, task.task_id)
        if key in seen:
            report.errors.append(
                f"batch_task: duplicate task {task.task_id} in job {task.job_id}")
        seen.add(key)
        if task.instance_num <= 0:
            report.errors.append(
                f"batch_task: task {task.job_id}/{task.task_id} has "
                f"instance_num={task.instance_num}")
        if task.modify_timestamp < task.create_timestamp:
            report.errors.append(
                f"batch_task: task {task.job_id}/{task.task_id} modified before created")
        if task.status not in schema.VALID_STATUSES:
            report.warnings.append(
                f"batch_task: task {task.job_id}/{task.task_id} has unusual "
                f"status {task.status!r}")
    return report


def _validate_instances(bundle: TraceBundle) -> ValidationReport:
    report = ValidationReport()
    task_index = {(task.job_id, task.task_id): task for task in bundle.tasks}
    machine_ids = set(bundle.machine_ids())
    counts: dict[tuple[str, str], int] = {}

    for inst in bundle.instances:
        key = (inst.job_id, inst.task_id)
        counts[key] = counts.get(key, 0) + 1
        if key not in task_index:
            report.errors.append(
                f"batch_instance: instance references unknown task "
                f"{inst.job_id}/{inst.task_id}")
            continue
        task = task_index[key]
        if inst.end_timestamp < inst.start_timestamp:
            report.errors.append(
                f"batch_instance: instance {inst.seq_no} of {inst.job_id}/"
                f"{inst.task_id} ends before it starts")
        if inst.start_timestamp < task.create_timestamp:
            report.warnings.append(
                f"batch_instance: instance {inst.seq_no} of {inst.job_id}/"
                f"{inst.task_id} starts before its task is created")
        if inst.machine_id is None and inst.status == schema.STATUS_TERMINATED:
            report.errors.append(
                f"batch_instance: terminated instance {inst.seq_no} of "
                f"{inst.job_id}/{inst.task_id} has no machine")
        if (inst.machine_id is not None and machine_ids
                and inst.machine_id not in machine_ids):
            report.errors.append(
                f"batch_instance: instance of {inst.job_id}/{inst.task_id} runs on "
                f"unknown machine {inst.machine_id}")
        for name in ("cpu_avg", "cpu_max", "mem_avg", "mem_max"):
            value = getattr(inst, name)
            if value is not None and not 0.0 <= value <= 100.0:
                report.errors.append(
                    f"batch_instance: {name}={value} outside [0, 100] for "
                    f"{inst.job_id}/{inst.task_id}")

    for (job_id, task_id), task in task_index.items():
        actual = counts.get((job_id, task_id), 0)
        if actual and actual != task.instance_num:
            report.warnings.append(
                f"batch_task: task {job_id}/{task_id} declares "
                f"{task.instance_num} instances but {actual} rows exist")
    return report


def _validate_usage(bundle: TraceBundle) -> ValidationReport:
    report = ValidationReport()
    store = bundle.usage
    if store is None or store.num_samples == 0:
        report.warnings.append("server_usage: bundle carries no usage samples")
        return report
    if not valid_utilisation(store.data).all():
        report.errors.append(
            "server_usage: utilisation values not finite or outside [0, 100]")
    machine_ids = set(bundle.machine_ids())
    if machine_ids:
        unknown = [mid for mid in store.machine_ids if mid not in machine_ids]
        if unknown:
            report.errors.append(
                f"server_usage: {len(unknown)} machines absent from machine_events "
                f"(e.g. {unknown[0]})")
    return report


def validate_bundle(bundle: TraceBundle) -> ValidationReport:
    """Run every structural check and return the combined report."""
    report = ValidationReport()
    report.extend(_validate_machine_events(bundle))
    report.extend(_validate_tasks(bundle))
    report.extend(_validate_instances(bundle))
    report.extend(_validate_usage(bundle))
    return report
