"""Column schemas of the Alibaba cluster-trace-v2017 tables.

The trace that the paper analyses ships as four headerless CSV files.  The
column layouts below follow the official ``trace_2017`` documentation of the
Alibaba Open Cluster Trace Program; the loader and writer use them to parse
and emit files that are drop-in compatible with the real dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceFormatError
from repro.metrics.store import valid_utilisation


@dataclass(frozen=True)
class ColumnSpec:
    """One column of a trace table."""

    name: str
    kind: str  # "int", "float", "str" or "percent" (a utilisation float)
    nullable: bool = False

    def parse(self, raw: str):
        """Parse one CSV cell according to the column type."""
        text = raw.strip()
        if text == "":
            if self.nullable:
                return None
            raise TraceFormatError(f"column {self.name!r} may not be empty")
        try:
            if self.kind == "int":
                return int(float(text))
            if self.kind in ("float", "percent"):
                value = float(text)
                if self.kind == "float" or valid_utilisation(value):
                    return value
                raise TraceFormatError(
                    f"column {self.name!r}: {raw!r} is not a utilisation "
                    f"(finite, in [0, 100])")
            if self.kind == "str":
                return text
        except (ValueError, OverflowError) as exc:
            # int(float("inf")) and int(float("1e999")) overflow
            raise TraceFormatError(
                f"column {self.name!r}: cannot parse {raw!r} as {self.kind}") from exc
        raise TraceFormatError(f"column {self.name!r} has unknown kind {self.kind!r}")

    def format(self, value) -> str:
        """Format one value back into a CSV cell."""
        if value is None:
            if not self.nullable:
                raise TraceFormatError(f"column {self.name!r} may not be null")
            return ""
        if self.kind == "int":
            return str(int(value))
        if self.kind in ("float", "percent"):
            return f"{float(value):.2f}"
        return str(value)


@dataclass(frozen=True)
class TableSchema:
    """Schema of one trace table (CSV file)."""

    name: str
    filename: str
    columns: tuple[ColumnSpec, ...] = field(default_factory=tuple)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def parse_row(self, cells: list[str], line_number: int | None = None) -> dict:
        """Parse one CSV row into a ``{column: value}`` dict."""
        if len(cells) != len(self.columns):
            raise TraceFormatError(
                f"expected {len(self.columns)} columns, got {len(cells)}",
                table=self.name, line_number=line_number)
        row = {}
        for col, cell in zip(self.columns, cells):
            try:
                row[col.name] = col.parse(cell)
            except TraceFormatError as exc:
                raise TraceFormatError(str(exc), table=self.name,
                                       line_number=line_number) from exc
        return row

    def format_row(self, row: dict) -> list[str]:
        """Format a ``{column: value}`` dict back into CSV cells."""
        return [col.format(row.get(col.name)) for col in self.columns]


MACHINE_EVENTS = TableSchema(
    name="machine_events",
    filename="machine_events.csv",
    columns=(
        ColumnSpec("timestamp", "int"),
        ColumnSpec("machine_id", "str"),
        ColumnSpec("event_type", "str"),
        ColumnSpec("event_detail", "str", nullable=True),
        ColumnSpec("capacity_cpu", "float", nullable=True),
        ColumnSpec("capacity_mem", "float", nullable=True),
        ColumnSpec("capacity_disk", "float", nullable=True),
    ),
)

BATCH_TASK = TableSchema(
    name="batch_task",
    filename="batch_task.csv",
    columns=(
        ColumnSpec("create_timestamp", "int"),
        ColumnSpec("modify_timestamp", "int"),
        ColumnSpec("job_id", "str"),
        ColumnSpec("task_id", "str"),
        ColumnSpec("instance_num", "int"),
        ColumnSpec("status", "str"),
        ColumnSpec("plan_cpu", "float", nullable=True),
        ColumnSpec("plan_mem", "float", nullable=True),
    ),
)

BATCH_INSTANCE = TableSchema(
    name="batch_instance",
    filename="batch_instance.csv",
    columns=(
        ColumnSpec("start_timestamp", "int"),
        ColumnSpec("end_timestamp", "int"),
        ColumnSpec("job_id", "str"),
        ColumnSpec("task_id", "str"),
        ColumnSpec("machine_id", "str", nullable=True),
        ColumnSpec("status", "str"),
        ColumnSpec("seq_no", "int"),
        ColumnSpec("total_seq_no", "int"),
        ColumnSpec("cpu_avg", "float", nullable=True),
        ColumnSpec("cpu_max", "float", nullable=True),
        ColumnSpec("mem_avg", "float", nullable=True),
        ColumnSpec("mem_max", "float", nullable=True),
    ),
)

SERVER_USAGE = TableSchema(
    name="server_usage",
    filename="server_usage.csv",
    columns=(
        ColumnSpec("timestamp", "int"),
        ColumnSpec("machine_id", "str"),
        ColumnSpec("cpu_util", "percent"),
        ColumnSpec("mem_util", "percent"),
        ColumnSpec("disk_util", "percent"),
    ),
)

#: Registry of every table by name.
SCHEMAS: dict[str, TableSchema] = {
    schema.name: schema
    for schema in (MACHINE_EVENTS, BATCH_TASK, BATCH_INSTANCE, SERVER_USAGE)
}

#: Instance / task terminal statuses used by the generator and validator.
STATUS_TERMINATED = "Terminated"
STATUS_RUNNING = "Running"
STATUS_FAILED = "Failed"
STATUS_WAITING = "Waiting"
VALID_STATUSES = (STATUS_TERMINATED, STATUS_RUNNING, STATUS_FAILED, STATUS_WAITING)

#: Machine event types.
EVENT_ADD = "add"
EVENT_REMOVE = "remove"
EVENT_SOFT_ERROR = "softerror"
EVENT_HARD_ERROR = "harderror"
VALID_EVENT_TYPES = (EVENT_ADD, EVENT_REMOVE, EVENT_SOFT_ERROR, EVENT_HARD_ERROR)
