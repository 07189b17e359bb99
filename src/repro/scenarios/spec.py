"""Parsing of composed scenario specifications.

A *scenario spec* is the string form of a stack of fault injectors::

    "network-storm"
    "diurnal+network-storm"
    "background(cpu_offset=40)+hot-job(peak_boost=45)+memory-thrash"

Grammar (whitespace around tokens is ignored)::

    spec   := part ("+" part)*
    part   := name [ "(" kwargs ")" ]
    kwargs := key "=" value ("," key "=" value)*

Values are parsed as ``int``, ``float``, ``bool`` (``true``/``false``) or
kept as strings.  A number must be finite: ``nan``, ``inf`` and overflowing
literals such as ``1e999`` are rejected.  Part names are resolved by the
registry (:mod:`repro.scenarios.registry`): either a registered injector or
a named scenario alias whose anomalies get spliced into the stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.errors import SimulationError

_PART_RE = re.compile(r"^\s*(?P<name>[A-Za-z0-9_.-]+)\s*"
                      r"(?:\(\s*(?P<kwargs>[^()]*)\s*\))?\s*$")


@dataclass(frozen=True)
class ScenarioPart:
    """One ``name(key=value, ...)`` element of a composed spec."""

    name: str
    kwargs: dict = field(default_factory=dict)


def _parse_value(raw: str) -> int | float | bool | str:
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("'\"")


def _parse_kwargs(raw: str | None, *, part: str) -> dict:
    if raw is None or not raw.strip():
        return {}
    kwargs: dict = {}
    for item in raw.split(","):
        if "=" not in item:
            raise SimulationError(
                f"scenario part {part!r}: expected key=value, got {item.strip()!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key.isidentifier():
            raise SimulationError(
                f"scenario part {part!r}: invalid parameter name {key!r}")
        parsed = _parse_value(value)
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise SimulationError(
                f"scenario part {part!r}: parameter {key!r} must be a finite "
                f"number, got {value.strip()!r}")
        kwargs[key] = parsed
    return kwargs


def parse_scenario_spec(spec: str) -> list[ScenarioPart]:
    """Parse a composed scenario spec string into its parts.

    Raises :class:`~repro.errors.SimulationError` on malformed input; name
    resolution against the registry happens later.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise SimulationError("scenario spec must be a non-empty string")
    parts: list[ScenarioPart] = []
    for chunk in spec.split("+"):
        match = _PART_RE.match(chunk)
        if match is None:
            raise SimulationError(
                f"malformed scenario part {chunk.strip()!r} in spec {spec!r}")
        name = match.group("name")
        kwargs = _parse_kwargs(match.group("kwargs"), part=name)
        parts.append(ScenarioPart(name=name, kwargs=kwargs))
    return parts


__all__ = ["ScenarioPart", "parse_scenario_spec"]
