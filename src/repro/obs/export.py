"""Trace/metric readers and human-readable renderers.

The wire format is JSON lines — one finished span per line, in finish
order (children before parents, since a span finishes before the region
that opened it). :func:`read_trace` loads a file back into dicts;
:func:`render_trace` turns spans (live :class:`~repro.obs.tracer.Span`
objects or loaded dicts) into the indented tree the CLI prints.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .tracer import Span

__all__ = [
    "read_trace",
    "render_trace",
    "filter_spans",
    "attr_values",
    "group_by_attr",
    "percentile",
    "percentiles",
]

#: Span attributes promoted into the rendered summary column.
_SUMMARY_KEYS = ("jobs", "shots", "tag", "link", "candidates")


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace file into span dicts (finish order)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as file:
        for line in file:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _as_dicts(
    spans: Iterable[Union[Span, Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    return [
        span.to_dict() if isinstance(span, Span) else span for span in spans
    ]


def filter_spans(
    spans: Iterable[Union[Span, Dict[str, Any]]],
    name: Optional[str] = None,
    **attrs: Any,
) -> List[Dict[str, Any]]:
    """Spans (as dicts) matching a name and/or exact attribute values.

    The building block the SLO analyzer queries traces with: ``filter_
    spans(spans, "svc.request", tenant="alice")`` selects one tenant's
    request summaries. Live :class:`Span` objects are converted, so the
    same query runs on an in-process tracer or a loaded JSONL file.
    """
    selected = []
    for record in _as_dicts(spans):
        if name is not None and record.get("name") != name:
            continue
        attributes = record.get("attributes", {})
        if any(
            attributes.get(key) != value for key, value in attrs.items()
        ):
            continue
        selected.append(record)
    return selected


def attr_values(
    spans: Iterable[Union[Span, Dict[str, Any]]], key: str
) -> List[Any]:
    """One attribute's value per span, skipping spans that lack it."""
    values = []
    for record in _as_dicts(spans):
        attributes = record.get("attributes", {})
        if key in attributes:
            values.append(attributes[key])
    return values


def group_by_attr(
    spans: Iterable[Union[Span, Dict[str, Any]]], key: str
) -> Dict[Any, List[Dict[str, Any]]]:
    """Spans bucketed by one attribute's value (lacking spans dropped)."""
    groups: Dict[Any, List[Dict[str, Any]]] = {}
    for record in _as_dicts(spans):
        attributes = record.get("attributes", {})
        if key in attributes:
            groups.setdefault(attributes[key], []).append(record)
    return groups


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (exact order statistic, no interpolation).

    ``q`` is in percent. The nearest-rank definition always returns a
    value that actually occurred — the right semantics for latency
    SLOs, where an interpolated latency nobody experienced would make
    the gate both untight and irreproducible. Empty input returns 0.0.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(0, min(len(ordered) - 1, rank - 1))])


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ...}`` via :func:`percentile`."""
    return {f"p{q:g}": percentile(values, q) for q in qs}


def render_trace(
    spans: Iterable[Union[Span, Dict[str, Any]]],
    max_events: int = 3,
) -> str:
    """An indented tree, one line per span, roots in start order.

    Each line shows the span name, wall time, simulated device time
    (when the tracer had a device clock), a short attribute summary,
    and up to ``max_events`` event names.
    """
    records = _as_dicts(spans)
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record.get("parent_id"), []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.get("start_wall_s", 0.0))

    lines: List[str] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        parts = [f"{'  ' * depth}{record['name']}"]
        parts.append(f"{record.get('wall_time_s', 0.0) * 1e3:.2f} ms")
        if record.get("device_time_us") is not None:
            parts.append(f"{record['device_time_us']:.0f} us device")
        attributes = record.get("attributes", {})
        summary = ", ".join(
            f"{key}={attributes[key]}"
            for key in _SUMMARY_KEYS
            if key in attributes
        )
        if summary:
            parts.append(summary)
        if record.get("status") != "ok":
            parts.append(f"status={record.get('status')}")
        events = record.get("events", [])
        if events:
            shown = ", ".join(e["name"] for e in events[:max_events])
            suffix = "..." if len(events) > max_events else ""
            parts.append(f"[{shown}{suffix}]")
        lines.append("  ".join(parts))
        for child in children.get(record["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
