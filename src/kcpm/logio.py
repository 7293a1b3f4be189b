"""Readers and writers for event logs: IEEE-XES XML, RFC-4180 CSV, and
context tables.

The CSV layer is round-trip safe: ``write_csv`` + ``mapping_for_log`` +
``parse_csv`` reproduces an equal ``EventLog``.
"""
from __future__ import annotations

import csv
import io
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime
from xml.sax.saxutils import quoteattr

from .errors import ConfigError, ParseError
from .eventlog import ContextTable, Event, EventLog, Scalar, Trace, make_log

_KIND_NAMES = ("string", "int", "float", "bool", "timestamp")


def parse_timestamp(text: str) -> datetime:
    """ISO-8601, with a trailing 'Z' accepted for UTC."""
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(t)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None


def format_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return value.isoformat()
    return str(value)


def parse_scalar(text: str, kind: str) -> Scalar:
    if kind == "string":
        return text
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        if text.lower() not in ("true", "false"):
            raise ParseError(f"bad boolean {text!r}")
        return text.lower() == "true"
    if kind == "timestamp":
        return parse_timestamp(text)
    raise ConfigError(f"unknown attribute kind {kind!r}")


def kind_of(value: Scalar) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, datetime):
        return "timestamp"
    return "string"


def infer_scalar(text: str) -> Scalar:
    """Best-effort typing for self-describing CSVs: int, float, bool,
    ISO timestamp, else string."""
    for kind in ("int", "float", "bool", "timestamp"):
        try:
            return parse_scalar(text, kind)
        except (ParseError, ValueError):
            continue
    return text


# ---------------------------------------------------------------------------
# XES
# ---------------------------------------------------------------------------

_XES_KINDS = {"string": "string", "id": "string", "int": "int",
              "float": "float", "boolean": "bool", "date": "timestamp"}


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _collect_attrs(elem, prefix: str = "") -> dict[str, Scalar]:
    """Flatten XES attribute elements; nested attributes get dotted keys."""
    out: dict[str, Scalar] = {}
    for child in elem:
        tag = _local(child.tag)
        if tag not in _XES_KINDS:
            continue
        key = child.get("key")
        if key is None:
            continue
        key = prefix + key
        raw = child.get("value", "")
        try:
            out[key] = parse_scalar(raw, _XES_KINDS[tag])
        except (ParseError, ValueError) as exc:
            raise ParseError(f"attribute {key!r}: {exc}") from None
        out.update(_collect_attrs(child, prefix=key + "."))
    return out


def parse_xes(source, on_malformed: str = "fail") -> EventLog:
    """Parse an IEEE-XES log (file path, byte/text stream, or bytes).

    concept:name holds trace/event names, time:timestamp the instant and
    org:resource the resource; everything else is preserved in event
    attribute maps. Trace-level scalar attributes (other than the name)
    are merged into each event, the event's own keys winning.

    on_malformed: "fail" raises on an event without concept:name or
    time:timestamp; "skip" drops it and counts it in meta["skipped_events"].
    """
    if on_malformed not in ("fail", "skip"):
        raise ConfigError(f"on_malformed must be 'fail' or 'skip', got {on_malformed!r}")
    try:
        tree = ET.parse(_as_stream(source))
    except ET.ParseError as exc:
        line, col = exc.position
        raise ParseError(f"malformed XML at line {line}, column {col}: {exc.msg}") from None
    root = tree.getroot()
    if _local(root.tag) != "log":
        raise ParseError(f"expected <log> root, found <{_local(root.tag)}>")

    traces: list[Trace] = []
    meta: dict[str, Scalar] = {}
    skipped = 0
    anon = 0
    for child in root:
        if _local(child.tag) != "trace":
            continue
        trace_attrs = _collect_attrs(child)
        case_id = trace_attrs.pop("concept:name", None)
        if case_id is None:
            case_id = f"trace-{anon}"
            anon += 1
        case_id = str(case_id)
        events: list[Event] = []
        for idx, ev in enumerate(e for e in child if _local(e.tag) == "event"):
            attrs = _collect_attrs(ev)
            activity = attrs.pop("concept:name", None)
            ts = attrs.pop("time:timestamp", None)
            if activity is None or not isinstance(ts, datetime):
                if on_malformed == "skip":
                    skipped += 1
                    continue
                missing = "concept:name" if activity is None else "time:timestamp"
                raise ParseError(
                    f"trace {case_id!r} event {idx}: missing or invalid {missing}"
                )
            resource = attrs.pop("org:resource", None)
            if resource is not None:
                resource = str(resource)
            events.append(
                Event(case_id, str(activity), ts, resource,
                      {**trace_attrs, **attrs})
            )
        if events:
            traces.append(Trace(case_id, tuple(events)))
    meta.update(_collect_attrs(root))
    if skipped:
        meta["skipped_events"] = skipped
    return EventLog(tuple(traces), meta)


_XES_TAGS = {"string": "string", "int": "int", "float": "float",
             "bool": "boolean", "timestamp": "date"}


def write_xes(log: EventLog, stream) -> None:
    """Write an event log as XES XML (text stream)."""
    w = stream.write
    w('<?xml version="1.0" encoding="UTF-8"?>\n')
    w('<log xes.version="1.0" xes.features="nested-attributes">\n')
    for t in log.traces:
        w("  <trace>\n")
        w(f"    <string key=\"concept:name\" value={quoteattr(t.case_id)}/>\n")
        for e in t.events:
            w("    <event>\n")
            w(f"      <string key=\"concept:name\" value={quoteattr(e.activity)}/>\n")
            w(f"      <date key=\"time:timestamp\" value={quoteattr(e.timestamp.isoformat())}/>\n")
            if e.resource is not None:
                w(f"      <string key=\"org:resource\" value={quoteattr(e.resource)}/>\n")
            for key in sorted(e.attributes):
                val = e.attributes[key]
                tag = _XES_TAGS[kind_of(val)]
                w(f"      <{tag} key={quoteattr(key)} value={quoteattr(format_scalar(val))}/>\n")
            w("    </event>\n")
        w("  </trace>\n")
    w("</log>\n")


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

ISO_FORMAT = "iso"


@dataclass(frozen=True)
class CsvMapping:
    """Column-role assignment for tabular event logs.

    timestamp_format is a strptime pattern, or "iso" for ISO-8601.
    attributes maps extra column names to scalar kinds
    ({string,int,float,bool,timestamp}); empty cells mean "absent".
    """

    case: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    timestamp_format: str = ISO_FORMAT
    resource: str | None = "resource"
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for col, kind in self.attributes.items():
            if kind not in _KIND_NAMES:
                raise ConfigError(f"column {col!r}: unknown kind {kind!r}")


def _parse_ts(text: str, fmt: str) -> datetime:
    if fmt == ISO_FORMAT:
        return parse_timestamp(text)
    return datetime.strptime(text, fmt)


def _data_rows(reader: csv.DictReader):
    """(row number, row) of each data row, the header being row 1. A row
    with more or fewer fields than the header is a ParseError."""
    width = len(reader.fieldnames or ())
    for rownum, row in enumerate(reader, start=2):
        if None in row:
            raise ParseError(f"row {rownum}: {width + len(row[None])} fields, "
                             f"header has {width}")
        if None in row.values():
            n = sum(v is not None for v in row.values())
            raise ParseError(f"row {rownum}: {n} fields, header has {width}")
        yield rownum, row


def parse_csv(source, mapping: CsvMapping) -> EventLog:
    """Parse a CSV event log with the given column-role mapping.

    Traces are keyed by case in order of first appearance and internally
    time-sorted (stable in file order on timestamp ties).
    """
    reader = csv.DictReader(_as_text_stream(source))
    header = reader.fieldnames or []
    required = [mapping.case, mapping.activity, mapping.timestamp]
    required += list(mapping.attributes)
    if mapping.resource is not None:
        required.append(mapping.resource)
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"mapped columns missing from CSV header: {missing}")

    events: list[Event] = []
    for rownum, row in _data_rows(reader):
        try:
            ts = _parse_ts(row[mapping.timestamp], mapping.timestamp_format)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        resource = None
        if mapping.resource is not None and row[mapping.resource]:
            resource = row[mapping.resource]
        attrs: dict[str, Scalar] = {}
        for col, kind in mapping.attributes.items():
            cell = row[col]
            if cell == "":
                continue
            try:
                attrs[col] = parse_scalar(cell, kind)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"row {rownum}, column {col!r}: {exc}") from None
        try:
            events.append(Event(row[mapping.case], row[mapping.activity], ts,
                                resource, attrs))
        except ValueError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
    return make_log(events)


def parse_csv_auto(source) -> EventLog:
    """Parse a CSV written by write_csv without an explicit mapping;
    extra-column types are inferred per cell (int, float, bool, ISO
    timestamp, else string)."""
    reader = csv.DictReader(_as_text_stream(source))
    header = reader.fieldnames or []
    required = ["case_id", "activity", "timestamp"]
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"canonical columns missing from CSV header: {missing}")
    events = []
    for rownum, row in _data_rows(reader):
        try:
            ts = parse_timestamp(row["timestamp"])
        except ParseError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        attrs = {
            col: infer_scalar(cell)
            for col, cell in row.items()
            if col not in ("case_id", "activity", "timestamp", "resource")
            and cell != ""
        }
        resource = row.get("resource") or None
        try:
            events.append(Event(row["case_id"], row["activity"], ts, resource,
                                attrs))
        except ValueError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
    return make_log(events)


def write_csv(log: EventLog, stream) -> None:
    """Write the log with canonical columns (case_id, activity, timestamp,
    resource) plus one column per attribute key, RFC-4180 quoting."""
    attr_cols = sorted({k for t in log.traces for e in t.events for k in e.attributes})
    writer = csv.writer(stream)
    writer.writerow(["case_id", "activity", "timestamp", "resource", *attr_cols])
    for t in log.traces:
        for e in t.events:
            row = [e.case_id, e.activity, e.timestamp.isoformat(),
                   e.resource if e.resource is not None else ""]
            for col in attr_cols:
                v = e.attributes.get(col)
                row.append("" if v is None else format_scalar(v))
            writer.writerow(row)


def mapping_for_log(log: EventLog) -> CsvMapping:
    """Mapping that re-parses write_csv output into an equal log."""
    kinds: dict[str, str] = {}
    for t in log.traces:
        for e in t.events:
            for k, v in e.attributes.items():
                kinds.setdefault(k, kind_of(v))
    return CsvMapping(attributes=dict(sorted(kinds.items())))


def read_context_csv(source) -> ContextTable:
    """Context table: one row per case; a `case_id` column is required,
    remaining columns become typed attributes (inferred per cell)."""
    reader = csv.DictReader(_as_text_stream(source))
    if not reader.fieldnames or "case_id" not in reader.fieldnames:
        raise ConfigError("context CSV needs a case_id column")
    rows: dict[str, dict[str, Scalar]] = {}
    for row in reader:
        case_id = row.pop("case_id")
        rows[case_id] = {
            k: infer_scalar(v) for k, v in row.items() if v not in ("", None)
        }
    return ContextTable(rows)


def _as_stream(source):
    if isinstance(source, (str, os.PathLike)):
        return open(source, "rb")
    if isinstance(source, bytes):
        return io.BytesIO(source)
    return source


def _as_text_stream(source):
    if isinstance(source, (str, os.PathLike)):
        return open(source, newline="", encoding="utf-8")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.BytesIO):
        return io.TextIOWrapper(source, encoding="utf-8", newline="")
    return source
