"""Readers and writers for event logs: IEEE-XES XML, RFC-4180 CSV, and
context tables.

The CSV layer is round-trip safe: ``write_csv`` + ``mapping_for_log`` +
``parse_csv`` reproduces an equal ``EventLog``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime
from xml.sax.saxutils import quoteattr

from .errors import ConfigError, ParseError
from .eventlog import ContextTable, Event, EventLog, Scalar, Trace, make_log

# "string" first; the others in the order _column_kinds tries them
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
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    try:
        tree = ET.parse(source)
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


@contextlib.contextmanager
def _open_text(source):
    """A text stream over a path, bytes, a BytesIO or a text stream, with
    line endings left to the reader; closes only a file it opened."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8") as fh:
            yield fh
    elif isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8"), newline="")
    elif isinstance(source, io.BytesIO):
        text = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield text
        finally:
            text.detach()  # the caller's buffer stays open
    else:
        yield source


@contextlib.contextmanager
def csv_rows(source, required):
    """(columns, rows) of a CSV: columns maps each header name to its
    position (the last one if repeated), and rows yields (row number,
    fields) for each data row, the header being row 1. Blank lines are
    skipped. A required column missing from the header is a ConfigError,
    and a row whose width differs from the header's a ParseError."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ConfigError(f"columns missing from CSV header: {missing}")
        yield {name: i for i, name in enumerate(header)}, _sized_rows(
            reader, len(header))


def _sized_rows(reader, width: int):
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"row {rownum}: {len(row)} fields, header has {width}")
        yield rownum, row


def _parses(cells, kind: str) -> bool:
    try:
        for cell in cells:
            parse_scalar(cell, kind)
    except (ParseError, ValueError):
        return False
    return True


def _column_kinds(columns: dict[str, int], rows, skip) -> dict[str, str]:
    """Kind of each column not in skip: the first of int, float, bool and
    timestamp that parses all its non-empty cells, else string."""
    kinds = {}
    for name, i in columns.items():
        if name not in skip:
            cells = {row[i] for _, row in rows} - {""}
            kinds[name] = next((k for k in _KIND_NAMES[1:]
                                if _parses(cells, k)), "string")
    return kinds


def _events(columns: dict[str, int], rows, mapping: CsvMapping) -> EventLog:
    case = columns[mapping.case]
    activity = columns[mapping.activity]
    when = columns[mapping.timestamp]
    resource = None if mapping.resource is None else columns[mapping.resource]
    attributes = [(name, columns[name], kind)
                  for name, kind in mapping.attributes.items()]
    events: list[Event] = []
    for rownum, row in rows:
        try:
            ts = _parse_ts(row[when], mapping.timestamp_format)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        attrs: dict[str, Scalar] = {}
        for name, i, kind in attributes:
            if row[i] == "":
                continue
            try:
                attrs[name] = parse_scalar(row[i], kind)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"row {rownum}, column {name!r}: {exc}") from None
        try:
            events.append(Event(row[case], row[activity], ts,
                                (row[resource] or None) if resource is not None
                                else None, attrs))
        except ValueError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
    return make_log(events)


def parse_csv(source, mapping: CsvMapping) -> EventLog:
    """Parse a CSV event log with the given column-role mapping.

    Traces are keyed by case in order of first appearance and internally
    time-sorted (stable in file order on timestamp ties).
    """
    required = [mapping.case, mapping.activity, mapping.timestamp,
                *mapping.attributes]
    if mapping.resource is not None:
        required.append(mapping.resource)
    with csv_rows(source, required) as (columns, rows):
        return _events(columns, rows, mapping)


_CANONICAL = ("case_id", "activity", "timestamp", "resource")


def parse_csv_auto(source) -> EventLog:
    """Parse a CSV written by write_csv without an explicit mapping: ISO
    timestamps, a resource column if there is one, and every other
    column typed by _column_kinds."""
    with csv_rows(source, _CANONICAL[:3]) as (columns, rows):
        rows = list(rows)
    mapping = CsvMapping(
        resource="resource" if "resource" in columns else None,
        attributes=_column_kinds(columns, rows, _CANONICAL))
    return _events(columns, rows, mapping)


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
    the other columns become attributes typed by _column_kinds."""
    with csv_rows(source, ("case_id",)) as (columns, rows):
        rows = list(rows)
    case = columns["case_id"]
    typed = [(name, columns[name], kind) for name, kind
             in _column_kinds(columns, rows, ("case_id",)).items()]
    table: dict[str, dict[str, Scalar]] = {}
    for rownum, row in rows:
        if not row[case]:
            raise ParseError(f"row {rownum}: empty case_id")
        table[row[case]] = {name: parse_scalar(row[i], kind)
                            for name, i, kind in typed if row[i] != ""}
    return ContextTable(table)
