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
from array import array
from datetime import datetime
from itertools import chain, islice
from operator import itemgetter
from sys import intern
from typing import NamedTuple

from .errors import ConfigError, DataError, KcpmError, ParseError
from .eventlog import (EVENT_FIELDS, ContextTable, Event, EventLog, Scalar,
                       Trace, _build_log)

# "string" first; the others in the order _typed tries them
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
    import xml.etree.ElementTree as ET

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
            attrs = {**trace_attrs, **attrs}
            clash = [name for name in EVENT_FIELDS if name in attrs]
            if clash:
                raise ParseError(f"trace {case_id!r} event {idx}: attribute "
                                 f"{clash[0]!r} has the name of an event field")
            try:
                events.append(Event(case_id, str(activity), ts, resource,
                                    attrs))
            except ValueError as exc:  # a blank activity
                raise ParseError(f"trace {case_id!r} event {idx}: {exc}") from None
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
    from xml.sax.saxutils import quoteattr

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


class _CsvMappingFields(NamedTuple):
    case: str
    activity: str
    timestamp: str
    timestamp_format: str
    resource: str | None
    attributes: dict[str, str]


class CsvMapping(_CsvMappingFields):
    """Column-role assignment for tabular event logs.

    timestamp_format is a strptime pattern, or "iso" for ISO-8601.
    attributes maps extra column names to scalar kinds
    ({string,int,float,bool,timestamp}), a new empty dict by default;
    empty cells mean "absent". Every way of making one rejects an
    unknown kind and an attribute column named after an event field.
    """

    __slots__ = ()

    def __new__(cls, case: str = "case_id", activity: str = "activity",
                timestamp: str = "timestamp",
                timestamp_format: str = ISO_FORMAT,
                resource: str | None = "resource",
                attributes: dict[str, str] | None = None):
        if attributes is None:
            attributes = {}
        for col, kind in attributes.items():
            if kind not in _KIND_NAMES:
                raise ConfigError(f"column {col!r}: unknown kind {kind!r}")
            if col in EVENT_FIELDS:
                raise ConfigError(f"attribute column {col!r} has the name "
                                  "of an event field")
        return tuple.__new__(cls, (case, activity, timestamp,
                                   timestamp_format, resource, attributes))

    @classmethod
    def _make(cls, iterable) -> CsvMapping:
        return cls(*iterable)


@contextlib.contextmanager
def _open_text(source):
    """A text stream over a path, bytes, a BytesIO or a text stream, with
    line endings left to the reader; closes only a file it opened. When
    source is a path, every KcpmError raised while the stream is read or
    used names it, and so does a ParseError for a file that is not UTF-8."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8") as fh:
            try:
                yield fh
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: not UTF-8 text ({exc.reason})") from None
            except KcpmError as exc:
                raise type(exc)(f"{source}: {exc}") from None
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
def _csv_reader(source, required, all_used: bool = False):
    """(columns, width, reader) of a CSV: columns maps each header name
    to its position, width is the header's length, and reader is the
    csv.reader past the header, at row 2. A required column missing from
    the header is a ConfigError; a required column named twice (any
    column, when the caller uses all of them) is a ParseError. Errors
    name a source path, as _open_text says."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ConfigError(f"columns missing from CSV header: {missing}")
        columns = {name: i for i, name in enumerate(header)}
        if len(columns) < len(header):
            twice = [c for c in columns if header.count(c) > 1
                     and (all_used or c in required)]
            if twice:
                raise ParseError(f"column {twice[0]!r} is named more than "
                                 "once in the CSV header")
        yield columns, len(header), reader


@contextlib.contextmanager
def csv_rows(source, required, all_used: bool = False):
    """(columns, rows) of a CSV, checked as _csv_reader says: rows yields
    (row number, fields) for each data row, the header being row 1.
    Blank lines are skipped, and a row whose width differs from the
    header's is a ParseError."""
    with _csv_reader(source, required, all_used) as (columns, width, reader):
        yield columns, _sized_rows(reader, width)


def _sized_rows(reader, width: int):
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(_ragged(rownum, row, width))
        yield rownum, row


def _ragged(rownum: int, row: list[str], width: int) -> str:
    return f"row {rownum}: {len(row)} fields, header has {width}"


def _typed(cells) -> dict[str, Scalar]:
    """Each of a column's distinct non-empty cells decoded as the first of
    int, float, bool and timestamp that decodes all of them, else kept as
    a string."""
    for kind in _KIND_NAMES[1:]:
        try:
            return {cell: parse_scalar(cell, kind) for cell in cells}
        except (ParseError, ValueError):
            pass
    return {cell: cell for cell in cells}


def _read_events(columns: dict[str, int], width: int, reader,
                 mapping: CsvMapping,
                 kinds: dict[str, str | None]) -> EventLog:
    """The log in the rows of reader, read in one pass from row 2, blank
    lines skipped: each row's event goes to its case's list as the row is
    read. kinds maps each attribute column to its kind, or to None for
    the kind _typed gives the column's cells. Each distinct timestamp,
    activity and combination of attribute cells is decoded once, and
    case ids and activities are interned. A row of another width than
    the header's is a ParseError at once. A bad timestamp, attribute cell
    or activity is a ParseError naming the first row that has one; it is
    raised once every row is read, so a ragged row anywhere is reported
    first.

    At the end of the pass the events, grouped by case, are alive with
    the timestamp-text cache and, for each row with an attribute cell,
    its still empty attribute map and the number of its combination of
    cells. The cache is dropped then, and the maps are filled once the
    traces are made."""
    case, activity = columns[mapping.case], columns[mapping.activity]
    when = columns[mapping.timestamp]
    resource = None if mapping.resource is None else columns[mapping.resource]
    names = list(kinds)
    index = [columns[name] for name in names]
    # a row's attribute cells: one cell, or a tuple of them
    cells_of = itemgetter(*index) if index else None
    blank = cells_of([""] * (max(index) + 1)) if index else None
    fmt = mapping.timestamp_format
    if fmt == ISO_FORMAT:
        fast, slow = datetime.fromisoformat, parse_timestamp
    else:
        fast = slow = lambda text: datetime.strptime(text, fmt)
    # activities are stripped and checked once per distinct label, below,
    # so events are made as the tuples they are, without Event.__new__
    new_event = tuple.__new__
    stamps: dict[str, datetime] = {}
    labels: dict[str, str] = {}
    by_case: dict[str, list[Event]] = {}
    # each distinct combination of cells -> its number, in row order
    combos: dict[str | tuple[str, ...], int] = {}
    first_rows = array("q")  # by number, the row a combination is first in
    attributed: list[dict[str, Scalar]] = []  # maps of rows with a cell
    codes = array("q")  # by row in attributed, its combination's number
    first_bad = None  # (row number, rank in the row, message)
    for rownum, row in enumerate(reader, start=2):
        if len(row) != width:
            if not row:
                continue
            raise ParseError(_ragged(rownum, row, width))
        if first_bad:
            continue
        text = row[when]
        ts = stamps.get(text)
        if ts is None:
            try:
                try:
                    ts = fast(text)
                except ValueError:
                    ts = slow(text)
            except (ParseError, ValueError) as exc:
                first_bad = (rownum, 0, f"row {rownum}: {exc}")
                continue
            stamps[text] = ts
        attrs = {}
        if cells_of is not None:
            cells = cells_of(row)
            if cells != blank:
                code = combos.get(cells)
                if code is None:
                    code = combos[cells] = len(first_rows)
                    first_rows.append(rownum)
                attributed.append(attrs)
                codes.append(code)
        label = row[activity]
        act = labels.get(label)
        if act is None:
            act = labels[label] = intern(label.strip())
        if not act:
            first_bad = (rownum, len(names) + 1,
                         f"row {rownum}: event activity must be nonempty")
            continue
        case_id = intern(row[case])
        events = by_case.get(case_id)
        if events is None:
            events = by_case[case_id] = []
        res = row[resource] if resource is not None else None
        events.append(new_event(Event, (case_id, act, ts,
                                        intern(res) if res else None, attrs)))
    del stamps
    if len(names) == 1:  # as tuples, like the combinations of more columns
        combos = {(cells,): code for cells, code in combos.items()}
    tables = []
    for j, (name, kind) in enumerate(kinds.items()):
        cells = dict.fromkeys(c[j] for c in combos)  # row order
        cells.pop("", None)
        if kind is None:
            tables.append(_typed(cells))
            continue
        table = {}
        for cell in cells:
            try:
                table[cell] = parse_scalar(cell, kind)
            except (ParseError, ValueError) as exc:
                rownum = next(first_rows[code] for c, code in combos.items()
                              if c[j] == cell)
                bad = (rownum, j + 1, f"row {rownum}, column {name!r}: {exc}")
                first_bad = min(first_bad, bad) if first_bad else bad
                break
        tables.append(table)
    if first_bad:
        raise ParseError(first_bad[2])
    log = _build_log(by_case, {})
    values = [{name: table[cell]
               for name, table, cell in zip(names, tables, c) if cell}
              for c in combos]
    del combos  # before the maps grow
    for attrs, code in zip(attributed, codes):
        attrs.update(values[code])
    return log


def parse_csv(source, mapping: CsvMapping) -> EventLog:
    """Parse a CSV event log with the given column-role mapping.

    Traces are keyed by case in order of first appearance and internally
    time-sorted (stable in file order on timestamp ties).
    """
    required = [mapping.case, mapping.activity, mapping.timestamp,
                *mapping.attributes]
    if mapping.resource is not None:
        required.append(mapping.resource)
    with _csv_reader(source, required) as (columns, width, reader):
        return _read_events(columns, width, reader, mapping,
                            mapping.attributes)


def parse_csv_auto(source) -> EventLog:
    """Parse a CSV written by write_csv without an explicit mapping: ISO
    timestamps, a resource column if there is one, and every other
    column typed by _typed."""
    with _csv_reader(source, EVENT_FIELDS[:3],
                     all_used=True) as (columns, width, reader):
        mapping = CsvMapping(resource="resource" if "resource" in columns
                             else None)
        return _read_events(columns, width, reader, mapping, {
            name: None for name in columns if name not in EVENT_FIELDS})


# events per chunk of write_csv: only one chunk's rows are alive at once
_WRITE_CHUNK = 2048


def _field(text: str) -> str:
    """text as one field of a row that csv.writer's default dialect
    writes: wrapped in double quotes, inner ones doubled, when it holds a
    comma, a double quote, CR or LF, and as is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Fields(dict):
    """text -> _field(text), filled on first use; None is an empty field."""

    def __missing__(self, text: str) -> str:
        self[text] = quoted = _field(text)
        return quoted


def write_csv(log: EventLog, stream) -> None:
    """Write the log with canonical columns (case_id, activity, timestamp,
    resource) plus one column per attribute key, quoted and ended with
    CRLF as csv.writer's default dialect does (RFC 4180). An attribute
    named like a canonical column is a DataError, raised before anything
    is written.

    Each row is built as one string, and the rows go to the stream
    _WRITE_CHUNK events at a time, one write per chunk. The quoted text
    of each activity and resource is kept for the whole write, and the
    case id's once per trace. A log read by parse_csv shares one object
    per distinct timestamp, so each timestamp object is formatted once
    per chunk; the cache is keyed on the object, not its value, which
    keeps equal instants at different UTC offsets apart without hashing
    either, and is dropped at each chunk edge."""
    names: set[str] = set()
    events = chain.from_iterable(t.events for t in log.traces)
    for attributes in filter(None, map(itemgetter(4), events)):
        names.update(attributes)
    attr_cols = sorted(names)
    clash = [name for name in attr_cols if name in EVENT_FIELDS]
    if clash:
        raise DataError(f"event attribute {clash[0]!r} has the name of an "
                        "event field")
    stream.write(",".join(map(_field, (*EVENT_FIELDS, *attr_cols))) + "\r\n")
    fields = _Fields({None: ""})  # of activities and resources
    bare = "," * len(attr_cols) + "\r\n"  # ends a row without attributes
    case = prefix = None
    events = chain.from_iterable(t.events for t in log.traces)
    while chunk := list(islice(events, _WRITE_CHUNK)):
        iso: dict[int, str] = {}
        rows = []
        for case_id, activity, ts, resource, attributes in chunk:
            if case_id != case:
                case, prefix = case_id, _field(case_id) + ","
            text = iso.get(id(ts))
            if text is None:
                text = iso[id(ts)] = ts.isoformat()
            end = _row_end(attributes, attr_cols) if attributes else bare
            rows.append(f"{prefix}{fields[activity]},{text},{fields[resource]}{end}")
        stream.write("".join(rows))


def _row_end(attributes: dict[str, Scalar], attr_cols: list[str]) -> str:
    """The attribute cells of one row, each after its comma, and CRLF; an
    absent or None attribute is an empty cell."""
    return "," + ",".join(["" if value is None else _field(format_scalar(value))
                           for value in map(attributes.get, attr_cols)]) + "\r\n"


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
    the other columns become attributes typed by _typed. A column named
    after another event field is a DataError: merged into the events, it
    would stand beside that field. An empty case id or a case listed
    twice is a ParseError naming the row."""
    with csv_rows(source, ("case_id",), all_used=True) as (columns, rows):
        clash = [name for name in columns if name in EVENT_FIELDS[1:]]
        if clash:
            raise DataError(f"context column {clash[0]!r} has the name of "
                            "an event field")
        rows = list(rows)
        case = columns["case_id"]
        typed = [(name, i, _typed({row[i] for _, row in rows} - {""}))
                 for name, i in columns.items() if name != "case_id"]
        table: dict[str, dict[str, Scalar]] = {}
        for rownum, row in rows:
            case_id = row[case]
            if not case_id:
                raise ParseError(f"row {rownum}: empty case_id")
            if case_id in table:
                raise ParseError(f"row {rownum}: case {case_id!r} is listed "
                                 "twice")
            table[case_id] = {name: values[row[i]]
                                for name, i, values in typed if row[i]}
    return ContextTable(table)
