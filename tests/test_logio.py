import csv
import io
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm import logio
from kcpm.errors import ConfigError, DataError, KcpmError, ParseError
from kcpm.eventlog import Event, EventLog, Trace, make_log
from kcpm.logio import (CsvMapping, mapping_for_log, parse_csv, parse_csv_auto,
                        parse_timestamp, parse_xes, read_context_csv,
                        write_csv, write_xes)

from conftest import T0, log_from_sequences
import oracles
from oracles import per_cell_parse_csv_auto

XES_MINIMAL = b"""<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="case1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2024-03-01T09:00:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2024-03-01T09:05:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_minimal():
    log = parse_xes(XES_MINIMAL)
    assert len(log.traces) == 1
    assert log.alphabet == {"A", "B"}
    assert log.traces[0].case_id == "case1"
    assert log.traces[0].activities == ("A", "B")


def test_parse_xes_resorts_out_of_order_events():
    xml = XES_MINIMAL.replace(b"09:00:00", b"09:10:00")  # A now after B
    log = parse_xes(xml)
    assert log.traces[0].activities == ("B", "A")


def test_parse_xes_attribute_types_and_nesting():
    xml = b"""<log>
      <trace>
        <string key="concept:name" value="c"/>
        <int key="Age" value="72"/>
        <event>
          <string key="concept:name" value="A"/>
          <date key="time:timestamp" value="2024-03-01T09:00:00Z"/>
          <string key="org:resource" value="nurse-1"/>
          <boolean key="urgent" value="true"/>
          <float key="crp" value="21.5"/>
          <string key="diag" value="X">
            <string key="code" value="J18"/>
          </string>
        </event>
      </trace>
    </log>"""
    log = parse_xes(xml)
    e = log.traces[0].events[0]
    assert e.resource == "nurse-1"
    assert e.attributes["urgent"] is True
    assert e.attributes["crp"] == 21.5
    assert e.attributes["diag.code"] == "J18"  # nested keys are dotted
    assert e.attributes["Age"] == 72           # trace attrs copied to events
    assert e.timestamp.tzinfo is not None


def test_parse_xes_malformed_xml_reports_position():
    with pytest.raises(ParseError, match=r"line \d+, column \d+"):
        parse_xes(b"<log><trace></log>")


def test_parse_xes_missing_name_fails_or_skips():
    xml = b"""<log><trace>
      <string key="concept:name" value="c"/>
      <event><date key="time:timestamp" value="2024-03-01T09:00:00Z"/></event>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2024-03-01T09:01:00Z"/>
      </event>
    </trace></log>"""
    with pytest.raises(ParseError, match="event 0"):
        parse_xes(xml)
    log = parse_xes(xml, on_malformed="skip")
    assert log.n_events == 1
    assert log.meta["skipped_events"] == 1


def test_xes_round_trip():
    log = log_from_sequences([["A", "B"], ["A"]])
    buf = io.StringIO()
    write_xes(log, buf)
    again = parse_xes(buf.getvalue().encode("utf-8"))
    assert again == log


CSV_3ROWS = (
    "case,task,when\n"
    "c1,A,2024-03-01 09:00:00\n"
    "c1,B,2024-03-01 09:05:00\n"
    "c1,C,2024-03-01 09:10:00\n"
)
CSV_MAPPING = CsvMapping(case="case", activity="task", timestamp="when",
                         timestamp_format="%Y-%m-%d %H:%M:%S", resource=None)


def test_parse_csv_single_case():
    log = parse_csv(io.StringIO(CSV_3ROWS), CSV_MAPPING)
    assert len(log.traces) == 1
    assert log.traces[0].activities == ("A", "B", "C")


def test_parse_csv_interleaved_cases_sorted_per_case():
    text = (
        "case,task,when\n"
        "c1,A,2024-03-01 09:02:00\n"
        "c2,X,2024-03-01 09:00:00\n"
        "c1,B,2024-03-01 09:01:00\n"
        "c2,Y,2024-03-01 09:03:00\n"
    )
    log = parse_csv(io.StringIO(text), CSV_MAPPING)
    assert [t.case_id for t in log.traces] == ["c1", "c2"]
    assert log.traces[0].activities == ("B", "A")  # time-sorted within case
    assert log.traces[1].activities == ("X", "Y")


def test_parse_csv_header_only_gives_empty_log():
    log = parse_csv(io.StringIO("case,task,when\n"), CSV_MAPPING)
    assert len(log.traces) == 0
    assert log.alphabet == frozenset()


def test_parse_csv_missing_column_is_config_error():
    with pytest.raises(ConfigError, match="missing"):
        parse_csv(io.StringIO("case,task\nc1,A\n"), CSV_MAPPING)


def test_parse_csv_bad_timestamp_names_row():
    text = "case,task,when\nc1,A,not-a-time\n"
    with pytest.raises(ParseError, match="row 2"):
        parse_csv(io.StringIO(text), CSV_MAPPING)


def _attribute_heavy_log():
    t0 = datetime(2024, 3, 1, 9, 0, tzinfo=timezone.utc)
    events = (
        Event("c1", "A", t0, "r1", {"count": 3, "score": 1.25,
                                    "flag": True, "note": "hello, world"}),
        Event("c1", "B", t0 + timedelta(minutes=1), None,
              {"flag": False, "when": t0}),
    )
    return EventLog((Trace("c1", events),))


def test_csv_round_trip_identity():
    log = _attribute_heavy_log()
    buf = io.StringIO()
    write_csv(log, buf)
    again = parse_csv(io.StringIO(buf.getvalue()), mapping_for_log(log))
    assert again == log


def test_csv_round_trip_identity_random_logs():
    rng = random.Random(5)
    for _ in range(25):
        events = []
        for c in range(rng.randint(1, 4)):
            for i in range(rng.randint(1, 6)):
                attrs = {}
                if rng.random() < 0.5:
                    attrs["n"] = rng.randint(-5, 5)
                if rng.random() < 0.3:
                    attrs["x"] = rng.random()
                events.append(Event(
                    f"c{c}", rng.choice("abc"),
                    T0 + timedelta(seconds=rng.randint(0, 3600)),
                    rng.choice([None, "r1", "r2"]), attrs))
        log = EventLog(tuple(
            Trace(cid, tuple(e for e in events if e.case_id == cid))
            for cid in dict.fromkeys(e.case_id for e in events)))
        buf = io.StringIO()
        write_csv(log, buf)
        assert parse_csv(io.StringIO(buf.getvalue()), mapping_for_log(log)) == log


def test_parse_csv_auto_infers_types():
    log = _attribute_heavy_log()
    buf = io.StringIO()
    write_csv(log, buf)
    again = parse_csv_auto(io.StringIO(buf.getvalue()))
    assert again == log


def test_read_context_csv():
    ctx = read_context_csv(io.StringIO("case_id,age_group,score\nc1,65+,3\nc2,40-65,\n"))
    assert ctx.rows["c1"] == {"age_group": "65+", "score": 3}
    assert ctx.rows["c2"] == {"age_group": "40-65"}


def test_parse_timestamp_handles_zulu():
    ts = parse_timestamp("2014-10-22T11:15:41Z")
    assert ts.tzinfo is not None
    assert ts.hour == 11


def test_xes_round_trip_with_special_characters():
    t0 = datetime(2024, 3, 1, 9, 0, tzinfo=timezone.utc)
    events = (
        Event('c&<>"', 'Lab "A" & <B>', t0, 'nurse & doctor',
              {'note': 'x < y & "z"', 'grade': 'ü-β'}),
    )
    log = EventLog((Trace('c&<>"', events),))
    buf = io.StringIO()
    write_xes(log, buf)
    assert parse_xes(buf.getvalue().encode("utf-8")) == log


def test_xes_boolean_case_insensitive():
    xml = b"""<log><trace>
      <string key="concept:name" value="c"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2024-03-01T09:00:00.000+02:00"/>
        <boolean key="SIRSCritTachypnea" value="True"/>
      </event>
    </trace></log>"""
    log = parse_xes(xml)
    assert log.traces[0].events[0].attributes["SIRSCritTachypnea"] is True


# every character csv.writer quotes for, spaces and non-ASCII text
_CSV_TEXT = st.text(st.sampled_from(',"\r\n éß☃\U0001f600ab'), max_size=6)
_ACTIVITIES = _CSV_TEXT.filter(str.strip)  # Event strips the activity


_KIND_VALUES = {
    "int": st.integers(-10**9, 10**9),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "timestamp": st.datetimes(
        min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
        timezones=st.sampled_from([timezone.utc,
                                   timezone(timedelta(hours=5, minutes=30)),
                                   timezone(-timedelta(hours=8))])),
    # the prefix keeps every other kind from parsing a string cell
    "string": st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="\x00"),
                      max_size=8).map(lambda s: "s_" + s),
}


@st.composite
def single_kind_logs(draw):
    """Logs whose every attribute column holds values of one kind, and
    whose case ids, activities, resources and column names hold commas,
    double quotes, CR, LF, spaces and non-ASCII text."""
    kinds = draw(st.dictionaries(_CSV_TEXT, st.sampled_from(sorted(_KIND_VALUES)),
                                 max_size=4))
    cases = draw(st.lists(_CSV_TEXT, min_size=1, max_size=3, unique=True))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        attrs = {col: draw(_KIND_VALUES[kind]) for col, kind in kinds.items()
                 if draw(st.booleans())}
        events.append(Event(
            draw(st.sampled_from(cases)), draw(_ACTIVITIES),
            T0 + timedelta(seconds=draw(st.integers(0, 10**6))),
            # an empty resource reads back as None
            draw(st.none() | _CSV_TEXT.filter(bool)), attrs))
    return make_log(events)


@settings(max_examples=300, deadline=None)
@given(single_kind_logs())
def test_parse_csv_auto_round_trips_single_kind_columns(log):
    buf = io.StringIO()
    write_csv(log, buf)
    text = buf.getvalue()
    assert parse_csv_auto(io.StringIO(text, newline="")) == log
    assert parse_csv_auto(text.encode("utf-8")) == per_cell_parse_csv_auto(text)


def test_parse_csv_auto_types_mixed_columns_per_column():
    text = ("case_id,activity,timestamp,m,n\n"
            "c1,A,2024-03-01T09:00:00,1,1\n"
            "c1,B,2024-03-01T09:05:00,x,1.5\n")
    a, b = parse_csv_auto(io.StringIO(text)).traces[0].events
    # "1" and "x": both strings; "1" and "1.5": both floats
    assert (a.attributes, b.attributes) == ({"m": "1", "n": 1.0},
                                            {"m": "x", "n": 1.5})
    # typed per cell, the same column held an int beside a string
    a, b = per_cell_parse_csv_auto(text).traces[0].events
    assert (a.attributes, b.attributes) == ({"m": 1, "n": 1},
                                            {"m": "x", "n": 1.5})


def test_blank_lines_are_skipped_and_rows_keep_their_file_number():
    text = ("case_id,activity,timestamp\n"
            "c1,A,2024-03-01T09:00:00\n"
            "\n"
            "c1,B\n")
    with pytest.raises(ParseError, match=r"^row 4: 2 fields, header has 3$"):
        parse_csv_auto(io.StringIO(text))
    fixed = text.replace("c1,B\n", "c1,B,2024-03-01T09:01:00\n")
    assert parse_csv_auto(io.StringIO(fixed)).traces[0].activities == ("A", "B")


def test_read_context_csv_rejects_empty_case_id_and_ragged_rows():
    with pytest.raises(ParseError, match=r"^row 3: empty case_id$"):
        read_context_csv(io.StringIO("case_id,age\nc1,5\n,6\n"))
    with pytest.raises(ParseError, match=r"^row 2: 3 fields, header has 2$"):
        read_context_csv(io.StringIO("case_id,age\nc1,5,6\n"))



# ---------------------------------------------------------------------------
# The one-pass reader and the column-wise writer against the code they
# replaced (oracles.parse_csv_auto, oracles.parse_csv, oracles.write_csv)
# ---------------------------------------------------------------------------

_BAD_TS_CELLS = ["2024-03-01T09:00:00z", "2024-13-01T00:00:00", "nope", "",
                 "2024-03-01T09:00:00ZZ", "2024-03-01T09:00:00+00:00Z",
                 "2024-03-01Z"]
_TS_CELLS = ["2024-03-01T09:00:00Z", "2024-03-01 09:00:00Z",
             " 2024-03-01T09:00:00+02:00 ", "2024-03-01T08:00:00.250000-05:30",
             "2024-03-01T09:00Z", "\t2024-03-01T09:00:00Z", "20240301T090000Z"]
_NAIVE_TS_CELLS = ["2024-03-01T09:00:00", "2024-03-01", "2024-03-01 09:00:00 "]
_EXTRA_CELLS = ["", "", "1", "-2", " 3 ", "1.5", "1e3", "nan", "inf", "true",
                "False", "TRUE", "yes", "x", "1,5", 'q"r', "2024-03-01T09:00:00",
                "2024-03-01T09:00:00Z", "2024-03-01T10:00:00+01:00"]


def _role_cells(hostile: bool, naive: bool):
    """Cells of each event-field column. A hostile file may hold empty
    activities and bad timestamps, and mixes naive and aware ones."""
    ts_cells = _NAIVE_TS_CELLS if naive else _TS_CELLS
    dates = st.datetimes(min_value=datetime(2000, 1, 1),
                         max_value=datetime(2030, 1, 1),
                         timezones=st.sampled_from(
                             [None] if naive else
                             [timezone.utc, timezone(-timedelta(hours=3.5))]))
    if hostile:
        ts_cells = _TS_CELLS + _NAIVE_TS_CELLS + _BAD_TS_CELLS
        dates = st.datetimes(min_value=datetime(2000, 1, 1),
                             max_value=datetime(2030, 1, 1),
                             timezones=st.sampled_from([None, timezone.utc]))
    return {
        "case_id": st.sampled_from(["c0", "c1", " c2", "c,3", ""]),
        "activity": st.sampled_from(["a", " b", "c ", "a", "d,e", 'f"g']
                                    + (["", " "] if hostile else [])),
        "timestamp": st.one_of(st.sampled_from(ts_cells),
                               dates.map(datetime.isoformat)),
        "resource": st.sampled_from(["", "r1", " r2 ", "r,3"]),
    }


@st.composite
def csv_texts(draw, ragged=True, ignored=()):
    """CSV text: the required columns, maybe a resource column, up to
    three extra columns in any order, and rows of cells drawn to hit
    every decoding path, good and bad; maybe blank lines and, if ragged,
    maybe rows of the wrong width."""
    extras = draw(st.lists(st.sampled_from(["n", "m", "p q", "r,s"]),
                           max_size=3, unique=True))
    roles = ["case_id", "activity", "timestamp",
             *(["resource"] if draw(st.booleans()) else []), *extras,
             *ignored]
    header = draw(st.permutations(roles))
    cells = _role_cells(draw(st.booleans()), draw(st.booleans()))
    shapes = ["row"] * 8 + ["blank"]
    if ragged and draw(st.integers(0, 3)) == 0:
        shapes += ["short", "long"]
    lines = [header]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append([])
            continue
        row = [draw(cells.get(col, st.sampled_from(_EXTRA_CELLS)))
               for col in header]
        lines.append(row[:-1] if shape == "short" else
                     row + ["x"] if shape == "long" else row)
    buf = io.StringIO()
    csv.writer(buf).writerows(lines)
    return buf.getvalue()


def _outcome(read, source):
    """The log read, as plain values that tell types and UTC offsets
    apart, or the error's type and message."""
    try:
        log = read(source)
    except KcpmError as exc:
        return type(exc).__name__, str(exc)

    def value(v):
        return type(v).__name__, (v.isoformat() if isinstance(v, datetime)
                                  else repr(v))

    return [(t.case_id, [(e.case_id, e.activity, value(e.timestamp),
                          e.resource, list(map(value, e.attributes)),
                          sorted((k, value(v)) for k, v in e.attributes.items()))
                         for e in t.events])
            for t in log.traces]


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_parse_csv_auto_matches_the_former_reader(text):
    assert (_outcome(parse_csv_auto, io.StringIO(text, newline=""))
            == _outcome(oracles.parse_csv_auto, text))


@settings(max_examples=400, deadline=None)
@given(csv_texts(ragged=False, ignored=("z", "z")), st.data())
def test_parse_csv_matches_the_former_reader(text, data):
    """With declared kinds an attribute cell can fail to decode: the
    error names the first row with a bad timestamp, attribute cell or
    activity, and in that row the first of them in that order. (A file
    with a ragged row reports it first, where the former reader streamed,
    so no row here is ragged.)"""
    header = next(csv.reader(io.StringIO(text)))
    extras = [col for col in header if col in ("n", "m", "p q", "r,s")]
    kind = st.sampled_from(["string", "int", "float", "bool", "timestamp"])
    mapping = CsvMapping(
        resource="resource" if "resource" in header else None,
        timestamp_format=data.draw(st.sampled_from(["iso"] * 4
                                                   + ["%Y-%m-%d %H:%M:%S"])),
        attributes={col: data.draw(kind) for col in data.draw(
            st.lists(st.sampled_from(extras), unique=True) if extras
            else st.just([]))})
    assert (_outcome(lambda src: parse_csv(src, mapping),
                     io.StringIO(text, newline=""))
            == _outcome(lambda src: oracles.parse_csv(src, mapping), text))


def test_an_attribute_error_names_its_first_row_before_a_later_timestamp():
    text = ("case_id,activity,timestamp,n\n"
            "c1,a,2024-03-01T09:00:00,1\n"
            "c1,b,2024-03-01T09:01:00,x\n"
            "c1,,nope,x\n")
    mapping = CsvMapping(resource=None, attributes={"n": "int"})
    with pytest.raises(ParseError, match=r"^row 3, column 'n': invalid"):
        parse_csv(io.StringIO(text), mapping)
    # in one row a bad timestamp comes first, then a bad cell, then an
    # empty activity
    text = "case_id,activity,timestamp,n\nc1,,nope,x\n"
    with pytest.raises(ParseError, match=r"^row 2: bad timestamp"):
        parse_csv(io.StringIO(text), mapping)
    text = "case_id,activity,timestamp,n\nc1,,2024-03-01T09:00:00,x\n"
    with pytest.raises(ParseError, match=r"^row 2, column 'n'"):
        parse_csv(io.StringIO(text), mapping)


def test_a_ragged_row_is_reported_before_a_trace_mixing_naive_and_aware():
    text = ("case_id,activity,timestamp\n"
            "c1,a,2024-03-01T09:00:00\n"
            "c2,a,2024-03-01T09:00:00\n"
            "c1,b,2024-03-01T08:00:00+00:00\n"
            "c2,b\n")
    with pytest.raises(ParseError, match=r"^row 5: 2 fields, header has 3$"):
        parse_csv_auto(io.StringIO(text))
    fixed = text.replace("c2,b\n", "c2,b,2024-03-01T09:01:00\n")
    with pytest.raises(DataError, match="^trace 'c1' mixes naive and "
                                        "offset-aware timestamps$"):
        parse_csv_auto(io.StringIO(fixed))


def test_the_reader_shares_one_object_per_distinct_value():
    text = ("case_id,activity,timestamp\n"
            "c1,a,2024-03-01T09:00:00Z\n"
            "c2,a ,2024-03-01T09:00:00Z\n"
            "c1,b,2024-03-01T09:01:00Z\n")
    c1, c2 = parse_csv_auto(io.StringIO(text)).traces
    assert c1.events[0].activity is c2.events[0].activity
    assert c1.events[0].timestamp is c2.events[0].timestamp
    assert c1.events[0].case_id is c1.events[1].case_id


@pytest.mark.parametrize("header", [
    "case_id,activity,timestamp,activity",
    "case_id,activity,timestamp,n,n",
    "case_id,activity,timestamp,resource,resource",
])
def test_a_repeated_column_of_a_log_is_a_parse_error(header):
    text = header + "\n" + ",".join(["c1", "a", "2024-03-01T09:00:00"]
                                     + ["x"] * (header.count(",") - 2)) + "\n"
    name = header.rsplit(",", 1)[1]
    with pytest.raises(ParseError,
                       match=f"^column '{name}' is named more than once"):
        parse_csv_auto(io.StringIO(text))


def test_an_unused_repeated_column_is_ignored_by_an_explicit_mapping():
    text = "case,task,when,z,z\nc1,A,2024-03-01 09:00:00,1,2\n"
    assert parse_csv(io.StringIO(text), CSV_MAPPING).traces[0].activities == ("A",)
    with pytest.raises(ParseError, match="'task' is named more than once"):
        parse_csv(io.StringIO("case,task,when,task\n"), CSV_MAPPING)


@pytest.mark.parametrize("name", ["activity", "timestamp", "resource"])
def test_a_context_column_named_after_an_event_field_is_a_data_error(name):
    with pytest.raises(DataError, match=f"^context column '{name}' "):
        read_context_csv(io.StringIO(f"case_id,{name}\nc1,x\n"))


def test_an_xes_attribute_named_after_an_event_field_is_a_parse_error():
    xml = XES_MINIMAL.replace(b'value="B"/>',
                              b'value="B"/><string key="activity" value="X"/>')
    with pytest.raises(ParseError,
                       match=r"^trace 'case1' event 1: attribute 'activity' "):
        parse_xes(xml)
    with pytest.raises(ParseError, match=r"^trace 'case1' event 0: event "
                                         "activity must be nonempty$"):
        parse_xes(XES_MINIMAL.replace(b'value="A"', b'value=" "'))


def test_write_csv_and_the_mapping_refuse_an_attribute_named_after_a_field():
    log = EventLog((Trace("c", (Event("c", "a", T0, None, {"resource": "x"}),)),))
    with pytest.raises(DataError, match="'resource'"):
        write_csv(log, io.StringIO())
    with pytest.raises(ConfigError, match="'activity'"):
        CsvMapping(activity="task", attributes={"activity": "string"})


_OFFSETS = [timezone.utc, timezone(timedelta(hours=1)),
            timezone(timedelta(hours=-5, minutes=-30))]


@settings(max_examples=300, deadline=None)
@given(st.lists(_CSV_TEXT, min_size=2, max_size=6))
def test_quoted_fields_make_the_row_csv_writer_writes(cells):
    # write_csv's rows have at least four fields; a row of one empty
    # field is the one csv.writer quotes although the field holds nothing
    want = io.StringIO()
    csv.writer(want).writerow(cells)
    assert ",".join(map(logio._field, cells)) + "\r\n" == want.getvalue()


@st.composite
def writer_logs(draw):
    """Logs whose timestamps repeat as one object and as equal copies,
    hold equal instants at different UTC offsets, have microseconds, and
    whose traces are naive or aware; case ids, activities, resources,
    attribute names and string values holding commas, double quotes, CR,
    LF, spaces and non-ASCII text; resources None or ""; attributes of
    every kind, None included."""
    base = [datetime(2024, 3, 1, 9, 0, 0, draw(st.sampled_from([0, 250000, 7])))
            + timedelta(minutes=draw(st.integers(0, 3)))
            for _ in range(draw(st.integers(1, 4)))]
    aware = [b.replace(tzinfo=timezone.utc).astimezone(tz)
             for b in base for tz in _OFFSETS]
    attr_values = st.one_of(
        st.none(), st.booleans(), st.integers(-10**6, 10**6),
        st.floats(allow_nan=True), _CSV_TEXT, st.sampled_from(base + aware))
    attr_names = draw(st.lists(_CSV_TEXT, min_size=1, max_size=3, unique=True))
    traces = []
    for case in draw(st.lists(_CSV_TEXT, max_size=4, unique=True)):
        pool = aware if draw(st.booleans()) else base
        events = []
        for _ in range(draw(st.integers(1, 5))):
            ts = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                ts = ts + timedelta(0)  # an equal, separate object
            attrs = draw(st.dictionaries(st.sampled_from(attr_names),
                                         attr_values, max_size=3))
            events.append(Event(case, draw(_ACTIVITIES), ts,
                                draw(st.none() | _CSV_TEXT), attrs))
        traces.append(Trace(case, tuple(events)))
    return EventLog(tuple(traces))


@settings(max_examples=400, deadline=None)
@given(writer_logs())
def test_write_csv_matches_the_former_writer_byte_for_byte(log):
    want = io.StringIO()
    oracles.write_csv(log, want)
    # chunks of 1, 2 and 3 events put rows, traces and shared timestamp
    # objects on both sides of chunk edges
    for chunk in (1, 2, 3, logio._WRITE_CHUNK):
        got = io.StringIO()
        with mock.patch.object(logio, "_WRITE_CHUNK", chunk):
            write_csv(log, got)
        assert got.getvalue() == want.getvalue(), chunk


class _Discard:
    def write(self, text):
        return len(text)


def _write_csv_peak(n_events: int) -> int:
    """tracemalloc's peak while write_csv writes n_events to a stream
    that keeps nothing: 50-event traces, every timestamp object shared
    by two events, and one attribute per event."""
    stamps = [T0 + timedelta(seconds=k) for k in range(n_events // 2)]
    traces = []
    for start in range(0, n_events, 50):
        case = f"c{start}"
        traces.append(Trace(case, tuple(
            Event(case, "a", stamps[i // 2], "r", {"synthetic": True})
            for i in range(start, min(start + 50, n_events)))))
    log = EventLog(tuple(traces))
    tracemalloc.start()
    try:
        write_csv(log, _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_holds_one_chunk_at_a_time():
    # tracemalloc counts allocations, not pages, so the bound is exact
    _write_csv_peak(100)  # first-call allocations stay out of the bound
    one = _write_csv_peak(logio._WRITE_CHUNK)
    eight = _write_csv_peak(8 * logio._WRITE_CHUNK)
    assert eight - one < one


def _cohort_csv(path, cases: int) -> int:
    """Write a log shaped like the variant workload's cohort log: five
    events per case, every timestamp distinct, no resource, and a
    profile cell on every row. Returns the number of events."""
    flow = ("intake", "screen", "course", "review", "done")
    profiles = ("effective", "preference", "supply")
    lines = ["case_id,activity,timestamp,resource,profile"]
    for i in range(cases):
        base = T0 + timedelta(hours=i)
        lines += [f"h{i:04d},{act},{(base + timedelta(minutes=j)).isoformat()},,"
                  f"{profiles[i % 3]}" for j, act in enumerate(flow)]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    return cases * len(flow)


def test_the_log_reader_peaks_near_the_log_it_keeps(tmp_path):
    # beyond the log, the reader holds the timestamp-text cache, each
    # case's list of events and a few bytes per row with an attribute
    # cell; tracemalloc counts allocations, not pages, so the bound is exact
    path = tmp_path / "cohort.csv"
    n_events = _cohort_csv(path, 3000)
    parse_csv_auto(io.StringIO("case_id,activity,timestamp,n\n"
                               "c,a,2024-03-01T09:00:00Z,x\n"))  # first-call allocations
    tracemalloc.start()
    try:
        log = parse_csv_auto(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.n_events == n_events
    assert peak - kept <= 0.6 * kept, (peak, kept)
