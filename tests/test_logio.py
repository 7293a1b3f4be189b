import io
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.errors import ConfigError, ParseError
from kcpm.eventlog import Event, EventLog, Trace, make_log
from kcpm.logio import (CsvMapping, mapping_for_log, parse_csv, parse_csv_auto,
                        parse_timestamp, parse_xes, read_context_csv,
                        write_csv, write_xes)

from conftest import T0, log_from_sequences
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
    """Logs whose every attribute column holds values of one kind."""
    kinds = draw(st.dictionaries(st.sampled_from(["p", "q", "r s", "t,u"]),
                                 st.sampled_from(sorted(_KIND_VALUES)),
                                 max_size=4))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        attrs = {col: draw(_KIND_VALUES[kind]) for col, kind in kinds.items()
                 if draw(st.booleans())}
        events.append(Event(
            draw(st.sampled_from(["c0", "c,1", 'c"2'])),
            draw(st.sampled_from(["a", "b c", "d"])),
            T0 + timedelta(seconds=draw(st.integers(0, 10**6))),
            draw(st.sampled_from([None, "r1", "r 2"])), attrs))
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

