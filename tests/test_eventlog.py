import copy
import json
import pickle
import random
from collections import Counter
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.errors import DataError
from kcpm.eventlog import (NO_ATTRIBUTES, ContextTable, Event, EventLog,
                           ReadOnlyMap, Trace, annotate_context,
                           directly_follows_counts, end_activity_counts,
                           insertion_time, log_statistics, make_log)

from conftest import T0, log_from_sequences, random_sequences
from oracles import naive_df_counts


def test_event_rejects_blank_activity():
    with pytest.raises(ValueError):
        Event("c1", "   ", T0)


@pytest.mark.parametrize("make", [
    lambda activity: Event("c1", activity, T0),
    lambda activity: Event(case_id="c1", activity=activity, timestamp=T0,
                           resource="r", attributes={"n": 1}),
    lambda activity: Event("c1", "x", T0)._replace(activity=activity),
    lambda activity: Event._make(("c1", activity, T0, None, {})),
], ids=["positional", "keyword", "_replace", "_make"])
def test_every_way_of_making_an_event_strips_and_checks_the_activity(make):
    assert make("  a \t").activity == "a"
    with pytest.raises(ValueError, match="^event activity must be nonempty$"):
        make(" \n ")


def test_events_are_immutable_tuples_that_share_the_empty_map():
    e = Event("c1", "a", T0)
    with pytest.raises(AttributeError):
        e.activity = "b"
    with pytest.raises(AttributeError):
        e.note = "x"
    assert e == ("c1", "a", T0, None, {})
    # every event made without a map shares one, which refuses changes
    assert e.attributes is Event("c1", "a", T0).attributes is NO_ATTRIBUTES
    with pytest.raises(TypeError):
        e.attributes["k"] = 1
    assert NO_ATTRIBUTES == {}
    # a map given is kept as it is, neither copied nor made read-only
    given = {"n": 1}
    kept = Event("c1", "a", T0, attributes=given).attributes
    assert kept is given and type(kept) is dict
    moved = e._replace(resource="r")
    assert (type(moved), moved.resource, e.resource) == (Event, "r", None)
    with pytest.raises(ValueError):
        e._replace(colour="red")


def _setitem(m):
    m["k"] = 1


def _delitem(m):
    del m["n"]


def _ior(m):
    m |= {"k": 1}


@pytest.mark.parametrize("mutate", [
    _setitem, _delitem, _ior, lambda m: m.clear(), lambda m: m.pop("n"),
    lambda m: m.pop("k", None), lambda m: m.popitem(),
    lambda m: m.setdefault("k", 1), lambda m: m.update(k=1),
    lambda m: m.update({}),
], ids=["setitem", "delitem", "ior", "clear", "pop", "pop-default",
        "popitem", "setdefault", "update", "update-nothing"])
def test_a_read_only_map_refuses_every_mutator(mutate):
    m = ReadOnlyMap(n=1)
    with pytest.raises(TypeError, match="read-only"):
        mutate(m)
    assert m == {"n": 1}


def test_a_read_only_map_is_a_dict_in_every_other_way():
    m = ReadOnlyMap(n=1, when=T0)
    assert m == {"n": 1, "when": T0} and isinstance(m, dict)
    # its copies are plain writable dicts
    for mine in (dict(m), {**m}, m.copy(), m | {"k": 2}):
        assert type(mine) is dict
        mine["k"] = 3
    assert m == {"n": 1, "when": T0}
    assert json.dumps(ReadOnlyMap(b=True, s="x")) == '{"b": true, "s": "x"}'


@pytest.mark.parametrize("clone", [
    *(lambda e, p=p: pickle.loads(pickle.dumps(e, p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.deepcopy, copy.copy,
], ids=[*(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        "deepcopy", "copy"])
def test_an_event_with_a_read_only_map_survives_pickle_and_copy(clone):
    e = Event("c1", "a", T0, "r", ReadOnlyMap(n=1, flag=True, when=T0))
    got = clone(e)
    assert got == e and type(got) is Event
    assert type(got.attributes) is ReadOnlyMap
    assert list(got.attributes) == ["n", "flag", "when"]
    with pytest.raises(TypeError):
        got.attributes["k"] = 1
    assert clone(Event("c1", "a", T0)).attributes == {}


def test_trace_sorts_by_timestamp_stably():
    e1 = Event("c1", "late", T0 + timedelta(minutes=5))
    e2 = Event("c1", "early", T0)
    e3 = Event("c1", "tie-first", T0, attributes={"n": 1})
    e4 = Event("c1", "tie-second", T0, attributes={"n": 2})
    t = Trace("c1", (e1, e2, e3, e4))
    assert [e.activity for e in t.events] == ["early", "tie-first",
                                              "tie-second", "late"]


@pytest.mark.parametrize("pos, expected", [
    (0, T0 - timedelta(seconds=1)),     # before the first event
    (1, T0 + timedelta(seconds=60)),    # the midpoint of its neighbours
    (2, T0 + timedelta(seconds=120)),   # a tie stays a tie
    (3, T0 + timedelta(seconds=121)),   # after the last event
])
def test_insertion_time(pos, expected):
    events = [Event("c", a, T0 + timedelta(seconds=s))
              for a, s in (("a", 0), ("b", 120), ("c", 120))]
    assert insertion_time(events, pos) == expected


@pytest.mark.parametrize("stamp, pos", [
    (datetime.min, 0),   # a second before the year 1
    (datetime.max, 1),   # a second after the year 9999
], ids=["start", "end"])
def test_insertion_time_out_of_range_names_the_case(stamp, pos):
    with pytest.raises(DataError, match="^case 'c7': an event inserted at "
                                        f"position {pos} would be timed "
                                        "outside the years 1 to 9999$"):
        insertion_time([Event("c7", "a", stamp)], pos)


def test_trace_rejects_foreign_events_and_empty():
    with pytest.raises(ValueError):
        Trace("c1", (Event("c2", "a", T0),))
    with pytest.raises(ValueError):
        Trace("c1", ())


def test_log_rejects_duplicate_case_ids():
    t = Trace("c1", (Event("c1", "a", T0),))
    with pytest.raises(ValueError):
        EventLog((t, t))


def test_alphabet_is_recomputable(tiny_log):
    assert tiny_log.alphabet == {"a", "b", "c"}
    recomputed = {e.activity for t in tiny_log.traces for e in t.events}
    assert tiny_log.alphabet == recomputed


def test_df_counts_single_trace():
    log = log_from_sequences([["a", "b", "c"]])
    assert directly_follows_counts(log) == {("a", "b"): 1, ("b", "c"): 1}


def test_df_counts_multiset():
    log = log_from_sequences([["a", "b"], ["a", "b"], ["b", "a"]])
    assert directly_follows_counts(log) == {("a", "b"): 2, ("b", "a"): 1}


def test_counts_match_bruteforce_on_random_logs():
    rng = random.Random(7)
    for _ in range(60):
        seqs = random_sequences(rng, rng.randint(1, 20), 15, list("abcde"))
        log = log_from_sequences(seqs)
        assert directly_follows_counts(log) == naive_df_counts(seqs)


def test_df_row_sums_property():
    # sum_b df(a,b) + (#traces ending in a) == total occurrences of a
    rng = random.Random(13)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 10), 12, list("abc"))
        log = log_from_sequences(seqs)
        df = directly_follows_counts(log)
        ends = end_activity_counts(log)
        totals = Counter(a for s in seqs for a in s)
        for a in log.alphabet:
            row = sum(n for (x, _), n in df.items() if x == a)
            assert row + ends.get(a, 0) == totals[a]


def test_annotate_context_merges_rows():
    log = log_from_sequences([["a", "b"]])
    ctx = ContextTable({"c0": {"age_group": "65+"}})
    annotated, unmatched = annotate_context(log, ctx)
    assert unmatched == 0
    assert all(e.attributes["age_group"] == "65+"
               for e in annotated.traces[0].events)


def test_annotate_context_empty_is_identity(tiny_log):
    annotated, unmatched = annotate_context(tiny_log, ContextTable({}))
    assert annotated == tiny_log
    assert unmatched == len(tiny_log.traces)


def test_annotate_context_event_attribute_wins():
    e = Event("c0", "a", T0, attributes={"age_group": "40-65"})
    log = EventLog((Trace("c0", (e,)),))
    annotated, _ = annotate_context(
        log, ContextTable({"c0": {"age_group": "65+"}}))
    assert annotated.traces[0].events[0].attributes["age_group"] == "40-65"


def test_annotate_context_preserves_shape():
    rng = random.Random(23)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 6), 8, list("abc"))
        log = log_from_sequences(seqs)
        cases = [t.case_id for t in log.traces]
        rows = {c: {"k": rng.randint(0, 9)} for c in cases
                if rng.random() < 0.5}
        annotated, unmatched = annotate_context(log, ContextTable(rows))
        assert unmatched == len(cases) - len(rows)
        assert len(annotated.traces) == len(log.traces)
        assert annotated.n_events == log.n_events
        assert annotated.alphabet == log.alphabet


def test_log_statistics_shape(tiny_log):
    stats = log_statistics(tiny_log)
    assert stats["n_traces"] == 3
    assert stats["n_events"] == 9
    assert stats["n_activities"] == 3
    assert stats["start_activities"] == {"a": 3}
    assert stats["end_activities"] == {"c": 3}


def test_make_log_groups_interleaved_cases():
    events = [
        Event("x", "a", T0),
        Event("y", "a", T0 + timedelta(seconds=30)),
        Event("x", "b", T0 + timedelta(seconds=60)),
        Event("y", "b", T0 + timedelta(seconds=90)),
    ]
    log = make_log(events)
    assert [t.case_id for t in log.traces] == ["x", "y"]
    assert log.traces[0].activities == ("a", "b")
    assert log.traces[1].activities == ("a", "b")


_CASES = ["c0", "c1", "c2", "c3"]


@st.composite
def tied_events(draw, naive=False):
    """Events of a few cases in any order, whose timestamps tie often and
    whose attributes share keys with the context rows below and are
    shared among the events; with naive, some timestamps are naive."""
    stamps = [T0 + timedelta(minutes=m) for m in range(3)]
    if naive:
        stamps.append(T0.replace(tzinfo=None))
    # a few maps, each shared by the events that draw it, as a reader's are
    maps = draw(st.lists(st.dictionaries(st.sampled_from(["k", "n"]),
                                         st.integers(0, 3), max_size=2),
                         min_size=1, max_size=3))
    return [Event(draw(st.sampled_from(_CASES)), draw(st.sampled_from("abc")),
                  draw(st.sampled_from(stamps)), draw(st.none() | st.just("r")),
                  draw(st.sampled_from(maps)))
            for _ in range(draw(st.integers(0, 12)))]


def _constructed_log(events):
    """events grouped by case in order of first appearance, each trace
    and the log made by their checking constructors."""
    return EventLog(tuple(
        Trace(case, tuple(e for e in events if e.case_id == case))
        for case in dict.fromkeys(e.case_id for e in events)))


def _outcome(build, events):
    try:
        return build(events)
    except DataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(tied_events(naive=True))
def test_make_log_equals_the_constructor_built_log(events):
    got = _outcome(make_log, events)
    assert got == _outcome(_constructed_log, events)
    if not isinstance(got, str):
        assert all(type(t) is Trace for t in got.traces)


def test_make_log_reports_the_first_trace_that_mixes_naive_and_aware():
    naive = T0.replace(tzinfo=None)
    events = [Event("x", "a", T0), Event("y", "a", T0), Event("y", "b", naive),
              Event("x", "b", naive)]
    with pytest.raises(DataError, match="^trace 'x' mixes naive and "
                                        "offset-aware timestamps$"):
        make_log(events)


@settings(max_examples=300, deadline=None)
@given(tied_events(), st.dictionaries(
    st.sampled_from(_CASES + ["elsewhere"]),
    st.dictionaries(st.sampled_from(["k", "age"]), st.integers(10, 20),
                    max_size=2)))
def test_annotate_context_equals_the_constructor_built_log(events, rows):
    log = _constructed_log(events)
    want, unmatched = [], 0
    for t in log.traces:
        row = rows.get(t.case_id)
        if row is None:
            unmatched += 1
            want.append(t)
            continue
        want.append(Trace(t.case_id, tuple(
            Event(e.case_id, e.activity, e.timestamp, e.resource,
                  {**row, **e.attributes})
            for e in t.events)))
    before = [dict(e.attributes) for t in log.traces for e in t.events]
    got, got_unmatched = annotate_context(log, ContextTable(rows))
    assert (got, got_unmatched) == (EventLog(tuple(want)), unmatched)
    assert type(got) is EventLog
    # one read-only map per pair of a context row and an event's map
    merged = {}
    for t, g, w in zip(log.traces, got.traces, want):
        row = rows.get(t.case_id)
        if row is None:
            assert g is t
            continue
        assert type(g) is Trace
        for e, a, b in zip(t.events, g.events, w.events):
            assert type(a) is Event and list(a.attributes) == list(b.attributes)
            # a key both in the context and on the event keeps the event's value
            assert a.attributes == {**row, **e.attributes}
            assert type(a.attributes) is ReadOnlyMap
            assert merged.setdefault((id(row), id(e.attributes)),
                                     a.attributes) is a.attributes
    assert len({id(m) for m in merged.values()}) == len(merged)
    # the log's own maps are untouched
    assert [e.attributes for t in log.traces for e in t.events] == before
