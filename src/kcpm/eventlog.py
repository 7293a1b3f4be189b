"""Event log data model and log-level statistics.

An event log is a sequence of traces (cases); each trace is the
time-ordered sequence of events of one case. Events carry an activity
label, a timestamp, an optional resource and a free-form attribute map
restricted to scalar values (str, int, float, bool, datetime).
"""
from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta
from operator import itemgetter
from typing import NamedTuple

from .errors import DataError

Scalar = str | int | float | bool | datetime


class _EventFields(NamedTuple):
    case_id: str
    activity: str
    timestamp: datetime
    resource: str | None
    attributes: dict[str, Scalar]


class Event(_EventFields):
    """One immutable event, a tuple of its five fields. Every way of
    making one (positional, keyword, _make, _replace) strips the
    activity and rejects an empty one; attributes default to a new
    empty dict."""

    __slots__ = ()

    def __new__(cls, case_id: str, activity: str, timestamp: datetime,
                resource: str | None = None,
                attributes: dict[str, Scalar] | None = None):
        activity = activity.strip()
        if not activity:
            raise ValueError("event activity must be nonempty")
        return tuple.__new__(cls, (case_id, activity, timestamp, resource,
                                   {} if attributes is None else attributes))

    @classmethod
    def _make(cls, iterable) -> Event:
        return cls(*iterable)


# the event's own fields, which no attribute may be named after
EVENT_FIELDS = Event._fields[:4]


class _TraceFields(NamedTuple):
    case_id: str
    events: tuple[Event, ...]


class Trace(_TraceFields):
    """One case, a tuple of its id and its events. Every way of making
    one (positional, keyword, _make, _replace) stably sorts the events by
    timestamp, so ties keep their original (file) order, and rejects a
    trace without events or with an event of another case."""

    __slots__ = ()

    def __new__(cls, case_id: str, events: tuple[Event, ...]):
        if not events:
            raise ValueError(f"trace {case_id!r} has no events")
        for e in events:
            if e.case_id != case_id:
                raise ValueError(
                    f"trace {case_id!r} contains event of case {e.case_id!r}"
                )
        ordered = list(events)
        _sort_by_time(case_id, ordered)
        return tuple.__new__(cls, (case_id, tuple(ordered)))

    @classmethod
    def _make(cls, iterable) -> Trace:
        return cls(*iterable)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(map(itemgetter(1), self.events))


class _EventLogFields(NamedTuple):
    traces: tuple[Trace, ...]
    meta: dict[str, Scalar]


class EventLog(_EventLogFields):
    """A tuple of traces and a meta map, which defaults to a new empty
    dict. Every way of making one rejects two traces of one case."""

    __slots__ = ()

    def __new__(cls, traces: tuple[Trace, ...],
                meta: dict[str, Scalar] | None = None):
        seen = set()
        for t in traces:
            if t.case_id in seen:
                raise ValueError(f"duplicate case id {t.case_id!r}")
            seen.add(t.case_id)
        return tuple.__new__(cls, (traces, {} if meta is None else meta))

    @classmethod
    def _make(cls, iterable) -> EventLog:
        return cls(*iterable)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(e.activity for t in self.traces for e in t.events)

    @property
    def n_events(self) -> int:
        return sum(len(t) for t in self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def trace(self, case_id: str) -> Trace:
        for t in self.traces:
            if t.case_id == case_id:
                return t
        raise KeyError(case_id)


class _ContextFields(NamedTuple):
    rows: dict[str, dict[str, Scalar]]


class ContextTable(_ContextFields):
    """Per-case context attributes (demographics, history, ...). Every
    way of making one rejects an empty case id."""

    __slots__ = ()

    def __new__(cls, rows: dict[str, dict[str, Scalar]]):
        for case_id in rows:
            if not case_id:
                raise ValueError("context row with empty case id")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def _make(cls, iterable) -> ContextTable:
        return cls(*iterable)


def _sort_by_time(case_id: str, events: list[Event]) -> None:
    """Stably sort one case's events by timestamp, in place."""
    try:
        events.sort(key=itemgetter(2))
    except TypeError:
        # a sort compares every pair that ends up adjacent, so a trace
        # mixing naive and offset-aware timestamps always lands here
        if len({e.timestamp.utcoffset() is None for e in events}) > 1:
            raise DataError(f"trace {case_id!r} mixes naive and "
                            "offset-aware timestamps") from None
        raise


def _build_log(by_case: dict[str, list[Event]],
               meta: dict[str, Scalar]) -> EventLog:
    """The log of by_case, which maps each case id to a nonempty list of
    that case's events: one trace per case, in the dict's order, each
    list stably sorted by timestamp in place. by_case is emptied as the
    traces are made, so the lists and the traces are never all alive at
    once. Grouping by case already meets every check of Trace and
    EventLog, so both are made without them."""
    new = tuple.__new__
    traces = []
    for case_id in list(by_case):  # in order: the first mixed trace raises
        events = by_case.pop(case_id)
        _sort_by_time(case_id, events)
        traces.append(new(Trace, (case_id, tuple(events))))
    return new(EventLog, (tuple(traces), meta))


def make_log(
    events: list[Event], meta: dict[str, Scalar] | None = None
) -> EventLog:
    """Group a flat event list into traces, keyed by case id in order of
    first appearance. Each trace is internally time-sorted (stable)."""
    by_case: dict[str, list[Event]] = {}
    for e in events:
        by_case.setdefault(e.case_id, []).append(e)
    return _build_log(by_case, dict(meta or {}))


def insertion_time(events, pos: int) -> datetime:
    """The timestamp of an event inserted at pos of a nonempty event
    sequence: the first event's minus 1 s at position 0, the last
    event's plus 1 s at the end, else the midpoint of its neighbours.
    The sequence stays in time order with ties in place."""
    if pos == 0:
        return events[0].timestamp - timedelta(seconds=1)
    before = events[pos - 1].timestamp
    if pos == len(events):
        return before + timedelta(seconds=1)
    return before + (events[pos].timestamp - before) / 2


def directly_follows_counts(log: EventLog) -> dict[tuple[str, str], int]:
    """Count (a, b) pairs where b immediately follows a within a trace."""
    counts: Counter = Counter()
    for t in log.traces:
        acts = t.activities
        counts.update(zip(acts, acts[1:]))
    return dict(counts)


def eventually_follows_counts(log: EventLog) -> dict[tuple[str, str], int]:
    """Count ordered position pairs i < j within a trace with activities (a, b).

    Uses a suffix-occurrence counter per trace, O(len * |alphabet|)."""
    counts: Counter = Counter()
    for t in log.traces:
        suffix: Counter = Counter()
        for a in reversed(t.activities):
            for b, n in suffix.items():
                counts[(a, b)] += n
            suffix[a] += 1
    return dict(counts)


def annotate_context(log: EventLog, ctx: ContextTable) -> tuple[EventLog, int]:
    """Merge per-case context attributes into every event of the matching
    trace. Pre-existing event attributes win on key collision.

    Returns the annotated log and the number of log cases that have no
    context row."""
    # only attributes change: the events, their order and the cases stay
    # as the log's constructors checked them, so none is checked again
    new = tuple.__new__
    unmatched = 0
    traces = []
    for t in log.traces:
        row = ctx.rows.get(t.case_id)
        if row is None:
            unmatched += 1
            traces.append(t)
            continue
        events = tuple([new(Event, (case_id, activity, ts, resource,
                                    {**row, **attributes}))
                        for case_id, activity, ts, resource, attributes
                        in t.events])
        traces.append(new(Trace, (t.case_id, events)))
    return new(EventLog, (tuple(traces), dict(log.meta))), unmatched


def start_activity_counts(log: EventLog) -> dict[str, int]:
    return dict(Counter(t.events[0].activity for t in log.traces))


def end_activity_counts(log: EventLog) -> dict[str, int]:
    return dict(Counter(t.events[-1].activity for t in log.traces))


def activity_counts(log: EventLog) -> dict[str, int]:
    return dict(Counter(e.activity for t in log.traces for e in t.events))


def log_statistics(log: EventLog) -> dict:
    """Summary statistics in JSON-exportable form."""
    lengths = [len(t) for t in log.traces]
    return {
        "n_traces": len(log.traces),
        "n_events": log.n_events,
        "n_activities": len(log.alphabet),
        "activities": sorted(log.alphabet),
        "activity_counts": dict(sorted(activity_counts(log).items())),
        "start_activities": dict(sorted(start_activity_counts(log).items())),
        "end_activities": dict(sorted(end_activity_counts(log).items())),
        "trace_length": {
            "min": min(lengths) if lengths else 0,
            "max": max(lengths) if lengths else 0,
            "mean": (sum(lengths) / len(lengths)) if lengths else 0.0,
        },
    }

