"""Event log repair: remove rule-violating events, insert rule-implied
missing ones, and check guideline latencies.

Removal is contradiction-driven: an event goes when the rule base
entails that its activity is forbidden immediately before its successor.
Insertion is obligation-driven: when an entailed prerequisite of an
event is absent from the prefix, a candidate for it is placed directly
before that event and accepted if either the rule derivation or the
directly-follows fallback (kcpm.temporal) clears the acceptance
threshold.
Inserted events are marked ``synthetic=true``; the original trace is
always a subsequence of the repaired one.
"""
from __future__ import annotations

import functools
import json
from datetime import timedelta
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from .eventlog import Event, EventLog, Trace, insertion_time
from .kg import FORBIDDEN_BEFORE, MUST_PRECEDE
from .rules import Closure

if TYPE_CHECKING:
    from collections.abc import Callable

    from .temporal import DirectlyFollowsShare


class RemovedEvent(NamedTuple):
    case_id: str
    index: int          # position in the trace as passed in
    activity: str
    rule_id: str | None


class _CandidateFields(NamedTuple):
    case_id: str
    activity: str
    position: int       # insert before events[position] of the final trace
    score: float
    provenance: str     # "rule" | "embedding" (the directly-follows fallback)
    rule_id: str | None = None


class CandidateInsertion(_CandidateFields):
    """One accepted insertion, a tuple of its six fields. Every way of
    making one (positional, keyword, _make, _replace) rejects a negative
    position and a score outside [0, 1], and turns the score into a
    float: an int, a bool or a Fraction becomes one."""

    __slots__ = ()

    def __new__(cls, case_id: str, activity: str, position: int,
                score: float, provenance: str, rule_id: str | None = None):
        if position < 0:
            raise ValueError("position must be nonnegative")
        if not 0.0 <= score <= 1.0:
            raise ValueError("score must be in [0, 1]")
        return tuple.__new__(cls, (case_id, activity, position, float(score),
                                   provenance, rule_id))

    @classmethod
    def _make(cls, iterable) -> CandidateInsertion:
        return cls(*iterable)


class AugmentationReport(NamedTuple):
    removed_events: tuple[RemovedEvent, ...] = ()
    inserted: tuple[CandidateInsertion, ...] = ()
    thresholds: dict | None = None


def filter_chaotic_events(
    log: EventLog,
    closure: Closure,
    alias: dict[str, str] | None = None,
) -> tuple[EventLog, AugmentationReport]:
    """Remove events whose position the closure rules out.

    Per trace, the leftmost event whose entity is forbidden immediately
    before its successor's is removed and the trace re-spliced,
    repeating until stable, which makes the operation idempotent.
    Events whose activity has no entity mapping are never touched.
    Reported indices refer to the input trace.
    """
    forbidden: dict[str, dict[str, str | None]] = {}
    for s, o, _, via in closure.facts(FORBIDDEN_BEFORE):
        forbidden.setdefault(s, {})[o] = via

    removed: list[RemovedEvent] = []
    traces = []
    new_trace = tuple.__new__  # a subsequence of a trace is in order
    for t in log.traces:
        work = list(t.events)
        positions = list(range(len(work)))
        ents = ([e.activity for e in work] if alias is None
                else [alias.get(e.activity) for e in work])
        i = 0
        while i + 1 < len(work):
            after = forbidden.get(ents[i])
            if after is None or ents[i + 1] not in after:
                i += 1
                continue
            removed.append(RemovedEvent(t.case_id, positions[i],
                                        work[i].activity, after[ents[i + 1]]))
            del work[i], positions[i], ents[i]
            # only work[i-1] has a new successor, so the scan resumes there
            if i > 0:
                i -= 1
        if work:
            traces.append(new_trace(Trace, (t.case_id, tuple(work))))
    return (EventLog(tuple(traces), dict(log.meta)),
            AugmentationReport(removed_events=tuple(removed)))


def infer_missing_events(
    log: EventLog,
    closure: Closure,
    make_scorer: Callable[[], DirectlyFollowsShare | None] | None = None,
    theta: float = 0.5,
    alias: dict[str, str] | None = None,
) -> tuple[EventLog, AugmentationReport]:
    """Insert rule-implied prerequisite events that are missing from a
    trace prefix.

    Scanning left to right, each event whose entailed prerequisites are
    absent earlier in the (working) trace gets them inserted directly
    before it, ordered among themselves by their own precedence
    entailments. A candidate is accepted when the obligation's
    derivation confidence reaches theta, or failing that when the
    candidate's directly-follows share after its predecessor reaches
    theta (provenance "embedding"). The share comes from make_scorer,
    called at most once: when the first candidate the rule alone does
    not accept has a predecessor. Inserted events take the midpoint of
    their neighbors' timestamps (one second before the first event at
    trace start) and the attribute synthetic=true.
    """
    if make_scorer is not None:
        make_scorer = functools.cache(make_scorer)
    prec = _Precedence(closure)
    need, bit = prec.need, prec.bit
    reverse_alias: dict[str, str] = {}
    if alias:
        for act, ent in alias.items():
            reverse_alias.setdefault(ent, act)

    def activity_of(entity: str) -> str:
        if alias is None:
            return entity
        return reverse_alias.get(entity, entity)

    inserted: list[CandidateInsertion] = []
    traces = []
    # each insertion is timed between its neighbours (insertion_time), so
    # the trace stays in order with ties in place: made without a re-sort
    new_trace = tuple.__new__
    for t in log.traces:
        work = list(t.events)
        # entities of work[:i] and every entity inserted in this trace
        # (one insertion per entity per trace)
        done = 0
        i = 0
        while i < len(work):
            ent = work[i].activity
            if alias is not None:
                ent = alias.get(ent)
            # most events have every prerequisite done: one int test
            missing = need.get(ent, 0) & ~done
            insert_at = i
            if missing:
                for p in prec.order(missing):
                    conf, rule_id = closure.lookup(MUST_PRECEDE, p, ent)
                    accepted = None
                    if conf >= theta:
                        accepted = CandidateInsertion(
                            t.case_id, activity_of(p), insert_at, conf,
                            "rule", rule_id)
                    elif make_scorer is not None and insert_at > 0:
                        share = make_scorer()
                        degree = None if share is None else share.degree(
                            work[insert_at - 1].activity, activity_of(p),
                            theta)
                        if degree is not None:
                            accepted = CandidateInsertion(
                                t.case_id, activity_of(p), insert_at,
                                degree, "embedding")
                    if accepted is None:
                        continue
                    work.insert(insert_at, Event(
                        t.case_id, accepted.activity,
                        insertion_time(work, insert_at),
                        attributes={"synthetic": True}))
                    inserted.append(accepted)
                    done |= bit[p]
                    insert_at += 1
            if insert_at == i:
                done |= bit.get(ent, 0)
                i += 1
            # otherwise stay at the first inserted event so its own
            # prerequisites are checked before the scan moves on; every
            # insertion lands at i or later, so done stays valid
        traces.append(new_trace(Trace, (t.case_id, tuple(work))))
    report = AugmentationReport(inserted=tuple(inserted),
                                thresholds={"theta": theta})
    return EventLog(tuple(traces), dict(log.meta)), report


class _Precedence:
    """The closure's must_precede facts as int masks.

    Bit k stands for the k-th prerequisite entity in sorted order, so
    reading a mask lowest bit first lists its entities alphabetically.
    need maps an entity to the mask of its prerequisites. A fact's
    confidence and rule stay in the closure, read by Closure.lookup."""

    def __init__(self, closure: Closure):
        base, derived = closure.relation(MUST_PRECEDE)
        # base rows are the KG's object sets and derived rows hold at
        # least one fact, so every subject here is some object's
        # prerequisite
        self.names = sorted(base.keys() | derived.keys())
        self.bit = {name: 1 << k for k, name in enumerate(self.names)}
        need: dict[str, int] = {}
        for layer in (base, derived):
            for s, objs in layer.items():
                b = self.bit[s]
                for o in objs:
                    need[o] = need.get(o, 0) | b
        self.need = need

    def decode(self, mask: int) -> list[str]:
        """The entities of a mask, alphabetically."""
        names = []
        while mask:
            low = mask & -mask
            names.append(self.names[low.bit_length() - 1])
            mask ^= low
        return names

    def order(self, pending: int) -> list[str]:
        """Topological order of the pending prerequisites by their own
        must-precede entailments: repeatedly the alphabetically first
        one with no other pending prerequisite; on a cycle, the rest
        alphabetically."""
        ordered: list[str] = []
        while pending:
            rest = pending
            while rest:
                low = rest & -rest
                p = self.names[low.bit_length() - 1]
                if not self.need.get(p, 0) & pending & ~low:
                    break
                rest ^= low
            else:  # cycle: fall back to alphabetical for the rest
                ordered.extend(self.decode(pending))
                break
            ordered.append(p)
            pending ^= low
        return ordered


def check_guideline_latency(
    log: EventLog, from_activity: str, to_activity: str, limit: timedelta
) -> float:
    """Fraction of cases containing both activities whose elapsed time
    from the first occurrence of one to the first occurrence of the
    other exceeds the limit."""
    n_both = 0
    n_violating = 0
    for t in log.traces:
        first_from = next((e.timestamp for e in t.events
                           if e.activity == from_activity), None)
        first_to = next((e.timestamp for e in t.events
                         if e.activity == to_activity), None)
        if first_from is None or first_to is None:
            continue
        n_both += 1
        if first_to - first_from > limit:
            n_violating += 1
    return n_violating / n_both if n_both else 0.0


def report_to_json(report: AugmentationReport) -> dict:
    return {
        "removed_events": [
            {"case_id": r.case_id, "index": r.index, "activity": r.activity,
             "rule_id": r.rule_id}
            for r in report.removed_events
        ],
        "inserted": [
            {"case_id": c.case_id, "activity": c.activity,
             "position": c.position, "score": c.score,
             "provenance": c.provenance, "rule_id": c.rule_id}
            for c in report.inserted
        ],
        "thresholds": report.thresholds or {},
    }


def write_report_json(report: AugmentationReport, stream) -> None:
    """report_to_json(report) as one line of JSON with sorted keys, byte
    for byte as json.dumps writes it, one record at a time: neither the
    record dicts nor the whole text are built. Every score is a float
    (CandidateInsertion makes it one), which json.dumps writes as
    float.__repr__ does."""
    quote = encode_basestring_ascii
    write = stream.write
    write('{"inserted": [')
    sep = ""
    for c in report.inserted:
        write(f'{sep}{{"activity": {quote(c.activity)}, '
              f'"case_id": {quote(c.case_id)}, "position": {c.position!r}, '
              f'"provenance": {quote(c.provenance)}, '
              f'"rule_id": {_json_or_null(c.rule_id)}, '
              f'"score": {float.__repr__(c.score)}}}')
        sep = ", "
    write('], "removed_events": [')
    sep = ""
    for r in report.removed_events:
        write(f'{sep}{{"activity": {quote(r.activity)}, '
              f'"case_id": {quote(r.case_id)}, "index": {r.index!r}, '
              f'"rule_id": {_json_or_null(r.rule_id)}}}')
        sep = ", "
    thresholds = json.dumps(report.thresholds or {}, sort_keys=True)
    write(f'], "thresholds": {thresholds}}}\n')


def _json_or_null(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def merge_reports(a: AugmentationReport, b: AugmentationReport) -> AugmentationReport:
    return AugmentationReport(
        a.removed_events + b.removed_events,
        a.inserted + b.inserted,
        {**(a.thresholds or {}), **(b.thresholds or {})},
    )
