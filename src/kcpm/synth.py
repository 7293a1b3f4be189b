"""Ground-truth process models, log simulation and controlled corruption.

Simulation walks the transition matrix from a start activity until it
reaches a terminal activity (no outgoing transitions), capped at 200
steps. Corruption drops events independently and splices in noise
events labeled from a separate alphabet; injected events carry the
bookkeeping attribute ``injected=true`` so repair experiments can score
themselves exactly.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

from .dfg import DependencyEdge, DependencyGraph, dependency_measure
from .errors import DataError
from .eventlog import Event, EventLog, Trace, insertion_time

MAX_TRACE_LEN = 200
_BASE_TIME = datetime(2024, 1, 1, 8, 0, 0, tzinfo=timezone.utc)


class _ModelFields(NamedTuple):
    activities: frozenset[str]
    start_probs: dict[str, float]
    transitions: dict[str, dict[str, float]]


class GroundTruthModel(_ModelFields):
    """Every way of making one rejects start or outgoing probabilities
    that do not sum to 1 and an activity outside activities."""

    __slots__ = ()

    def __new__(cls, activities: frozenset[str],
                start_probs: dict[str, float],
                transitions: dict[str, dict[str, float]]):
        if abs(sum(start_probs.values()) - 1.0) > 1e-9:
            raise ValueError("start probabilities must sum to 1")
        for act, out in transitions.items():
            if out and abs(sum(out.values()) - 1.0) > 1e-9:
                raise ValueError(f"outgoing probabilities of {act!r} must sum to 1")
        for act in list(start_probs) + list(transitions):
            if act not in activities:
                raise ValueError(f"unknown activity {act!r}")
        return tuple.__new__(cls, (activities, start_probs, transitions))

    @classmethod
    def _make(cls, iterable) -> GroundTruthModel:
        return cls(*iterable)

    @property
    def end_activities(self) -> frozenset[str]:
        return frozenset(a for a in self.activities
                         if not self.transitions.get(a))

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (a, b) for a, out in self.transitions.items() for b in out if out[b] > 0
        )

    def to_dependency_graph(self) -> DependencyGraph:
        """The model as a dependency graph with unit counts, usable as the
        reference model in footprint conformance."""
        pairs = self.edge_set()
        edges = {
            (a, b): DependencyEdge(a, b, 1,
                                   dependency_measure(1, int((b, a) in pairs)))
            for (a, b) in sorted(pairs)
        }
        df_counts = {pair: 1 for pair in edges}
        return DependencyGraph(
            self.activities, edges, {}, {},
            {a: 1 for a in sorted(self.start_probs)},
            {a: 1 for a in sorted(self.end_activities)},
            df_counts,
        )


def model_to_json(model: GroundTruthModel) -> dict:
    return {
        "activities": sorted(model.activities),
        "start_probs": dict(sorted(model.start_probs.items())),
        "transitions": {
            a: dict(sorted(out.items()))
            for a, out in sorted(model.transitions.items())
        },
    }


def model_from_json(obj: dict) -> GroundTruthModel:
    return GroundTruthModel(
        frozenset(obj["activities"]),
        dict(obj["start_probs"]),
        {a: dict(out) for a, out in obj["transitions"].items()},
    )


def _check_end_reachable(model: GroundTruthModel) -> None:
    # every activity reachable from a start must reach a terminal
    preds: dict[str, list[str]] = {}
    for a, out in model.transitions.items():
        for b in out:
            preds.setdefault(b, []).append(a)
    can_end = set(model.end_activities)
    frontier = list(can_end)
    while frontier:
        for a in preds.get(frontier.pop(), ()):
            if a not in can_end:
                can_end.add(a)
                frontier.append(a)
    reachable = set(model.start_probs)
    frontier = list(reachable)
    while frontier:
        a = frontier.pop()
        for b in model.transitions.get(a, {}):
            if b not in reachable:
                reachable.add(b)
                frontier.append(b)
    stuck = sorted(reachable - can_end)
    if stuck:
        raise DataError(f"activities cannot reach an end: {stuck}")


def _pick(rng: random.Random, choices: list[tuple[str, float]]) -> str:
    """choices: (activity, probability) in activity order."""
    roll = rng.random()
    acc = 0.0
    act = None
    for act, p in choices:
        acc += p
        if roll < acc:
            return act
    return act  # guard against float round-off at the top end


def simulate(model: GroundTruthModel, n_cases: int, seed: int = 0) -> EventLog:
    """Sample n_cases traces by random walk. Deterministic per seed; each
    trace draws from its own generator seeded with seed XOR case index,
    so per-trace parallel generation would give identical output."""
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    _check_end_reachable(model)
    starts = sorted(model.start_probs.items())
    successors = {a: sorted(out.items())
                  for a, out in model.transitions.items() if out}
    minute = timedelta(seconds=60)
    traces = []
    truncated = 0
    for idx in range(n_cases):
        rng = random.Random(seed ^ idx)
        case_id = f"case-{idx:05d}"
        current = _pick(rng, starts)
        start = _BASE_TIME + timedelta(hours=idx)
        events = [Event(case_id, current, start)]
        was_truncated = False
        while current in successors:
            if len(events) >= MAX_TRACE_LEN:
                was_truncated = True
                break
            current = _pick(rng, successors[current])
            events.append(Event(case_id, current, start + minute * len(events)))
        if was_truncated:
            truncated += 1
            last = events[-1]
            events[-1] = Event(last.case_id, last.activity, last.timestamp,
                               last.resource,
                               {**last.attributes, "truncated": True})
        traces.append(Trace(case_id, tuple(events)))
    meta = {"generator_seed": seed}
    if truncated:
        meta["truncated_cases"] = truncated
    return EventLog(tuple(traces), meta)


class _SpecFields(NamedTuple):
    drop_rate: float
    noise_rate: float
    noise_alphabet: frozenset[str]
    seed: int


class CorruptionSpec(_SpecFields):
    """Every way of making one rejects a rate outside [0, 1] and noise
    without a noise alphabet."""

    __slots__ = ()

    def __new__(cls, drop_rate: float = 0.0, noise_rate: float = 0.0,
                noise_alphabet: frozenset[str] = frozenset(), seed: int = 0):
        for name, rate in (("drop_rate", drop_rate),
                           ("noise_rate", noise_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if noise_rate > 0 and not noise_alphabet:
            raise ValueError("noise_rate > 0 requires a noise alphabet")
        return tuple.__new__(cls, (drop_rate, noise_rate, noise_alphabet,
                                   seed))

    @classmethod
    def _make(cls, iterable) -> CorruptionSpec:
        return cls(*iterable)


def corrupt(log: EventLog, spec: CorruptionSpec) -> EventLog:
    """Drop each event with drop_rate, then insert noise events at
    uniform positions, one Bernoulli(noise_rate) draw per original
    event. Traces losing all events disappear. Deterministic per seed
    (per-trace generators, seed XOR trace index)."""
    noise_labels = sorted(spec.noise_alphabet)
    traces = []
    for idx, t in enumerate(log.traces):
        rng = random.Random(spec.seed ^ idx)
        kept = [e for e in t.events if rng.random() >= spec.drop_rate]
        n_noise = sum(1 for _ in t.events if rng.random() < spec.noise_rate)
        for _ in range(n_noise):
            pos = rng.randrange(len(kept) + 1)
            label = noise_labels[rng.randrange(len(noise_labels))]
            # a trace whose events were all dropped starts at the base time
            ts = insertion_time(kept, pos) if kept else _BASE_TIME
            kept.insert(pos, Event(t.case_id, label, ts,
                                   attributes={"injected": True}))
        if kept:
            traces.append(Trace(t.case_id, tuple(kept)))
    return EventLog(tuple(traces), dict(log.meta))


def dropped_events(source: EventLog, corrupted: EventLog) -> dict[str, Counter]:
    """Per-case multiset of activities present in the source log but
    missing from the corrupted one (injected events are ignored).
    Timestamps are untouched by corruption, so a multiset diff over
    (timestamp, activity) recovers the drops exactly."""
    corrupted_by_case = {t.case_id: t for t in corrupted.traces}
    out: dict[str, Counter] = {}
    for t in source.traces:
        have: Counter = Counter()
        ct = corrupted_by_case.get(t.case_id)
        if ct is not None:
            have = Counter(
                (e.timestamp, e.activity)
                for e in ct.events if not e.attributes.get("injected")
            )
        want = Counter((e.timestamp, e.activity) for e in t.events)
        missing = want - have
        if missing:
            diff: Counter = Counter()
            for (_, act), n in missing.items():
                diff[act] += n
            out[t.case_id] = diff
    return out


def write_model(model: GroundTruthModel, stream) -> None:
    json.dump(model_to_json(model), stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_model(source) -> GroundTruthModel:
    if isinstance(source, (str,)):
        with open(source, encoding="utf-8") as fh:
            return model_from_json(json.load(fh))
    return model_from_json(json.load(source))
