"""Dependency graph mining with the flexible-heuristics dependency
measure, plus rule-based edge filtering.

The dependency measure for activities a, b is

    (|a>b| - |b>a|) / (|a>b| + |b>a| + 1)

where |a>b| counts directly-follows occurrences. Length-one loop
strength is |a>a| / (|a>a| + 1); length-two loop strength for a pair is
(|a>>b| + |b>>a|) / (|a>>b| + |b>>a| + 1) with |a>>b| counting a,b,a
patterns.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import DataError
from .eventlog import (EventLog, directly_follows_counts, end_activity_counts,
                       eventually_follows_counts, start_activity_counts)
from .kg import FORBIDDEN_BEFORE, MUST_PRECEDE
from .rules import Closure


def dependency_measure(ab: int, ba: int) -> float:
    """Signed certainty of a causal dependency from the two directed
    directly-follows counts; always in (-1, 1)."""
    if ab < 0 or ba < 0:
        raise ValueError("counts must be nonnegative")
    return (ab - ba) / (ab + ba + 1)


class _ThresholdFields(NamedTuple):
    dependency_threshold: float
    frequency_threshold: int
    all_tasks_connected: bool
    long_distance: bool


class MiningThresholds(_ThresholdFields):
    """Every way of making one rejects a dependency threshold outside
    [0, 1) and a negative frequency threshold."""

    __slots__ = ()

    def __new__(cls, dependency_threshold: float = 0.5,
                frequency_threshold: int = 1,
                all_tasks_connected: bool = False,
                long_distance: bool = False):
        if not 0.0 <= dependency_threshold < 1.0:
            raise ValueError("dependency_threshold must be in [0, 1)")
        if frequency_threshold < 0:
            raise ValueError("frequency_threshold must be nonnegative")
        return tuple.__new__(cls, (dependency_threshold, frequency_threshold,
                                   all_tasks_connected, long_distance))

    @classmethod
    def _make(cls, iterable) -> MiningThresholds:
        return cls(*iterable)


class DependencyEdge(NamedTuple):
    source: str
    target: str
    df_count: int
    dependency: float


class _GraphFields(NamedTuple):
    activities: frozenset[str]
    edges: dict[tuple[str, str], DependencyEdge]
    l1_loops: dict[str, float]
    l2_loops: dict[tuple[str, str], float]
    start_activities: dict[str, int]
    end_activities: dict[str, int]
    df_counts: dict[tuple[str, str], int]
    long_deps: dict[tuple[str, str], float]


class DependencyGraph(_GraphFields):
    """A mined dependency graph; df_counts and long_deps default to new
    empty dicts. Every way of making one rejects an edge over an unknown
    activity or with a dependency that its counts do not give."""

    __slots__ = ()

    def __new__(cls, activities: frozenset[str],
                edges: dict[tuple[str, str], DependencyEdge],
                l1_loops: dict[str, float],
                l2_loops: dict[tuple[str, str], float],
                start_activities: dict[str, int],
                end_activities: dict[str, int],
                df_counts: dict[tuple[str, str], int] | None = None,
                long_deps: dict[tuple[str, str], float] | None = None):
        if df_counts is None:
            df_counts = {}
        for (a, b), e in edges.items():
            if a not in activities or b not in activities:
                raise ValueError(f"edge ({a!r}, {b!r}) uses unknown activity")
            expect = dependency_measure(df_counts.get((a, b), e.df_count),
                                        df_counts.get((b, a), 0))
            if abs(e.dependency - expect) > 1e-9:
                raise ValueError(f"edge ({a!r}, {b!r}) dependency does not match counts")
        return tuple.__new__(cls, (activities, edges, l1_loops, l2_loops,
                                   start_activities, end_activities, df_counts,
                                   {} if long_deps is None else long_deps))

    @classmethod
    def _make(cls, iterable) -> DependencyGraph:
        return cls(*iterable)


def length_two_loop_counts(log: EventLog) -> dict[tuple[str, str], int]:
    """Count a,b,a patterns (a != b) per ordered pair across all traces."""
    counts: Counter = Counter()
    for t in log.traces:
        acts = t.activities
        for i in range(len(acts) - 2):
            a, b, c = acts[i], acts[i + 1], acts[i + 2]
            if a == c and a != b:
                counts[(a, b)] += 1
    return dict(counts)


def mine_dependency_graph(log: EventLog, th: MiningThresholds) -> DependencyGraph:
    """Mine the dependency graph of a non-empty log.

    An edge (a, b) is kept when its directly-follows count reaches the
    frequency threshold and its dependency measure is positive and at
    least the dependency threshold. Self-loops never qualify (their
    measure is 0); they are reported via l1_loops instead. With
    all_tasks_connected, every non-start activity keeps its strongest
    incoming edge and every non-end activity its strongest outgoing one,
    thresholds notwithstanding.
    """
    if not log.traces:
        raise DataError("cannot mine a dependency graph from an empty log")
    df = directly_follows_counts(log)
    activities = log.alphabet
    starts = start_activity_counts(log)
    ends = end_activity_counts(log)

    edges: dict[tuple[str, str], DependencyEdge] = {}
    for (a, b), n in sorted(df.items()):
        m = dependency_measure(n, df.get((b, a), 0))
        if n >= th.frequency_threshold and m > 0 and m >= th.dependency_threshold:
            edges[(a, b)] = DependencyEdge(a, b, n, m)

    if th.all_tasks_connected:
        def best(candidates):
            # strongest measure, then higher count; lexicographic pair on ties
            return max(sorted(candidates),
                       key=lambda ab: (dependency_measure(df[ab], df.get((ab[1], ab[0]), 0)),
                                       df[ab]))

        for act in sorted(activities):
            if act not in starts:
                incoming = [p for p in df if p[1] == act and p[0] != act]
                if incoming and not any(p in edges for p in incoming):
                    a, b = best(incoming)
                    edges[(a, b)] = DependencyEdge(
                        a, b, df[(a, b)],
                        dependency_measure(df[(a, b)], df.get((b, a), 0)))
            if act not in ends:
                outgoing = [p for p in df if p[0] == act and p[1] != act]
                if outgoing and not any(p in edges for p in outgoing):
                    a, b = best(outgoing)
                    edges[(a, b)] = DependencyEdge(
                        a, b, df[(a, b)],
                        dependency_measure(df[(a, b)], df.get((b, a), 0)))

    l1 = {
        a: df[(a, a)] / (df[(a, a)] + 1)
        for a in sorted(activities) if df.get((a, a), 0) > 0
    }
    two = length_two_loop_counts(log)
    l2: dict[tuple[str, str], float] = {}
    for a, b in sorted(set(two) | {(b, a) for a, b in two}):
        total = two.get((a, b), 0) + two.get((b, a), 0)
        l2[(a, b)] = total / (total + 1)

    long_deps: dict[tuple[str, str], float] = {}
    if th.long_distance:
        ef = eventually_follows_counts(log)
        for (a, b), n in sorted(ef.items()):
            m = dependency_measure(n, ef.get((b, a), 0))
            if n >= th.frequency_threshold and m > 0 and m >= th.dependency_threshold:
                long_deps[(a, b)] = m
    return DependencyGraph(activities, edges, l1, l2, starts, ends, dict(df),
                           long_deps)


# ---------------------------------------------------------------------------
# Rule-based filtering
# ---------------------------------------------------------------------------

class RemovedEdge(NamedTuple):
    source: str
    target: str
    rule_id: str | None


class FilterReport(NamedTuple):
    removed_edges: tuple[RemovedEdge, ...]
    kept_edges: int


def filter_dependency_graph(
    dg: DependencyGraph,
    closure: Closure,
    alias: dict[str, str] | None = None,
) -> tuple[DependencyGraph, FilterReport]:
    """Drop mined edges that the closure of the rule base contradicts:
    an edge (a, b) goes when must_precede(b, a) or forbidden_before(a, b)
    is entailed between the aliased entities. Edges touching an activity
    with no entity mapping always pass through. alias=None maps every
    activity to itself.
    """
    def entity(act: str) -> str | None:
        return act if alias is None else alias.get(act)

    def verdict(pair) -> RemovedEdge | None:
        a, b = pair
        ea, eb = entity(a), entity(b)
        if ea is None or eb is None:
            return None
        found = (closure.lookup(MUST_PRECEDE, eb, ea)
                 or closure.lookup(FORBIDDEN_BEFORE, ea, eb))
        if found is not None:
            return RemovedEdge(a, b, found[1])
        return None

    pairs = sorted(dg.edges)
    removed = tuple(v for v in map(verdict, pairs) if v is not None)
    removed_pairs = {(r.source, r.target) for r in removed}
    kept = {p: e for p, e in dg.edges.items() if p not in removed_pairs}
    out = DependencyGraph(dg.activities, kept, dg.l1_loops, dg.l2_loops,
                          dg.start_activities, dg.end_activities, dg.df_counts,
                          dg.long_deps)
    return out, FilterReport(removed, len(kept))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def dfg_to_json(dg: DependencyGraph) -> dict:
    payload = {
        "activities": sorted(dg.activities),
        "edges": [
            {"source": a, "target": b, "df_count": e.df_count,
             "dependency": e.dependency}
            for (a, b), e in sorted(dg.edges.items())
        ],
        "l1_loops": {a: m for a, m in sorted(dg.l1_loops.items())},
        "l2_loops": [
            {"a": a, "b": b, "measure": m}
            for (a, b), m in sorted(dg.l2_loops.items())
        ],
        "start_activities": dict(sorted(dg.start_activities.items())),
        "end_activities": dict(sorted(dg.end_activities.items())),
        "df_counts": [
            {"source": a, "target": b, "count": n}
            for (a, b), n in sorted(dg.df_counts.items())
        ],
    }
    if dg.long_deps:
        payload["long_deps"] = [
            {"source": a, "target": b, "dependency": m}
            for (a, b), m in sorted(dg.long_deps.items())
        ]
    return payload


def dfg_from_json(obj: dict) -> DependencyGraph:
    df_counts = {(d["source"], d["target"]): d["count"]
                 for d in obj.get("df_counts", [])}
    edges = {}
    for d in obj["edges"]:
        pair = (d["source"], d["target"])
        edges[pair] = DependencyEdge(d["source"], d["target"],
                                     d["df_count"], d["dependency"])
        df_counts.setdefault(pair, d["df_count"])
    return DependencyGraph(
        frozenset(obj["activities"]),
        edges,
        dict(obj.get("l1_loops", {})),
        {(d["a"], d["b"]): d["measure"] for d in obj.get("l2_loops", [])},
        dict(obj.get("start_activities", {})),
        dict(obj.get("end_activities", {})),
        df_counts,
        {(d["source"], d["target"]): d["dependency"]
         for d in obj.get("long_deps", [])},
    )


def dfg_to_dot(dg: DependencyGraph, stream) -> None:
    stream.write("digraph dfg {\n  rankdir=LR;\n")
    for act in sorted(dg.activities):
        shape = "box"
        stream.write(f'  "{_esc(act)}" [shape={shape}];\n')
    for (a, b), e in sorted(dg.edges.items()):
        stream.write(
            f'  "{_esc(a)}" -> "{_esc(b)}" [label="{e.df_count}/{e.dependency:.3f}"];\n'
        )
    stream.write("}\n")


def filter_report_to_json(report: FilterReport) -> dict:
    return {
        "kept_edges": report.kept_edges,
        "removed_edges": [
            {"source": r.source, "target": r.target, "rule_id": r.rule_id}
            for r in report.removed_edges
        ],
    }


def filter_report_table(report: FilterReport) -> str:
    lines = [f"kept: {report.kept_edges}   "
             f"removed: {len(report.removed_edges)}"]
    if report.removed_edges:
        lines.append(f"{'source':<24} {'target':<24} rule")
        for r in report.removed_edges:
            lines.append(f"{r.source:<24} {r.target:<24} {r.rule_id or '-'}")
    return "\n".join(lines) + "\n"


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
