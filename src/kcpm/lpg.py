"""The event log fused with a knowledge graph, as the index lists that
variant training reads.

Construction rules: one node per event (``event::<case>::<position>``),
case (``case::<case>``), resource (``resource::<resource>``), activity
and KG entity. An activity's node is the KG entity that its aliased
label names (an unmapped label names itself), else
``activity::<label>``. The edges, in this order: for each trace in log
order and each event in it, BELONGS_TO its case, INSTANCE_OF its
activity, PERFORMED_BY its resource when it has one, and DF from the
previous event; then one edge per plain KG triple, labeled by its
predicate, sorted by (predicate, subject, object). A fact stated only
with a timestamp names entities, which become nodes, but it is not an
edge. A KG entity named like a case, event, resource or ``activity::``
node of the log is refused, so no log node is merged with an entity but
by the activity rule.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import DataError
from .eventlog import EventLog
from .kg import KnowledgeGraph


class FusedGraph(NamedTuple):
    nodes: tuple[str, ...]              # sorted node names
    relations: tuple[str, ...]          # sorted relation names
    edges: list[tuple[int, int, int]]   # (head, relation, tail) rows
    case_events: dict[str, list[int]]   # case id -> event rows by position


def event_node_id(case_id: str, position: int) -> str:
    return f"event::{case_id}::{position}"


def activity_node(label: str, entities: frozenset[str],
                  alias: dict[str, str] | None = None) -> str:
    """Node of an activity: the KG entity its (aliased) label names, else
    activity::label."""
    target = (alias or {}).get(label, label)
    return target if target in entities else f"activity::{label}"


def build_lpg(
    log: EventLog,
    kg: KnowledgeGraph,
    alias: dict[str, str] | None = None,
) -> FusedGraph:
    """Fuse log and knowledge graph by the module's construction rules.

    alias maps activity labels to KG entity ids; unmapped activities merge
    only on exact string equality with an entity id. A KG entity that
    names a node the log makes raises DataError."""
    entities = kg.entities
    alias = alias or {}
    # the log's nodes, but for the entities its activities merge with
    made = {f"activity::{a}" for a in log.alphabet
            if alias.get(a, a) not in entities}
    named: list[tuple[str, str, str]] = []
    events_of: dict[str, list[str]] = {}
    for t in log.traces:
        case = f"case::{t.case_id}"
        events = events_of[t.case_id] = [
            event_node_id(t.case_id, i) for i in range(len(t.events))]
        made.add(case)
        made.update(events)
        prev = None
        for node, e in zip(events, t.events):
            named.append((node, "BELONGS_TO", case))
            named.append((node, "INSTANCE_OF",
                          activity_node(e.activity, entities, alias)))
            if e.resource is not None:
                res = f"resource::{e.resource}"
                made.add(res)
                named.append((node, "PERFORMED_BY", res))
            if prev is not None:
                named.append((prev, "DF", node))
            prev = node
    clash = made & entities
    if clash:
        raise DataError(f"knowledge graph entity {min(clash)!r} is also the "
                        "name of a case, event, resource or activity node")
    named += ((s, p, o) for p, s, o in
              sorted((t.predicate, t.subject, t.object) for t in kg.triples))

    nodes = tuple(sorted(entities | made))
    relations = tuple(sorted({r for _, r, _ in named}))
    row = {n: i for i, n in enumerate(nodes)}
    rel = {r: i for i, r in enumerate(relations)}
    return FusedGraph(
        nodes, relations, [(row[h], rel[r], row[t]) for h, r, t in named],
        {case: [row[n] for n in events] for case, events in events_of.items()})
