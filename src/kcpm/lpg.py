"""The event log fused with a knowledge graph at the level of cases, as
the feature sets that variant classification reads.

Construction rules: one node per case (``case::<case>``), activity and
KG entity. An activity's node is the KG entity that its aliased label
names (an unmapped label names itself), else ``activity::<label>``. The
edges are the plain KG triples. A fact stated only with a timestamp
names entities, which become nodes, but it is not an edge. A case's
features are its activity nodes and the objects of the edges out of
them, one hop; the cases with one set of activity nodes share one
frozenset. A KG entity named like a case or ``activity::`` node of the
log is refused, so no log node is merged with an entity but by the
activity rule, and every edge out of an activity node is a KG triple.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import DataError
from .eventlog import EventLog
from .kg import KnowledgeGraph, Triple


class FusedGraph(NamedTuple):
    nodes: frozenset[str]                     # case, activity, entity names
    edges: frozenset[Triple]                  # the plain KG triples
    case_features: dict[str, frozenset[str]]  # case id -> its features


def activity_node(label: str, entities: frozenset[str],
                  alias: dict[str, str] | None = None) -> str:
    """Node of an activity: the KG entity its (aliased) label names, else
    activity::label."""
    target = (alias or {}).get(label, label)
    return target if target in entities else f"activity::{label}"


def build_lpg(log: EventLog, kg: KnowledgeGraph,
              alias: dict[str, str] | None = None) -> FusedGraph:
    """Fuse log and knowledge graph by the module's construction rules.

    alias maps activity labels to KG entity ids; unmapped activities merge
    only on exact string equality with an entity id. A KG entity that
    names a node the log makes raises DataError."""
    entities = kg.entities
    alias = alias or {}
    node_of = {a: activity_node(a, entities, alias) for a in log.alphabet}
    # the log's nodes, but for the entities its activities merge with
    made = {f"case::{t.case_id}" for t in log.traces}
    made.update(n for a, n in node_of.items()
                if alias.get(a, a) not in entities)
    clash = made & entities
    if clash:
        raise DataError(f"knowledge graph entity {min(clash)!r} is also the "
                        "name of a case or activity node")
    edges = kg.triples
    objects: dict[str, list[str]] = {}
    for t in edges:
        objects.setdefault(t.subject, []).append(t.object)
    shared: dict[frozenset[str], frozenset[str]] = {}
    features = {}
    for t in log.traces:
        key = frozenset(node_of[e.activity] for e in t.events)
        found = shared.get(key)
        if found is None:
            found = shared[key] = key.union(*(objects.get(n, ()) for n in key))
        features[t.case_id] = found
    return FusedGraph(entities | made, edges, features)
