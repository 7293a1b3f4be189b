"""The event log fused with a knowledge graph at the level of cases, as
the index lists that variant classification reads.

Construction rules: one node per case (``case::<case>``), activity and
KG entity. An activity's node is the KG entity that its aliased label
names (an unmapped label names itself), else ``activity::<label>``. The
edges, in this order: for each trace in log order, one HAS_ACTIVITY edge
from its case to each distinct activity node of its events, in order of
first occurrence; then one edge per plain KG triple, labeled by its
predicate, sorted by (predicate, subject, object). A fact stated only
with a timestamp names entities, which become nodes, but it is not an
edge. A KG entity named like a case or ``activity::`` node of the log is
refused, so no log node is merged with an entity but by the activity
rule. So every edge out of an activity node is a KG triple.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import DataError
from .eventlog import EventLog
from .kg import KnowledgeGraph


class FusedGraph(NamedTuple):
    nodes: tuple[str, ...]               # sorted node names
    relations: tuple[str, ...]           # sorted relation names
    edges: list[tuple[int, int, int]]    # (head, relation, tail) rows
    case_activities: dict[str, list[int]]  # case id -> its activity rows

    def case_features(self) -> dict[str, frozenset[str]]:
        """Case id -> the names of its activity nodes and of the objects
        of their KG triples (the tails of the edges out of them)."""
        objects: dict[int, list[int]] = {}
        for head, _, tail in self.edges:
            objects.setdefault(head, []).append(tail)
        nodes = self.nodes
        return {case: frozenset(nodes[j] for i in rows
                                for j in (i, *objects.get(i, ())))
                for case, rows in self.case_activities.items()}


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
    node_of = {a: activity_node(a, entities, alias) for a in log.alphabet}
    # the log's nodes, but for the entities its activities merge with
    made = {f"case::{t.case_id}" for t in log.traces}
    made.update(n for a, n in node_of.items()
                if alias.get(a, a) not in entities)
    clash = made & entities
    if clash:
        raise DataError(f"knowledge graph entity {min(clash)!r} is also the "
                        "name of a case or activity node")
    facts = sorted((t.predicate, t.subject, t.object) for t in kg.triples)

    nodes = tuple(sorted(entities | made))
    relations = tuple(sorted({p for p, _, _ in facts}
                             | ({"HAS_ACTIVITY"} if log.traces else set())))
    row = {n: i for i, n in enumerate(nodes)}
    rel = {r: i for i, r in enumerate(relations)}
    case_activities = {t.case_id: list(dict.fromkeys(
        row[node_of[e.activity]] for e in t.events)) for t in log.traces}
    has = rel.get("HAS_ACTIVITY")
    edges = [(row[f"case::{case}"], has, i)
             for case, rows in case_activities.items() for i in rows]
    edges += [(row[s], rel[p], row[o]) for p, s, o in facts]
    return FusedGraph(nodes, relations, edges, case_activities)
