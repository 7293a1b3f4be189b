"""Labeled property graph fusing an event log with a knowledge graph.

Construction rules: one node per event, case, activity, resource and KG
entity; consecutive events are linked by DF edges, events point to their
case (BELONGS_TO), activity (INSTANCE_OF) and resource (PERFORMED_BY);
KG triples become entity-entity edges labeled by predicate. An activity
node whose (aliased) label equals a KG entity id is merged with the
entity node and carries both labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .eventlog import EventLog, Scalar
from .kg import KnowledgeGraph
from .logio import format_scalar


@dataclass
class LabeledPropertyGraph:
    nodes: set[str] = field(default_factory=set)
    node_labels: dict[str, frozenset[str]] = field(default_factory=dict)
    edges: dict[str, tuple[str, str]] = field(default_factory=dict)
    edge_labels: dict[str, frozenset[str]] = field(default_factory=dict)
    node_props: dict[str, dict[str, Scalar]] = field(default_factory=dict)

    def add_node(self, node: str, labels: frozenset[str], props: dict | None = None):
        if not labels:
            raise ValueError(f"node {node!r} needs at least one label")
        if node in self.nodes:
            self.node_labels[node] = self.node_labels[node] | labels
            if props:
                self.node_props.setdefault(node, {}).update(props)
            return
        self.nodes.add(node)
        self.node_labels[node] = frozenset(labels)
        if props:
            self.node_props[node] = dict(props)

    def add_edge(self, src: str, dst: str, labels: frozenset[str]) -> str:
        if not labels:
            raise ValueError("edge needs at least one label")
        for endpoint in (src, dst):
            if endpoint not in self.nodes:
                raise ValueError(f"edge endpoint {endpoint!r} is not a node")
        eid = f"e{len(self.edges)}"
        self.edges[eid] = (src, dst)
        self.edge_labels[eid] = frozenset(labels)
        return eid

    def nodes_with_label(self, label: str) -> list[str]:
        return sorted(n for n in self.nodes if label in self.node_labels[n])


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
) -> LabeledPropertyGraph:
    """Fuse log and knowledge graph into one labeled property graph.

    alias maps activity labels to KG entity ids; unmapped activities merge
    only on exact string equality with an entity id.
    """
    g = LabeledPropertyGraph()
    entities = kg.entities
    for entity in sorted(entities):
        g.add_node(entity, frozenset({"Entity"}))

    for t in log.traces:
        g.add_node(f"case::{t.case_id}", frozenset({"Case"}))
        prev = None
        for i, e in enumerate(t.events):
            node = event_node_id(t.case_id, i)
            # an attribute of the same name does not hide these props
            props: dict[str, Scalar] = {
                **e.attributes,
                "case_id": e.case_id,
                "activity": e.activity,
                "timestamp": e.timestamp,
                "position": i,
            }
            if e.resource is not None:
                props["resource"] = e.resource
            g.add_node(node, frozenset({"Event"}), props)
            g.add_edge(node, f"case::{t.case_id}", frozenset({"BELONGS_TO"}))
            act = activity_node(e.activity, entities, alias)
            g.add_node(act, frozenset({"Activity"}))
            g.add_edge(node, act, frozenset({"INSTANCE_OF"}))
            if e.resource is not None:
                res = f"resource::{e.resource}"
                g.add_node(res, frozenset({"Resource"}))
                g.add_edge(node, res, frozenset({"PERFORMED_BY"}))
            if prev is not None:
                g.add_edge(prev, node, frozenset({"DF"}))
            prev = node

    for triple in sorted(kg.triples,
                         key=lambda t: (t.predicate, t.subject, t.object)):
        g.add_edge(triple.subject, triple.object, frozenset({triple.predicate}))
    return g


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def write_graphml(g: LabeledPropertyGraph, stream) -> None:
    from xml.sax.saxutils import escape, quoteattr

    w = stream.write
    w('<?xml version="1.0" encoding="UTF-8"?>\n')
    w('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
    w('  <key id="labels" for="all" attr.name="labels" attr.type="string"/>\n')
    w('  <key id="props" for="all" attr.name="props" attr.type="string"/>\n')
    w('  <graph edgedefault="directed">\n')
    for node in sorted(g.nodes):
        w(f"    <node id={quoteattr(node)}>\n")
        w(f"      <data key=\"labels\">{escape(';'.join(sorted(g.node_labels[node])))}</data>\n")
        props = g.node_props.get(node, {})
        if props:
            text = ";".join(f"{k}={format_scalar(v)}" for k, v in sorted(props.items()))
            w(f"      <data key=\"props\">{escape(text)}</data>\n")
        w("    </node>\n")
    for eid in sorted(g.edges, key=lambda e: int(e[1:])):
        src, dst = g.edges[eid]
        w(f"    <edge id={quoteattr(eid)} source={quoteattr(src)} target={quoteattr(dst)}>\n")
        w(f"      <data key=\"labels\">{escape(';'.join(sorted(g.edge_labels[eid])))}</data>\n")
        w("    </edge>\n")
    w("  </graph>\n</graphml>\n")


def write_node_edge_csv(g: LabeledPropertyGraph, node_stream, edge_stream) -> None:
    import csv

    nw = csv.writer(node_stream)
    nw.writerow(["node_id", "labels", "props"])
    for node in sorted(g.nodes):
        props = g.node_props.get(node, {})
        nw.writerow([
            node,
            ";".join(sorted(g.node_labels[node])),
            ";".join(f"{k}={format_scalar(v)}" for k, v in sorted(props.items())),
        ])
    ew = csv.writer(edge_stream)
    ew.writerow(["edge_id", "source", "target", "labels"])
    for eid in sorted(g.edges, key=lambda e: int(e[1:])):
        src, dst = g.edges[eid]
        ew.writerow([eid, src, dst, ";".join(sorted(g.edge_labels[eid]))])


def write_dot(g: LabeledPropertyGraph, stream) -> None:
    stream.write("digraph lpg {\n")
    for node in sorted(g.nodes):
        labels = ",".join(sorted(g.node_labels[node]))
        stream.write(f'  "{_dot_escape(node)}" [label="{_dot_escape(node)}\\n{labels}"];\n')
    for eid in sorted(g.edges, key=lambda e: int(e[1:])):
        src, dst = g.edges[eid]
        label = ",".join(sorted(g.edge_labels[eid]))
        stream.write(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{label}"];\n')
    stream.write("}\n")


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
