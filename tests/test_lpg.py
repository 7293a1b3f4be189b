import dataclasses
import io
import random

import pytest

from kcpm.eventlog import EventLog
from kcpm.kg import KnowledgeGraph, Triple
from kcpm.lpg import (LabeledPropertyGraph, build_lpg, write_dot,
                      write_graphml, write_node_edge_csv)
from kcpm.variants import lpg_events_by_case

from conftest import log_from_sequences, random_sequences


def test_single_trace_counts():
    # <a,b> and no KG: 2 event nodes, 1 case, 2 activities; DF + 2x
    # BELONGS_TO + 2x INSTANCE_OF = 5 edges
    g = build_lpg(log_from_sequences([["a", "b"]]), KnowledgeGraph())
    events = g.nodes_with_label("Event")
    assert len(events) == 2
    assert len(g.nodes_with_label("Case")) == 1
    assert len(g.nodes_with_label("Activity")) == 2
    assert len(g.edges) == 5
    df_edges = [e for e, labels in g.edge_labels.items() if "DF" in labels]
    assert len(df_edges) == 1


def test_kg_only_entities():
    g = build_lpg(log_from_sequences([]), KnowledgeGraph([Triple("x", "p", "y")]))
    assert len(g.nodes_with_label("Entity")) == 2
    assert len(g.edges) == 1
    (eid,) = g.edges
    assert g.edge_labels[eid] == {"p"}


def test_activity_entity_merge_by_equality():
    log = log_from_sequences([["ER Triage"]])
    kg = KnowledgeGraph([Triple("ER Triage", "partOf", "intake")])
    g = build_lpg(log, kg)
    assert g.node_labels["ER Triage"] == {"Activity", "Entity"}
    assert "activity::ER Triage" not in g.nodes


def test_activity_entity_merge_via_alias():
    log = log_from_sequences([["ER Triage"]])
    kg = KnowledgeGraph([Triple("er_triage", "partOf", "intake")])
    g = build_lpg(log, kg, alias={"ER Triage": "er_triage"})
    assert g.node_labels["er_triage"] == {"Activity", "Entity"}


def test_every_element_labeled_and_endpoints_exist():
    rng = random.Random(1)
    for _ in range(50):
        seqs = random_sequences(rng, rng.randint(1, 5), 6, list("abc"))
        triples = {Triple(rng.choice("abxyz"), rng.choice("pq"),
                          rng.choice("abxyz"))
                   for _ in range(rng.randint(0, 5))
                   if rng.random() < 0.9}
        g = build_lpg(log_from_sequences(seqs), KnowledgeGraph(triples))
        for n in g.nodes:
            assert g.node_labels[n]
        for eid, (src, dst) in g.edges.items():
            assert g.edge_labels[eid]
            assert src in g.nodes and dst in g.nodes


def test_node_count_identity_and_df_edges():
    rng = random.Random(2)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 6), 7, list("abcd"))
        triples = {Triple(rng.choice("abcdxy"), "p", rng.choice("abcdxy"))
                   for _ in range(rng.randint(0, 6))}
        log = log_from_sequences(seqs)
        kg = KnowledgeGraph(triples)
        g = build_lpg(log, kg)
        n_events = log.n_events
        n_cases = len(log.traces)
        acts = log.alphabet
        resources = {e.resource for t in log.traces for e in t.events} - {None}
        entities = kg.entities
        merged = len(acts & entities)
        expected = (n_events + n_cases + len(acts) + len(resources)
                    + len(entities) - merged)
        assert len(g.nodes) == expected
        df_edges = sum(1 for labels in g.edge_labels.values() if "DF" in labels)
        assert df_edges == sum(len(t) - 1 for t in log.traces)


def test_events_by_case_in_position_order():
    g = build_lpg(log_from_sequences([["a", "b", "c"]]), KnowledgeGraph())
    nodes = lpg_events_by_case(g)["c0"]
    assert [g.node_props[n]["activity"] for n in nodes] == ["a", "b", "c"]


def test_event_attributes_do_not_hide_structural_props():
    log = log_from_sequences([["a", "b", "c"]])
    trace = log.traces[0]
    events = tuple(e._replace(attributes={"position": 9 - i, "case_id": "other"})
                   for i, e in enumerate(trace.events))
    g = build_lpg(EventLog((dataclasses.replace(trace, events=events),)),
                  KnowledgeGraph())
    nodes = lpg_events_by_case(g)["c0"]
    assert [g.node_props[n]["position"] for n in nodes] == [0, 1, 2]
    assert [g.node_props[n]["activity"] for n in nodes] == ["a", "b", "c"]


def test_exports_are_well_formed():
    g = build_lpg(log_from_sequences([["a", "b"]]),
                  KnowledgeGraph([Triple("a", "p", "q")]))
    graphml = io.StringIO()
    write_graphml(g, graphml)
    assert "<graphml" in graphml.getvalue()
    import xml.etree.ElementTree as ET
    ET.fromstring(graphml.getvalue())  # parses cleanly

    nodes, edges = io.StringIO(), io.StringIO()
    write_node_edge_csv(g, nodes, edges)
    assert nodes.getvalue().startswith("node_id,labels,props")
    assert edges.getvalue().startswith("edge_id,source,target,labels")

    dot = io.StringIO()
    write_dot(g, dot)
    assert dot.getvalue().startswith("digraph")


def test_lpg_rejects_unlabeled_and_dangling():
    g = LabeledPropertyGraph()
    with pytest.raises(ValueError):
        g.add_node("n", frozenset())
    g.add_node("n", frozenset({"X"}))
    with pytest.raises(ValueError):
        g.add_edge("n", "missing", frozenset({"E"}))
