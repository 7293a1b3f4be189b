import random
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.errors import DataError
from kcpm.eventlog import Event, EventLog, Trace
from kcpm.kg import KnowledgeGraph, TemporalTriple, Triple
from kcpm.lpg import build_lpg

from conftest import T0, log_from_sequences, random_sequences
from oracles import naive_case_features, naive_fused_graph


def test_single_trace_counts():
    # <a,b,a> and no KG: 1 case, 2 activities, no edge
    g = build_lpg(log_from_sequences([["a", "b", "a"]]), KnowledgeGraph())
    assert g.nodes == {"activity::a", "activity::b", "case::c0"}
    assert g.edges == frozenset()
    assert g.case_features == {"c0": {"activity::a", "activity::b"}}


def test_kg_only_entities():
    g = build_lpg(log_from_sequences([]), KnowledgeGraph([Triple("x", "p", "y")]))
    assert g.nodes == {"x", "y"}
    assert g.edges == {Triple("x", "p", "y")}
    assert g.case_features == {}


def test_timestamp_only_facts_name_nodes_but_are_no_edges():
    kg = KnowledgeGraph([Triple("x", "p", "y")],
                        [TemporalTriple(Triple("y", "q", "z"), T0),
                         TemporalTriple(Triple("x", "p", "y"), T0)])
    g = build_lpg(log_from_sequences([]), kg)
    assert g.nodes == {"x", "y", "z"}
    assert g.edges == {Triple("x", "p", "y")}


def test_activity_entity_merge_by_equality():
    log = log_from_sequences([["ER Triage"]])
    kg = KnowledgeGraph([Triple("ER Triage", "partOf", "intake")])
    g = build_lpg(log, kg)
    assert "activity::ER Triage" not in g.nodes
    assert g.case_features == {"c0": {"ER Triage", "intake"}}
    assert len(g.nodes) == 3  # the entities and the case


def test_activity_entity_merge_via_alias():
    log = log_from_sequences([["ER Triage", "Lab"]])
    kg = KnowledgeGraph([Triple("er_triage", "partOf", "intake")])
    g = build_lpg(log, kg, alias={"ER Triage": "er_triage", "Lab": "lab"})
    # an alias onto a name the KG does not hold leaves the activity unmerged
    assert g.case_features == {"c0": {"er_triage", "intake", "activity::Lab"}}
    assert "activity::ER Triage" not in g.nodes


def test_node_and_edge_counts():
    rng = random.Random(2)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 6), 7, list("abcd"))
        triples = {Triple(rng.choice("abcdxy"), "p", rng.choice("abcdxy"))
                   for _ in range(rng.randint(0, 6))}
        log = log_from_sequences(seqs)
        kg = KnowledgeGraph(triples)
        g = build_lpg(log, kg)
        acts = log.alphabet
        entities = kg.entities
        merged = len(acts & entities)
        assert len(g.nodes) == (len(log.traces) + len(acts) + len(entities)
                                - merged)
        assert len(g.edges) == len(triples)


def test_event_attributes_do_not_hide_structural_props():
    log = log_from_sequences([["a", "b", "c"]])
    trace = log.traces[0]
    events = tuple(e._replace(attributes={"activity": "z", "case_id": "other"})
                   for e in trace.events)
    g = build_lpg(EventLog((Trace("c0", events),)), KnowledgeGraph())
    assert g.case_features == {"c0": {"activity::a", "activity::b",
                                      "activity::c"}}


@pytest.mark.parametrize("subject, obj, clash", [
    ("case::c0", "x", "case::c0"),
    ("x", "case::c0", "case::c0"),
    ("activity::b", "x", "activity::b"),
])
def test_kg_entity_named_like_a_log_node_is_refused(subject, obj, clash):
    events = (Event("c0", "a", T0, "r1"), Event("c0", "b", T0))
    log = EventLog((Trace("c0", events),))
    with pytest.raises(DataError, match=re.escape(repr(clash))):
        build_lpg(log, KnowledgeGraph([Triple(subject, "p", obj)]))


def test_kg_entity_with_a_node_prefix_but_no_log_node_is_kept():
    # case::c9 names no case of the log, event::c0::0 and resource::r1 no
    # node at all, and activity::a is not made: the activity a merges
    # with the entity a
    kg = KnowledgeGraph([Triple("case::c9", "p", "resource::r1"),
                         Triple("event::c0::0", "p", "x"),
                         Triple("activity::a", "p", "a")])
    events = (Event("c0", "a", T0, "r1"), Event("c0", "b", T0))
    g = build_lpg(EventLog((Trace("c0", events),)), kg)
    assert {"case::c9", "resource::r1", "event::c0::0",
            "activity::a"} <= g.nodes
    assert g.case_features == {"c0": {"a", "activity::b"}}


def test_case_features_are_activities_and_their_kg_objects():
    """A case's features are its activity nodes and the objects of their
    KG triples, one hop: not the subjects that point at them, nor what
    their objects point at."""
    kg = KnowledgeGraph([Triple("a", "category", "k"),
                         Triple("k", "subclass_of", "top"),
                         Triple("y", "uses", "a")],
                        [TemporalTriple(Triple("a", "p", "late"), T0)])
    g = build_lpg(log_from_sequences([["a", "b"], ["b"]]), kg)
    assert g.case_features == {"c0": {"a", "k", "activity::b"},
                               "c1": {"activity::b"}}


ENTITIES = ["a", "b", "x", "y", "e1", "e2", "activity::b"]
RESERVED = ["case::c1", "event::c0::1", "resource::r1", "activity::b",
            "activity::x", "activity::activity::b"]
LABELS = ["a", "b", "c", "x", "e1", "activity::b"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_lpg_equals_the_set_based_oracle(data):
    """build_lpg's nodes and edges equal naive_fused_graph's, and its case
    features naive_case_features, on logs with resources and
    aliases (several activities onto one entity, some onto names the KG
    lacks), activity labels that are KG entities, KGs with
    timestamp-only facts, and now and then an entity that is named like
    a node of the log, or like a node the event-level graph made, which
    names none now; both refuse the first."""
    traces = []
    for i, acts in enumerate(data.draw(st.lists(st.lists(
            st.tuples(st.sampled_from(LABELS),
                      st.sampled_from([None, "r1", "r2"])),
            min_size=1, max_size=5), max_size=4))):
        traces.append(Trace(f"c{i}", tuple(
            Event(f"c{i}", a, T0 + timedelta(minutes=j), r)
            for j, (a, r) in enumerate(acts))))
    log = EventLog(tuple(traces))
    alias = data.draw(st.dictionaries(st.sampled_from(LABELS),
                                      st.sampled_from(["e1", "e2", "zz"])))
    entity = st.sampled_from(ENTITIES)
    fact = st.builds(Triple, entity, st.sampled_from(["p", "q",
                                                      "HAS_ACTIVITY"]),
                     entity)
    plain = data.draw(st.lists(fact, max_size=6))
    temporal = [TemporalTriple(t, T0 + timedelta(days=d)) for t, d in
                data.draw(st.lists(st.tuples(fact, st.integers(0, 2)),
                                   max_size=4))]
    if data.draw(st.integers(0, 4)) == 0:
        plain.append(Triple(data.draw(st.sampled_from(RESERVED)), "p", "a"))
    kg = KnowledgeGraph(plain, temporal)
    try:
        nodes, edges = naive_fused_graph(log, plain, temporal, alias)
    except ValueError as exc:
        with pytest.raises(DataError, match=re.escape(repr(exc.args[0]))):
            build_lpg(log, kg, alias)
        return
    g = build_lpg(log, kg, alias)
    assert g.nodes == nodes
    assert g.edges == edges
    assert g.case_features == {
        t.case_id: naive_case_features(t, plain, temporal, alias)
        for t in log.traces}
