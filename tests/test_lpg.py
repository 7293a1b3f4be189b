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
from oracles import naive_fused_graph


def named(g):
    """build_lpg's edge rows as (head, relation, tail) names."""
    return [(g.nodes[h], g.relations[r], g.nodes[t]) for h, r, t in g.edges]


def event_names(g):
    return {case: [g.nodes[i] for i in rows]
            for case, rows in g.case_events.items()}


def test_single_trace_counts():
    # <a,b> and no KG: 2 event nodes, 1 case, 2 activities; DF + 2x
    # BELONGS_TO + 2x INSTANCE_OF = 5 edges
    g = build_lpg(log_from_sequences([["a", "b"]]), KnowledgeGraph())
    assert g.nodes == ("activity::a", "activity::b", "case::c0",
                       "event::c0::0", "event::c0::1")
    assert g.relations == ("BELONGS_TO", "DF", "INSTANCE_OF")
    assert named(g) == [
        ("event::c0::0", "BELONGS_TO", "case::c0"),
        ("event::c0::0", "INSTANCE_OF", "activity::a"),
        ("event::c0::1", "BELONGS_TO", "case::c0"),
        ("event::c0::1", "INSTANCE_OF", "activity::b"),
        ("event::c0::0", "DF", "event::c0::1"),
    ]
    assert event_names(g) == {"c0": ["event::c0::0", "event::c0::1"]}


def test_edge_order_resources_then_sorted_facts():
    events = (Event("c0", "a", T0, "r1"), Event("c0", "b", T0, None),
              Event("c0", "a", T0, "r1"))
    kg = KnowledgeGraph([Triple("y", "q", "x"), Triple("x", "p", "z"),
                         Triple("x", "p", "y")])
    g = build_lpg(EventLog((Trace("c0", events),)), kg)
    assert named(g) == [
        ("event::c0::0", "BELONGS_TO", "case::c0"),
        ("event::c0::0", "INSTANCE_OF", "activity::a"),
        ("event::c0::0", "PERFORMED_BY", "resource::r1"),
        ("event::c0::1", "BELONGS_TO", "case::c0"),
        ("event::c0::1", "INSTANCE_OF", "activity::b"),
        ("event::c0::0", "DF", "event::c0::1"),
        ("event::c0::2", "BELONGS_TO", "case::c0"),
        ("event::c0::2", "INSTANCE_OF", "activity::a"),
        ("event::c0::2", "PERFORMED_BY", "resource::r1"),
        ("event::c0::1", "DF", "event::c0::2"),
        ("x", "p", "y"), ("x", "p", "z"), ("y", "q", "x"),
    ]
    assert "resource::r1" in g.nodes and len(g.nodes) == 10


def test_kg_only_entities():
    g = build_lpg(log_from_sequences([]), KnowledgeGraph([Triple("x", "p", "y")]))
    assert g.nodes == ("x", "y")
    assert named(g) == [("x", "p", "y")]
    assert g.case_events == {}


def test_timestamp_only_facts_name_nodes_but_are_no_edges():
    kg = KnowledgeGraph([Triple("x", "p", "y")],
                        [TemporalTriple(Triple("y", "q", "z"), T0),
                         TemporalTriple(Triple("x", "p", "y"), T0)])
    g = build_lpg(log_from_sequences([]), kg)
    assert g.nodes == ("x", "y", "z")
    assert named(g) == [("x", "p", "y")]


def test_activity_entity_merge_by_equality():
    log = log_from_sequences([["ER Triage"]])
    kg = KnowledgeGraph([Triple("ER Triage", "partOf", "intake")])
    g = build_lpg(log, kg)
    assert "activity::ER Triage" not in g.nodes
    assert ("event::c0::0", "INSTANCE_OF", "ER Triage") in named(g)
    assert len(g.nodes) == 4  # the entities, the case and its event


def test_activity_entity_merge_via_alias():
    log = log_from_sequences([["ER Triage", "Lab"]])
    kg = KnowledgeGraph([Triple("er_triage", "partOf", "intake")])
    g = build_lpg(log, kg, alias={"ER Triage": "er_triage", "Lab": "lab"})
    instance_of = [(h, t) for h, r, t in named(g) if r == "INSTANCE_OF"]
    # an alias onto a name the KG does not hold leaves the activity unmerged
    assert instance_of == [("event::c0::0", "er_triage"),
                           ("event::c0::1", "activity::Lab")]
    assert "activity::ER Triage" not in g.nodes


def test_rows_index_sorted_nodes_and_relations():
    rng = random.Random(1)
    for _ in range(50):
        seqs = random_sequences(rng, rng.randint(1, 5), 6, list("abc"))
        triples = {Triple(rng.choice("abxyz"), rng.choice("pq"),
                          rng.choice("abxyz"))
                   for _ in range(rng.randint(0, 5))
                   if rng.random() < 0.9}
        g = build_lpg(log_from_sequences(seqs), KnowledgeGraph(triples))
        assert list(g.nodes) == sorted(set(g.nodes))
        assert list(g.relations) == sorted({r for _, r, _ in named(g)})
        for row in g.edges:
            assert all(type(x) is int for x in row)
            h, r, t = row
            assert 0 <= h < len(g.nodes) and 0 <= t < len(g.nodes)
            assert 0 <= r < len(g.relations)


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
        df_edges = sum(1 for _, r, _ in named(g) if r == "DF")
        assert df_edges == sum(len(t) - 1 for t in log.traces)
        assert len(g.edges) == 2 * n_events + df_edges + len(triples)


def test_events_by_case_in_position_order():
    g = build_lpg(log_from_sequences([["a", "b", "c"], ["c", "a"]]),
                  KnowledgeGraph())
    activity = {h: t for h, r, t in named(g) if r == "INSTANCE_OF"}
    assert [activity[n] for n in event_names(g)["c0"]] == [
        "activity::a", "activity::b", "activity::c"]
    assert event_names(g)["c1"] == ["event::c1::0", "event::c1::1"]


def test_event_attributes_do_not_hide_structural_props():
    log = log_from_sequences([["a", "b", "c"]])
    trace = log.traces[0]
    events = tuple(e._replace(attributes={"position": 9 - i, "case_id": "other"})
                   for i, e in enumerate(trace.events))
    g = build_lpg(EventLog((Trace("c0", events),)), KnowledgeGraph())
    assert event_names(g) == {"c0": ["event::c0::0", "event::c0::1",
                                     "event::c0::2"]}
    activity = {h: t for h, r, t in named(g) if r == "INSTANCE_OF"}
    assert [activity[n] for n in event_names(g)["c0"]] == [
        "activity::a", "activity::b", "activity::c"]


@pytest.mark.parametrize("subject, obj, clash", [
    ("case::c0", "event::c0::1", "case::c0"),
    ("x", "event::c0::1", "event::c0::1"),
    ("resource::r1", "x", "resource::r1"),
    ("activity::b", "x", "activity::b"),
])
def test_kg_entity_named_like_a_log_node_is_refused(subject, obj, clash):
    events = (Event("c0", "a", T0, "r1"), Event("c0", "b", T0))
    log = EventLog((Trace("c0", events),))
    with pytest.raises(DataError, match=re.escape(repr(clash))):
        build_lpg(log, KnowledgeGraph([Triple(subject, "p", obj)]))


def test_kg_entity_with_a_node_prefix_but_no_log_node_is_kept():
    # case::c9 and resource::r9 name no node of the log, and activity::a
    # is not made: the activity a merges with the entity a
    kg = KnowledgeGraph([Triple("case::c9", "p", "resource::r9"),
                         Triple("activity::a", "p", "a")])
    g = build_lpg(log_from_sequences([["a", "b"]]), kg)
    assert {"case::c9", "resource::r9", "activity::a"} <= set(g.nodes)
    assert ("event::c0::0", "INSTANCE_OF", "a") in named(g)


ENTITIES = ["a", "b", "x", "y", "e1", "e2", "activity::b"]
RESERVED = ["case::c1", "event::c0::1", "resource::r1", "activity::b",
            "activity::x", "activity::activity::b"]
LABELS = ["a", "b", "c", "x", "e1", "activity::b"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_build_lpg_equals_the_set_based_oracle(data):
    """build_lpg's rows, read back as names, equal naive_fused_graph on
    logs with resources and aliases (several activities onto one entity,
    some onto names the KG lacks), activity labels that are KG entities,
    KGs with timestamp-only facts, and now and then an entity that names
    a node of the log, which both refuse."""
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
    fact = st.builds(Triple, entity, st.sampled_from(["p", "q", "DF"]), entity)
    plain = data.draw(st.lists(fact, max_size=6))
    temporal = [TemporalTriple(t, T0 + timedelta(days=d)) for t, d in
                data.draw(st.lists(st.tuples(fact, st.integers(0, 2)),
                                   max_size=4))]
    if data.draw(st.integers(0, 4)) == 0:
        plain.append(Triple(data.draw(st.sampled_from(RESERVED)), "p", "a"))
    kg = KnowledgeGraph(plain, temporal)
    try:
        nodes, edges, case_events = naive_fused_graph(log, plain, temporal,
                                                      alias)
    except ValueError as exc:
        with pytest.raises(DataError, match=re.escape(repr(exc.args[0]))):
            build_lpg(log, kg, alias)
        return
    g = build_lpg(log, kg, alias)
    assert list(g.nodes) == sorted(nodes)
    assert named(g) == edges
    assert list(g.relations) == sorted({r for _, r, _ in edges})
    assert event_names(g) == case_events
