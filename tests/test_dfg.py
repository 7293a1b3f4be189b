import io
import json
import random

import pytest

from kcpm.dfg import (MiningThresholds, RemovedEdge, dependency_measure,
                      dfg_from_json, dfg_to_dot, dfg_to_json,
                      filter_dependency_graph, mine_dependency_graph)
from kcpm.errors import DataError
from kcpm.eventlog import EventLog
from kcpm.kg import FORBIDDEN_BEFORE, MUST_PRECEDE, KnowledgeGraph, Triple
from kcpm.rules import Closure, RuleBase, mine_rules

from conftest import log_from_sequences, random_sequences
from oracles import (naive_dependency, naive_df_counts, naive_edges,
                     naive_l1_measures, naive_l2_measures)


def test_dependency_measure_values():
    assert dependency_measure(0, 0) == 0.0
    assert dependency_measure(3, 3) == 0.0
    assert dependency_measure(5, 0) == pytest.approx(5 / 6)


def test_dependency_measure_antisymmetry_and_monotone():
    rng = random.Random(4)
    for _ in range(200):
        ab, ba = rng.randint(0, 50), rng.randint(0, 50)
        assert dependency_measure(ab, ba) == -dependency_measure(ba, ab)
        assert dependency_measure(ab + 1, ba) > dependency_measure(ab, ba)
        assert -1 < dependency_measure(ab, ba) < 1


def test_mine_single_edge():
    log = log_from_sequences([["a", "b"]] * 5)
    dg = mine_dependency_graph(log, MiningThresholds(0.5, 1))
    assert set(dg.edges) == {("a", "b")}
    assert dg.edges[("a", "b")].dependency == pytest.approx(5 / 6)
    assert dg.edges[("a", "b")].df_count == 5


def test_symmetric_pair_cancels():
    log = log_from_sequences([["a", "b"], ["b", "a"]])
    dg = mine_dependency_graph(log, MiningThresholds(0.5, 1))
    assert ("a", "b") not in dg.edges and ("b", "a") not in dg.edges


def test_l2_loop_measure():
    # <a,b,a,b,a> has two a,b,a patterns and one b,a,b pattern
    log = log_from_sequences([["a", "b", "a", "b", "a"]])
    dg = mine_dependency_graph(log, MiningThresholds(0.0, 0))
    assert dg.l2_loops[("a", "b")] == pytest.approx(3 / 4)
    assert dg.l2_loops[("b", "a")] == pytest.approx(3 / 4)


def test_l1_loop_measure():
    log = log_from_sequences([["a", "a", "a", "b"]])
    dg = mine_dependency_graph(log, MiningThresholds(0.0, 0))
    assert dg.l1_loops["a"] == pytest.approx(2 / 3)
    assert "b" not in dg.l1_loops


def test_empty_log_is_error():
    with pytest.raises(DataError):
        mine_dependency_graph(EventLog(()), MiningThresholds())


def test_matches_bruteforce_on_random_logs():
    rng = random.Random(19)
    for _ in range(120):
        seqs = random_sequences(rng, rng.randint(1, 20), 15, list("abcdefgh"))
        log = log_from_sequences(seqs)
        dg = mine_dependency_graph(log, MiningThresholds(0.0, 0))
        df = naive_df_counts(seqs)
        assert dg.df_counts == df
        assert set(dg.edges) == naive_edges(seqs, 0.0, 0)
        for (a, b), e in dg.edges.items():
            assert e.dependency == naive_dependency(df[(a, b)], df.get((b, a), 0))
        assert dg.l1_loops == naive_l1_measures(seqs)
        assert dg.l2_loops == naive_l2_measures(seqs)


def test_thresholds_monotone():
    rng = random.Random(29)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 10), 10, list("abcd"))
        log = log_from_sequences(seqs)
        loose = set(mine_dependency_graph(log, MiningThresholds(0.0, 0)).edges)
        tight = set(mine_dependency_graph(log, MiningThresholds(0.6, 0)).edges)
        assert tight <= loose


def test_all_tasks_connected_restores_edges():
    # c only ever follows both a and b once; threshold 0.9 kills everything
    log = log_from_sequences([["a", "c"], ["b", "c"], ["a", "c", "d"]])
    th = MiningThresholds(0.9, 1, all_tasks_connected=False)
    assert not mine_dependency_graph(log, th).edges
    th = MiningThresholds(0.9, 1, all_tasks_connected=True)
    dg = mine_dependency_graph(log, th)
    # c is not a start activity: it keeps its best incoming edge (a,c);
    # c is not an end activity either: best outgoing (c,d); d keeps (c,d)
    assert ("a", "c") in dg.edges
    assert ("c", "d") in dg.edges


def test_long_distance_flag():
    log = log_from_sequences([["a", "x", "b"]] * 3)
    dg = mine_dependency_graph(log, MiningThresholds(0.5, 1, long_distance=True))
    assert dg.long_deps[("a", "b")] == pytest.approx(3 / 4)
    dg2 = mine_dependency_graph(log, MiningThresholds(0.5, 1))
    assert dg2.long_deps == {}


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def _mined(log):
    return mine_dependency_graph(log, MiningThresholds(0.3, 1))


def test_permissive_empty_rulebase_keeps_all():
    dg = _mined(log_from_sequences([["a", "b", "c"]] * 3))
    out, report = filter_dependency_graph(
        dg, Closure(RuleBase(()), KnowledgeGraph()))
    assert set(out.edges) == set(dg.edges)
    assert report.removed_edges == ()
    assert report.kept_edges == len(dg.edges)


def test_unmapped_edges_pass_through():
    # forbidden_before(a, b) would remove a -> b, but no activity is mapped
    dg = _mined(log_from_sequences([["a", "b"]] * 3))
    kg = KnowledgeGraph([Triple("a", FORBIDDEN_BEFORE, "b")])
    out, report = filter_dependency_graph(
        dg, Closure(RuleBase(()), kg), alias={})
    assert set(out.edges) == set(dg.edges) == {("a", "b")}
    assert report.removed_edges == ()


def test_permissive_removes_contradicted_edge():
    # must_precede(reg, triage) contradicts the mined edge triage -> reg
    log = log_from_sequences([["ER Triage", "ER Registration"]] * 3)
    dg = _mined(log)
    kg = KnowledgeGraph([Triple("reg", MUST_PRECEDE, "triage")])
    alias = {"ER Registration": "reg", "ER Triage": "triage"}
    out, report = filter_dependency_graph(dg, Closure(RuleBase(()), kg), alias)
    assert ("ER Triage", "ER Registration") not in out.edges
    assert report.removed_edges == (
        RemovedEdge("ER Triage", "ER Registration", None),)


def test_permissive_removes_forbidden_edge():
    log = log_from_sequences([["x", "y"]] * 2)
    kg = KnowledgeGraph([Triple("x", FORBIDDEN_BEFORE, "y")])
    out, report = filter_dependency_graph(_mined(log),
                                          Closure(RuleBase(()), kg))
    assert out.edges == {}
    assert report.removed_edges[0].rule_id is None  # contradicted by a fact


def test_filter_via_mined_rule_reports_rule_id():
    # the contradiction is derivable only through a mined closed-path rule
    kg = KnowledgeGraph([
        Triple("noise", "category", "chaos"),
        Triple("chaos", "covers", "b"),
        Triple("chaos", "covers", "c"),
        Triple("noise", FORBIDDEN_BEFORE, "b"),
        Triple("other", "category", "chaos"),
    ])
    rb = mine_rules(kg, 2, 1, 0.5)
    log = log_from_sequences([["other", "c"]] * 2)
    out, report = filter_dependency_graph(_mined(log), Closure(rb, kg))
    assert out.edges == {}
    assert report.removed_edges[0].rule_id == "category,covers=>forbidden_before"


def test_filter_shrinks_only():
    rng = random.Random(37)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 8), 8, list("abcd"))
        log = log_from_sequences(seqs)
        dg = mine_dependency_graph(log, MiningThresholds(0.0, 0))
        facts = {Triple(rng.choice("abcd"), MUST_PRECEDE, rng.choice("abcd"))
                 for _ in range(rng.randint(0, 4))}
        kg = KnowledgeGraph(facts)
        out, report = filter_dependency_graph(dg, Closure(RuleBase(()), kg))
        assert set(out.edges) <= set(dg.edges)
        assert report.kept_edges + len(report.removed_edges) == len(dg.edges)


def test_dfg_json_round_trip():
    log = log_from_sequences([["a", "b", "a", "c"]] * 4)
    dg = mine_dependency_graph(log, MiningThresholds(0.2, 1, long_distance=True))
    obj = json.loads(json.dumps(dfg_to_json(dg)))
    again = dfg_from_json(obj)
    assert set(again.edges) == set(dg.edges)
    assert again.df_counts == dg.df_counts
    assert again.l1_loops == dg.l1_loops
    assert again.l2_loops == dg.l2_loops
    assert again.long_deps == dg.long_deps


def test_dot_output_contains_label():
    log = log_from_sequences([["a", "b"]] * 5)
    dg = mine_dependency_graph(log, MiningThresholds(0.5, 1))
    buf = io.StringIO()
    dfg_to_dot(dg, buf)
    assert '"a" -> "b" [label="5/0.833"]' in buf.getvalue()


def test_filter_report_table_lists_removals():
    from kcpm.dfg import filter_report_table
    log = log_from_sequences([["x", "y"]] * 2)
    kg = KnowledgeGraph([Triple("x", FORBIDDEN_BEFORE, "y")])
    _, report = filter_dependency_graph(_mined(log), Closure(RuleBase(()), kg))
    assert filter_report_table(report).splitlines() == [
        "kept: 0   removed: 1",
        f"{'source':<24} {'target':<24} rule",
        f"{'x':<24} {'y':<24} -"]
