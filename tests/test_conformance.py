import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.conformance import (ConformanceReport, Deviation, FootprintMatrix,
                              Relation, comparison_table, conformance, f_score,
                              footprint_of_log, footprint_of_model,
                              report_to_json, write_report_json)
from kcpm.dfg import MiningThresholds, mine_dependency_graph
from kcpm.errors import DataError
from kcpm.eventlog import EventLog

from conftest import log_from_sequences, random_sequences
from oracles import dense_conformance, naive_df_counts, naive_footprint


def test_footprint_simple_causality():
    fp = footprint_of_log(log_from_sequences([["a", "b"]]))
    assert fp.relation("a", "b") is Relation.CAUSAL
    assert fp.relation("b", "a") is Relation.REVERSE


def test_footprint_parallel():
    fp = footprint_of_log(log_from_sequences([["a", "b"], ["b", "a"]]))
    assert fp.relation("a", "b") is Relation.PARALLEL
    assert fp.relation("b", "a") is Relation.PARALLEL


def test_footprint_empty_log_is_error():
    with pytest.raises(DataError):
        footprint_of_log(EventLog(()))


def test_footprint_matches_bruteforce_and_symmetry():
    rng = random.Random(41)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 12), 10, list("abcde"))
        fp = footprint_of_log(log_from_sequences(seqs))
        naive = naive_footprint(seqs)
        assert {(a, b): fp.relation(a, b).value
                for a in fp.activities for b in fp.activities} == naive
        for a in fp.activities:
            for b in fp.activities:
                rel, mirror = fp.relation(a, b), fp.relation(b, a)
                if rel is Relation.CAUSAL:
                    assert mirror is Relation.REVERSE
                elif rel in (Relation.PARALLEL, Relation.UNRELATED):
                    assert mirror is rel


def test_model_footprint_cases():
    log = log_from_sequences([["a", "b"]] * 3)
    dg = mine_dependency_graph(log, MiningThresholds(0.5, 1))
    fp = footprint_of_model(dg)
    assert fp.relation("a", "b") is Relation.CAUSAL
    empty = mine_dependency_graph(log, MiningThresholds(0.99, 99))
    fp2 = footprint_of_model(empty)
    assert all(fp2.relation(a, b) is Relation.UNRELATED
               for a in fp2.activities for b in fp2.activities)


def test_conformance_identity():
    fp = footprint_of_log(log_from_sequences([["a", "b", "c"], ["a", "c"]]))
    report = conformance(fp, fp)
    assert (report.fitness, report.precision, report.f_score) == (1.0, 1.0, 1.0)
    assert report.deviations == ()


def test_conformance_identity_on_random_footprints():
    rng = random.Random(43)
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 6), 8, list("abcd"))
        fp = footprint_of_log(log_from_sequences(seqs))
        rep = conformance(fp, fp)
        assert (rep.fitness, rep.precision, rep.f_score) == (1.0, 1.0, 1.0)


def test_f_score_matches_published_rows():
    assert f_score(0.794, 0.573) == pytest.approx(0.665, abs=1e-3)
    assert f_score(0.903, 0.671) == pytest.approx(0.769, abs=1e-3)
    assert f_score(0.0, 0.9) == 0.0


def test_adding_log_edge_to_model_never_decreases_fitness():
    rng = random.Random(47)
    for _ in range(100):
        seqs = random_sequences(rng, rng.randint(1, 6), 8, list("abcd"))
        log = log_from_sequences(seqs)
        log_fp = footprint_of_log(log)
        dg = mine_dependency_graph(log, MiningThresholds(0.7, 2))
        model_fp = footprint_of_model(dg)
        before = conformance(log_fp, model_fp).fitness
        log_pairs = [p for p in log_fp.pairs if p not in dg.edges]
        if not log_pairs:
            continue
        extra = sorted(log_pairs)[0]
        pairs = set(dg.edges) | {extra}
        acts = tuple(sorted(dg.activities))
        after = conformance(log_fp,
                            FootprintMatrix(acts, frozenset(pairs))).fitness
        assert after >= before


def test_deviations_list_differing_pairs():
    log_fp = footprint_of_log(log_from_sequences([["a", "b"]]))
    model_fp = footprint_of_log(log_from_sequences([["b", "a"]]))
    report = conformance(log_fp, model_fp)
    pairs = {d.pair for d in report.deviations}
    assert ("a", "b") in pairs and ("b", "a") in pairs


def test_union_alphabet_fills_unrelated():
    log_fp = footprint_of_log(log_from_sequences([["a", "b"]]))
    model_fp = footprint_of_log(log_from_sequences([["a", "c"]]))
    report = conformance(log_fp, model_fp)
    # (a,b) observed but not modeled; (a,c) modeled but not observed
    assert report.fitness == 0.0
    assert report.precision == 0.0


def test_matrix_rejects_pair_outside_alphabet():
    with pytest.raises(ValueError, match="unknown activity"):
        FootprintMatrix(("a",), frozenset({("a", "b")}))


SEQS = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=7),
                min_size=1, max_size=6)


def _log_side(seqs):
    return {a for seq in seqs for a in seq}, set(naive_df_counts(seqs))


@settings(max_examples=300, deadline=None)
@given(log_seqs=SEQS, other_seqs=SEQS,
       shift=st.sampled_from([0, 2, 4]), as_model=st.booleans(),
       dependency=st.sampled_from([0.0, 0.5, 0.9]),
       frequency=st.sampled_from([1, 2, 99]))
def test_pair_set_report_equals_dense_comparison(log_seqs, other_seqs, shift,
                                                 as_model, dependency,
                                                 frequency):
    # the other side's alphabet is abcd, cdef or efgh: the same as the
    # log's, overlapping it or disjoint from it; frequency 99 mines a
    # model with no edges
    other_seqs = [[chr(ord(a) + shift) for a in seq] for seq in other_seqs]
    other = log_from_sequences(other_seqs)
    if as_model:
        dg = mine_dependency_graph(other,
                                   MiningThresholds(dependency, frequency))
        other_fp = footprint_of_model(dg)
        other_side = (dg.activities, set(dg.edges))
    else:
        other_fp, other_side = footprint_of_log(other), _log_side(other_seqs)
    got = conformance(footprint_of_log(log_from_sequences(log_seqs)), other_fp)
    expected = dense_conformance(_log_side(log_seqs), other_side)
    assert json.dumps(report_to_json(got)) == json.dumps(expected)


_NAMES = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", "\n", "\x00", "é", "\U0001f600"]))


@settings(max_examples=200, deadline=None)
@given(deviations=st.lists(st.builds(
           Deviation, st.tuples(_NAMES, _NAMES), st.sampled_from(Relation),
           st.sampled_from(Relation)), max_size=4),
       scores=st.tuples(*[st.sampled_from([0.0, 0.1, 1.0, 5e-324])
                          | st.floats(0.0, 1.0)] * 3))
def test_write_report_json_matches_json_dumps(deviations, scores):
    report = ConformanceReport(*scores, tuple(deviations))
    got = io.StringIO()
    write_report_json(report, got)
    assert got.getvalue() == json.dumps(report_to_json(report), sort_keys=True)


def test_rendering():
    fp = footprint_of_log(log_from_sequences([["a", "b"]]))
    rep = conformance(fp, fp)
    table = comparison_table([("raw", rep)])
    assert "Event Log Type" in table and "1.000" in table
    payload = report_to_json(rep)
    assert payload["f_score"] == 1.0
