"""The directly-follows fallback of kcpm.temporal: the observations it
counts, the counts, and the share's verdict at hand-worked thetas."""
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm import temporal
from kcpm.eventlog import EventLog
from kcpm.kg import (DIRECTLY_FOLLOWS, MUST_PRECEDE, KnowledgeGraph,
                     TemporalTriple, Triple)
from kcpm.temporal import (DirectlyFollowsShare, df_training_triples,
                           train_temporal_scorer)

from conftest import T0, log_from_sequences


def stated(s, p, o, day=0):
    return TemporalTriple(Triple(s, p, o), T0 + timedelta(days=day))


def test_training_triples_include_log_and_kg():
    """The log's consecutive pairs, trace by trace, then the timestamped
    directly_follows facts in sorted order; a fact under another
    predicate, or a plain triple without a timestamp, is no observation."""
    log = log_from_sequences([["a", "b", "c"], ["b", "a"]])
    kg = KnowledgeGraph(
        [Triple("c", DIRECTLY_FOLLOWS, "a")],
        [stated("x", DIRECTLY_FOLLOWS, "y"), stated("c", DIRECTLY_FOLLOWS, "b"),
         stated("a", MUST_PRECEDE, "c")])
    assert df_training_triples(log, kg) == [
        ("a", "b"), ("b", "c"), ("b", "a"), ("c", "b"), ("x", "y")]


def test_training_triples_stay_within_a_trace():
    """The last event of one trace and the first of the next are not a
    pair, and a one-event trace gives none."""
    log = log_from_sequences([["a"], ["b", "c"], ["d"]])
    assert df_training_triples(log, KnowledgeGraph()) == [("b", "c")]


def test_a_fact_counts_once_per_timestamp():
    """The KG holds each (triple, timestamp) once: the same line twice is
    one observation, the same triple at two timestamps is two."""
    kg = KnowledgeGraph(temporal=[stated("a", DIRECTLY_FOLLOWS, "b"),
                                  stated("a", DIRECTLY_FOLLOWS, "b"),
                                  stated("a", DIRECTLY_FOLLOWS, "b", day=1)])
    assert df_training_triples(EventLog(()), kg) == [("a", "b"), ("a", "b")]


def test_a_kg_fact_adds_one_observation_to_the_log_counts():
    log = log_from_sequences([["a", "b"], ["a", "c"]])
    kg = KnowledgeGraph(temporal=[stated("a", DIRECTLY_FOLLOWS, "c")])
    share = train_temporal_scorer(log, kg)
    assert (share.df["a", "b"], share.df["a", "c"], share.out["a"]) == (1, 2, 3)
    assert share.degree("a", "c", 0.6) == 2 / 3
    assert train_temporal_scorer(log).degree("a", "c", 0.6) is None


def test_train_without_kg_is_train_with_an_empty_kg():
    log = log_from_sequences([["a", "b", "a", "c"], ["c", "a"]])
    plain, empty = train_temporal_scorer(log), train_temporal_scorer(
        log, KnowledgeGraph())
    assert (plain.df, plain.out) == (empty.df, empty.out)


def test_train_reads_its_observations_through_the_module(monkeypatch):
    """train_temporal_scorer calls df_training_triples by the module's
    name, so a wrapper set on the module sees every observation."""
    seen = []
    real = temporal.df_training_triples

    def wrapped(log, kg):
        pairs = real(log, kg)
        seen.extend(pairs)
        return pairs

    monkeypatch.setattr(temporal, "df_training_triples", wrapped)
    share = temporal.train_temporal_scorer(log_from_sequences([["a", "b"]]))
    assert seen == [("a", "b")] and share.df == {("a", "b"): 1}


def test_out_counts_every_observation_that_starts_at_a_predecessor():
    share = DirectlyFollowsShare([("a", "b"), ("a", "b"), ("a", "c"),
                                  ("b", "a"), ("c", "c")])
    assert share.df == {("a", "b"): 2, ("a", "c"): 1, ("b", "a"): 1,
                        ("c", "c"): 1}
    assert share.out == {"a": 3, "b": 1, "c": 1}


def test_no_observation_decides_nothing():
    share = DirectlyFollowsShare([])
    assert not share.df and not share.out
    assert share.degree("a", "b", 0) is None


# observations a->b three times, a->c once, a->a once, c->c once; b is
# seen only as a successor
_PAIRS = [("a", "b")] * 3 + [("a", "c"), ("a", "a"), ("c", "c")]


@pytest.mark.parametrize("pred, succ, theta, want", [
    ("a", "b", 0.5, 3 / 5),
    ("a", "b", 0.6, 3 / 5),
    ("a", "b", 0.61, None),
    ("a", "c", 0.2, 1 / 5),
    ("a", "c", 0.3, None),
    ("a", "a", 0.2, 1 / 5),
    ("a", "d", 0, 0.0),
    ("a", "d", 0.1, None),
    ("b", "a", 0, None),
    ("z", "a", 0, None),
    ("c", "c", 1, 1.0),
    ("c", "c", 1.0, 1.0),
    ("a", "b", 1, None),
    ("c", "c", 1.5, None),
], ids=["share-above-theta", "share-equal-to-theta", "share-just-below",
        "rare-successor-at-low-theta", "rare-successor-below",
        "self-loop", "unknown-candidate-at-theta-0",
        "unknown-candidate-above-0", "predecessor-without-successor",
        "unknown-predecessor", "sole-successor-at-int-1",
        "sole-successor-at-1.0", "shared-successor-at-1",
        "theta-above-1"])
def test_degree_decision(pred, succ, theta, want):
    got = DirectlyFollowsShare(_PAIRS).degree(pred, succ, theta)
    assert got == want and (got is None or type(got) is float)


def test_dominant_pattern_scores_higher():
    """Where x is followed by a in 30 traces and by b in 3, a scores ten
    times b, and only a clears theta 0.5."""
    log = log_from_sequences([["x", "a"]] * 30 + [["x", "b"]] * 3)
    share = train_temporal_scorer(log)
    assert (share.degree("x", "a", 0), share.degree("x", "b", 0)) == (
        30 / 33, 3 / 33)
    assert share.degree("x", "a", 0.5) == 30 / 33
    assert share.degree("x", "b", 0.5) is None


_SEQS = st.lists(st.lists(st.sampled_from("abcd"), max_size=6), max_size=8)


@settings(max_examples=200, deadline=None)
@given(seqs=_SEQS, pred=st.sampled_from("abcde"),
       succ=st.sampled_from("abcde"))
def test_degree_always_in_unit_interval_and_monotone(seqs, pred, succ):
    """The share at theta 0 is in [0, 1], the successors' shares of one
    predecessor sum to 1, and a candidate accepted at one theta is
    accepted, with the same score, at every lower one."""
    share = train_temporal_scorer(log_from_sequences([s for s in seqs if s]))
    base = share.degree(pred, succ, 0)
    if base is None:
        assert share.out[pred] == 0
        return
    assert 0.0 <= base <= 1.0
    assert sum(share.degree(pred, s, 0) for s in "abcd") == pytest.approx(1)
    thetas = (0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1)
    verdicts = [share.degree(pred, succ, t) for t in thetas]
    accepted = [v is not None for v in verdicts]
    assert accepted == sorted(accepted, reverse=True)
    assert {v for v in verdicts if v is not None} <= {base}


@settings(max_examples=100, deadline=None)
@given(seqs=_SEQS, seed=st.integers(0, 2**16))
def test_counts_do_not_depend_on_trace_order(seqs, seed):
    seqs = [s for s in seqs if s]
    shuffled = list(seqs)
    random.Random(seed).shuffle(shuffled)
    a = train_temporal_scorer(log_from_sequences(seqs))
    b = train_temporal_scorer(log_from_sequences(shuffled))
    assert (a.df, a.out) == (b.df, b.out)
