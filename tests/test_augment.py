import io
import itertools
import json
import math
import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.augment import (AugmentationReport, CandidateInsertion,
                          RemovedEvent, _Precedence, check_guideline_latency,
                          filter_chaotic_events, infer_missing_events,
                          merge_reports, report_to_json, write_report_json)
from kcpm.eventlog import Event, EventLog, Trace
from kcpm.kg import (DIRECTLY_FOLLOWS, FORBIDDEN_BEFORE, MUST_PRECEDE,
                     KnowledgeGraph, TemporalTriple, Triple, load_triples)
from kcpm.rules import (Atom, ClosedPathRule, Closure, RuleBase, chain_body,
                        mine_rules)
from kcpm.synth import CorruptionSpec, corrupt, simulate
from kcpm.temporal import (DirectlyFollowsShare, df_training_triples,
                           train_temporal_scorer)

from conftest import T0, log_from_sequences, random_sequences
from oracles import (eager_infer_missing_events, edit_distance,
                     naive_closure, naive_df_share, naive_remove_chaotic)
from test_acceptance import NOISE_LABELS, precedence_kb_lines, ward_model
from test_cli import small_pathway

EMPTY_RB = RuleBase(())


def is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


# ---------------------------------------------------------------------------
# Chaotic-event removal
# ---------------------------------------------------------------------------

def test_empty_rulebase_changes_nothing(tiny_log):
    out, report = filter_chaotic_events(tiny_log,
                                        Closure(EMPTY_RB, KnowledgeGraph()))
    assert out == tiny_log
    assert report.removed_events == ()


def test_forbidden_before_removes_event():
    kg = KnowledgeGraph([Triple("Discharge", FORBIDDEN_BEFORE, "IV Antibiotics")])
    log = log_from_sequences(
        [["ER Triage", "Discharge", "IV Antibiotics", "Release"]])
    out, report = filter_chaotic_events(log, Closure(EMPTY_RB, kg))
    assert out.traces[0].activities == ("ER Triage", "IV Antibiotics", "Release")
    (removal,) = report.removed_events
    assert removal.activity == "Discharge"
    assert removal.index == 1
    assert removal.rule_id is None  # contradicted by a base fact


def test_rule_about_absent_activity_changes_nothing(tiny_log):
    kg = KnowledgeGraph([Triple("ghost", FORBIDDEN_BEFORE, "phantom")])
    out, report = filter_chaotic_events(tiny_log, Closure(EMPTY_RB, kg))
    assert out == tiny_log
    assert report.removed_events == ()


def test_removal_resplices_and_cascades():
    # after the middle noise burst goes, the re-spliced neighbor pair is fine
    kg = KnowledgeGraph([
        Triple("n", FORBIDDEN_BEFORE, "b"),
        Triple("n", FORBIDDEN_BEFORE, "n"),
    ])
    log = log_from_sequences([["a", "n", "n", "b"]])
    out, report = filter_chaotic_events(log, Closure(EMPTY_RB, kg))
    assert out.traces[0].activities == ("a", "b")
    assert [r.index for r in report.removed_events] == [1, 2]


def test_trailing_event_with_no_successor_survives():
    kg = KnowledgeGraph([Triple("n", FORBIDDEN_BEFORE, "b")])
    log = log_from_sequences([["a", "b", "n"]])
    out, _ = filter_chaotic_events(log, Closure(EMPTY_RB, kg))
    assert out.traces[0].activities == ("a", "b", "n")


def test_unmapped_activities_never_removed():
    kg = KnowledgeGraph([Triple("n", FORBIDDEN_BEFORE, "b")])
    log = log_from_sequences([["n", "b"]])
    out, _ = filter_chaotic_events(log, Closure(EMPTY_RB, kg),
                                   alias={"b": "b"})
    assert out == log  # "n" has no alias entry, so it is untouchable


@settings(max_examples=150, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abn"), min_size=1, max_size=8),
                     min_size=1, max_size=4),
       forbidden=st.sets(st.tuples(st.sampled_from("abn"),
                                   st.sampled_from("abn")), max_size=4),
       must_precede=st.sets(st.tuples(st.sampled_from("abn"),
                                      st.sampled_from("abn")), max_size=3))
def test_removal_matches_rescan_from_start(seqs, forbidden, must_precede):
    """Removal equals the rescan from the start, which reads only the
    forbidden pairs: must_precede facts in the KG never remove an
    event."""
    kg = KnowledgeGraph([Triple(a, FORBIDDEN_BEFORE, b) for a, b in forbidden]
                        + [Triple(a, MUST_PRECEDE, b) for a, b in must_precede])
    out, report = filter_chaotic_events(log_from_sequences(seqs),
                                        Closure(EMPTY_RB, kg))
    expected, removed = naive_remove_chaotic(seqs, forbidden)
    assert [list(t.activities) for t in out.traces] == [e for e in expected if e]
    assert [(int(r.case_id[1:]), r.index, r.activity)
            for r in report.removed_events] == removed


def test_filter_idempotent_and_shrinking_on_random_logs():
    rng = random.Random(53)
    acts = list("abcd")
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 8), 8, acts + ["n", "m"])
        log = log_from_sequences(seqs)
        facts = {Triple(rng.choice("nm"), FORBIDDEN_BEFORE, rng.choice(acts + ["n", "m"]))
                 for _ in range(rng.randint(0, 5))}
        kg = KnowledgeGraph(facts)
        once, report = filter_chaotic_events(log, Closure(EMPTY_RB, kg))
        assert once.n_events <= log.n_events
        assert once.n_events == log.n_events - len(report.removed_events)
        twice, report2 = filter_chaotic_events(once, Closure(EMPTY_RB, kg))
        assert twice == once
        assert report2.removed_events == ()


# ---------------------------------------------------------------------------
# Missing-event inference
# ---------------------------------------------------------------------------

def test_unreachable_threshold_inserts_nothing():
    kg = KnowledgeGraph([Triple("reg", MUST_PRECEDE, "triage")])
    log = log_from_sequences([["triage", "x"]])
    out, report = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=1.01)
    assert out == log
    assert report.inserted == ()


def test_prerequisite_inserted_at_front():
    kg = KnowledgeGraph([Triple("reg", MUST_PRECEDE, "triage")])
    log = log_from_sequences([["triage", "x"]])
    out, report = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=0.9)
    assert out.traces[0].activities == ("reg", "triage", "x")
    (ins,) = report.inserted
    assert (ins.activity, ins.position, ins.provenance) == ("reg", 0, "rule")
    assert ins.score == 1.0
    first, second = out.traces[0].events[0], out.traces[0].events[1]
    assert first.attributes.get("synthetic") is True
    assert second.timestamp - first.timestamp == timedelta(seconds=1)


def test_midpoint_timestamp_for_interior_insertion():
    kg = KnowledgeGraph([Triple("b", MUST_PRECEDE, "c")])
    log = log_from_sequences([["a", "c"]], step_seconds=120)
    out, _ = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=0.5)
    a, b, c = out.traces[0].events
    assert b.activity == "b"
    assert b.timestamp - a.timestamp == timedelta(seconds=60)
    assert c.timestamp - b.timestamp == timedelta(seconds=60)


def test_prerequisite_present_means_no_insertion():
    kg = KnowledgeGraph([Triple("a", MUST_PRECEDE, "b")])
    log = log_from_sequences([["a", "b"]])
    out, report = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=0.5)
    assert out == log
    assert report.inserted == ()


def test_chained_obligations_cascade_in_order():
    kg = KnowledgeGraph([
        Triple("a", MUST_PRECEDE, "b"),
        Triple("b", MUST_PRECEDE, "c"),
    ])
    log = log_from_sequences([["c"]])
    out, report = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=0.5)
    assert out.traces[0].activities == ("a", "b", "c")
    assert {i.activity for i in report.inserted} == {"a", "b"}


def test_multiple_obligations_topologically_ordered():
    kg = KnowledgeGraph([
        Triple("a", MUST_PRECEDE, "c"),
        Triple("b", MUST_PRECEDE, "c"),
        Triple("a", MUST_PRECEDE, "b"),
    ])
    log = log_from_sequences([["c"]])
    out, _ = infer_missing_events(log, Closure(EMPTY_RB, kg), theta=0.5)
    assert out.traces[0].activities == ("a", "b", "c")


def test_fallback_acceptance_path():
    # the obligation comes from a low-confidence rule; only the
    # directly-follows share clears the (low) threshold
    rule = ClosedPathRule(chain_body(("hint",)), Atom(MUST_PRECEDE, "x", "y"),
                          1, 0.2, 0.2)
    kg = KnowledgeGraph([Triple("a", "hint", "b")])
    rb = RuleBase((rule,), min_pca_conf=0.0)
    # one broken trace missing "a"; in the others x is followed by a
    log = log_from_sequences([["x", "b"]] + [["x", "a", "b"]] * 30)
    out, report = infer_missing_events(
        log, Closure(rb, kg), lambda: train_temporal_scorer(log), theta=0.4)
    assert out.traces[0].activities == ("x", "a", "b")
    (ins,) = report.inserted
    assert ins.provenance == "embedding" and ins.rule_id is None
    assert ins.score == 30 / 31
    # without the fallback the candidate fails (0.2 < 0.4)
    out2, report2 = infer_missing_events(log, Closure(rb, kg), None, theta=0.4)
    assert report2.inserted == ()
    assert out2 == log
    # at theta 1 the share, 30/31, falls short as well
    out3, report3 = infer_missing_events(
        log, Closure(rb, kg), lambda: train_temporal_scorer(log), theta=1.0)
    assert report3.inserted == () and out3 == log


@settings(max_examples=300, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcd"), max_size=6),
                     max_size=6),
       facts=st.lists(st.tuples(st.sampled_from("abcd"),
                                st.sampled_from((DIRECTLY_FOLLOWS, "other")),
                                st.sampled_from("abcd"),
                                st.integers(0, 3)), max_size=6),
       pred=st.sampled_from("abcde"), succ=st.sampled_from("abcde"),
       theta=st.sampled_from((0, 0.0, 0.3, 0.5, 1, 1.0)))
def test_fallback_decides_as_the_fraction_oracle(seqs, facts, pred, succ,
                                                 theta):
    """The share's verdict on each candidate, and the score it records,
    equal a per-candidate count compared as Fractions: at theta 0, 0.3,
    0.5 and 1, for a predecessor with no successor ("d" when it ends
    every trace, and "e", never seen), an unknown candidate ("e"), and
    the KG's timestamped facts, which count once per timestamp and only
    under directly_follows."""
    log = log_from_sequences([s for s in seqs if s])
    kg = KnowledgeGraph(temporal=[
        TemporalTriple(Triple(a, p, b), T0 + timedelta(days=d))
        for a, p, b, d in facts])
    share = train_temporal_scorer(log, kg)
    stated = {(a, b, d) for a, p, b, d in facts if p == DIRECTLY_FOLLOWS}
    want = naive_df_share([s for s in seqs if s],
                          [(a, b) for a, b, _ in stated], pred, succ, theta)
    got = share.degree(pred, succ, theta)
    assert got == want and (got is None or type(got) is float)
    assert sorted(df_training_triples(log, kg)) == sorted(
        [pair for s in seqs for pair in zip(s, s[1:])]
        + [(a, b) for a, b, _ in stated])


def test_fallback_compares_theta_as_its_decimal_text():
    """A share just below 3/10 rounds to the double 0.3, but it does not
    reach theta 0.3: the comparison is exact, in integers."""
    share = DirectlyFollowsShare([])
    share.df["a", "b"], share.out["a"] = 3 * 10**16 - 1, 10**17
    assert (3 * 10**16 - 1) / 10**17 == 0.3
    assert share.degree("a", "b", 0.3) is None
    share.df["a", "b"] += 1
    assert share.degree("a", "b", 0.3) == 0.3
    assert share.degree("a", "b", 0.30000000000000004) is None
    assert share.degree("b", "a", 0) is None  # b has no observed successor


def test_scorer_is_needed_only_where_the_rule_is_unsure():
    rule = ClosedPathRule(chain_body(("hint",)), Atom(MUST_PRECEDE, "x", "y"),
                          1, 0.2, 0.2)
    closure = Closure(RuleBase((rule,), min_pca_conf=0.0),
                      KnowledgeGraph([Triple("a", "hint", "b")]))
    (conf,) = {c for _, _, c, _ in closure.facts(MUST_PRECEDE)}
    calls = []

    def make_scorer():
        calls.append(None)
        return None

    # at theta == conf the rule alone inserts, with no scorer to consult
    log = log_from_sequences([["x", "b"]] * 3)
    _, report = infer_missing_events(log, closure, make_scorer, theta=conf)
    assert [i.provenance for i in report.inserted] == ["rule"] * 3
    assert calls == []
    # just above it every trace asks, and the factory is called once
    out, report = infer_missing_events(log, closure, make_scorer,
                                       theta=conf + 0.01)
    assert out == log and report.inserted == ()
    assert len(calls) == 1
    # a prerequisite that is present, or missing at the trace start,
    # asks nothing
    calls.clear()
    log = log_from_sequences([["x", "a", "b"], ["b", "x"]])
    out, _ = infer_missing_events(log, closure, make_scorer, theta=conf + 0.01)
    assert out == log and calls == []


ACTS = "abcde"


@st.composite
def shares(draw, acts):
    """A directly-follows share over drawn pairs of acts but the last,
    so that one activity has no observation."""
    pairs = st.tuples(st.sampled_from(acts[:-1]), st.sampled_from(acts[:-1]))
    return DirectlyFollowsShare(draw(st.lists(pairs, max_size=12)))


@st.composite
def repair_cases(draw):
    """A log over ACTS, a closure whose must_precede facts hold at
    confidences 1 (base facts) or 0.2-0.9 (one rule per level), an alias
    map or None, a theta and a directly-follows share or None."""
    seqs = draw(st.lists(st.lists(st.sampled_from(ACTS), min_size=1,
                                  max_size=7), min_size=1, max_size=5))
    pairs = st.tuples(st.sampled_from(ACTS), st.sampled_from(ACTS))
    levels = (0.2, 0.45, 0.5, 0.7, 0.9)
    triples = [Triple(a, MUST_PRECEDE, b)
               for a, b in draw(st.lists(pairs, max_size=3))]
    rules = []
    for k, conf in enumerate(levels):
        hint = f"hint{k}"
        for a, b in draw(st.lists(pairs, max_size=3)):
            triples.append(Triple(a, hint, b))
        rules.append(ClosedPathRule(chain_body((hint,)),
                                    Atom(MUST_PRECEDE, "x", "y"), 1, conf,
                                    conf))
    closure = Closure(RuleBase(tuple(rules), min_pca_conf=0.0),
                      KnowledgeGraph(triples))
    alias = draw(st.none() | st.dictionaries(st.sampled_from(ACTS),
                                             st.sampled_from(ACTS)))
    theta = draw(st.sampled_from((0.1, 0.3, 0.4, 0.44, 0.46, 0.5, 0.6, 1.0)))
    return (log_from_sequences(seqs), closure, alias, theta,
            draw(st.none() | shares(ACTS)))


@settings(max_examples=300, deadline=None)
@given(case=repair_cases())
def test_lazy_scorer_equals_eager_scorer(case):
    """With the scorer built by a factory, inference repairs every log as
    it did with the scorer trained up front, and calls the factory once
    exactly when a candidate reaches the scorer."""
    log, closure, alias, theta, scorer = case
    calls = []

    def make_scorer():
        calls.append(None)
        return scorer

    out, report = infer_missing_events(log, closure, make_scorer, theta, alias)
    want_out, want_report, reached = eager_infer_missing_events(
        log, closure, scorer, theta, alias)
    assert out == want_out
    assert report == want_report
    assert len(calls) == (1 if reached else 0)


# Past one machine word: prerequisite masks over 80 entities, whose
# names sort in index order, so w72 and up sit past bit 63
WIDE = tuple(f"w{k:02d}" for k in range(80))
EXTRA_ACTS = ("x0", "x1", "x2")


class WideCase(NamedTuple):
    seqs: list
    closure: Closure      # must_precede facts and hints under two hint rules
    alias: dict | None
    theta: float
    scorer: DirectlyFollowsShare | None


@st.composite
def wide_cases(draw):
    """Traces over a few entities (one of them past bit 63) and one late
    entity. must_precede base facts run along the pool, along a chain
    through the other entities of WIDE, back from one chain entity to an
    earlier one (a cycle), from every pool entity and every earlier
    chain entity to the late one, whose prerequisites so fill most of
    the 80 bits and take in the cycle, and between drawn pairs. Under
    an alias, extra activities join in: several map to one entity and
    some activities map to nothing. Two hint rules derive facts below
    confidence 1, and theta sits at or next to a confidence of the
    closure."""
    pool = draw(st.lists(st.sampled_from(WIDE), min_size=2, max_size=5,
                         unique=True))
    pool.append(draw(st.sampled_from(WIDE[72:]).filter(
        lambda e: e not in pool)))
    chain = [e for e in draw(st.permutations(WIDE)) if e not in pool]
    at = draw(st.integers(len(chain) // 2, len(chain) - 1))
    late = chain[at]
    lo = draw(st.integers(0, at - 2))
    back = (chain[draw(st.integers(lo + 1, min(lo + 3, at - 1)))], chain[lo])
    pairs = st.tuples(st.sampled_from(pool + [late]),
                      st.sampled_from(pool + [late]))
    must_precede = (set(zip(chain, chain[1:])) | set(zip(pool, pool[1:]))
                    | {back} | {(p, late) for p in pool + chain[:at]}
                    | set(draw(st.lists(pairs, max_size=3))))
    hints = draw(st.lists(pairs, max_size=3))
    alias = None
    acts = pool + [late]
    if draw(st.booleans()):
        target = draw(st.sampled_from(pool))
        alias = {a: target for a in draw(st.lists(
            st.sampled_from(EXTRA_ACTS + tuple(pool)), min_size=2,
            max_size=3, unique=True))}
        for a in acts:  # some map to themselves, some to nothing
            if a not in alias and draw(st.booleans()):
                alias[a] = a
        acts = acts + list(EXTRA_ACTS)
    seqs = draw(st.lists(st.lists(st.sampled_from(acts), min_size=1,
                                  max_size=6), min_size=1, max_size=3))
    rules = (
        ClosedPathRule(chain_body(("hint",)), Atom(MUST_PRECEDE, "x", "y"),
                       1, 0.45, 0.45),
        ClosedPathRule(chain_body(("hint", MUST_PRECEDE)),
                       Atom(MUST_PRECEDE, "x", "y"), 1, 0.7, 0.7),
    )
    closure = Closure(RuleBase(rules, min_pca_conf=0.0), KnowledgeGraph(
        [Triple(a, MUST_PRECEDE, b) for a, b in must_precede]
        + [Triple(a, "hint", b) for a, b in hints]))
    confs = sorted({c for _, _, c, _ in closure.facts(MUST_PRECEDE)})
    theta = draw(st.sampled_from(confs))
    theta = draw(st.sampled_from((theta, math.nextafter(theta, 0.0),
                                  math.nextafter(theta, 2.0), theta - 0.01,
                                  theta + 0.01)))
    scorer = draw(st.none() | shares(tuple(acts)))
    return WideCase(seqs, closure, alias, theta, scorer)


@settings(max_examples=150, deadline=None)
@given(case=wide_cases())
def test_wide_masks_insert_as_the_set_scan_does(case):
    """Int-mask prerequisite checks insert what the set-based scan of the
    reference does, in the same order and with the same report."""
    log = log_from_sequences(case.seqs)
    out, report = infer_missing_events(log, case.closure,
                                       lambda: case.scorer, case.theta,
                                       case.alias)
    want_out, want_report, _ = eager_infer_missing_events(
        log, case.closure, case.scorer, case.theta, case.alias)
    assert out == want_out
    assert report == want_report


def test_subsequence_property_on_random_logs():
    rng = random.Random(59)
    acts = list("abcde")
    for _ in range(200):
        seqs = random_sequences(rng, rng.randint(1, 6), 7, acts)
        log = log_from_sequences(seqs)
        facts = {Triple(rng.choice(acts), MUST_PRECEDE, rng.choice(acts))
                 for _ in range(rng.randint(0, 5))}
        out, report = infer_missing_events(
            log, Closure(EMPTY_RB, KnowledgeGraph(facts)), theta=0.5)
        assert len(out.traces) == len(log.traces)
        for before, after in zip(log.traces, out.traces):
            assert is_subsequence(before.activities, after.activities)
            assert len(after) >= len(before)
        n_synthetic = sum(
            1 for t in out.traces for e in t.events
            if e.attributes.get("synthetic"))
        assert n_synthetic == len(report.inserted)


# steps between consecutive timestamps, in microseconds: ties, odd gaps
# whose midpoint rounds, and whole minutes
_STEPS = st.sampled_from([0, 0, 1, 3, 60_000_000])


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(st.tuples(
           st.sampled_from([None, timezone.utc,
                            timezone(timedelta(hours=-5))]),
           st.lists(st.tuples(st.sampled_from("abn"), _STEPS),
                    min_size=1, max_size=8)),
           min_size=1, max_size=4),
       forbidden=st.sets(st.tuples(st.sampled_from("abn"),
                                   st.sampled_from("abn")), max_size=4),
       must_precede=st.sets(st.tuples(st.sampled_from("abn"),
                                      st.sampled_from("abn")), max_size=4))
def test_repaired_traces_equal_validated_traces(cases, forbidden,
                                                must_precede):
    """Removal and insertion make their traces without Trace's re-sort;
    each equals Trace(case_id, events) made with full validation, on
    logs with timestamp ties and with an insertion at position 0 of
    every trace (p must precede every activity and occurs in none)."""
    traces = []
    for i, (tz, steps) in enumerate(cases):
        ts = datetime(2024, 3, 1, 9, tzinfo=tz)
        events = []
        for activity, step in steps:
            ts += timedelta(microseconds=step)
            events.append(Event(f"c{i}", activity, ts))
        traces.append(Trace(f"c{i}", tuple(events)))
    kg = KnowledgeGraph(
        [Triple(a, FORBIDDEN_BEFORE, b) for a, b in forbidden]
        + [Triple(a, MUST_PRECEDE, b) for a, b in must_precede]
        + [Triple("p", MUST_PRECEDE, a) for a in "abn"])
    closure = Closure(EMPTY_RB, kg)
    removed, _ = filter_chaotic_events(EventLog(tuple(traces)), closure)
    repaired, _ = infer_missing_events(removed, closure, theta=0.5)
    for log in (removed, repaired):
        for t in log.traces:
            assert type(t) is Trace
            assert t == Trace(t.case_id, t.events)
    assert all(t.events[0].activity == "p" for t in repaired.traces)


def test_merge_reports_and_json():
    kg = KnowledgeGraph([Triple("reg", MUST_PRECEDE, "triage"),
                         Triple("n", FORBIDDEN_BEFORE, "triage")])
    log = log_from_sequences([["n", "triage"]])
    filtered, rep1 = filter_chaotic_events(log, Closure(EMPTY_RB, kg))
    out, rep2 = infer_missing_events(filtered, Closure(EMPTY_RB, kg),
                                     theta=0.5)
    merged = merge_reports(rep1, rep2)
    payload = report_to_json(merged)
    assert len(payload["removed_events"]) == 1
    assert len(payload["inserted"]) == 1
    assert payload["thresholds"] == {"theta": 0.5}


# scores of other types than float, which CandidateInsertion makes floats
_SCORES = [0, 1, True, False, Fraction(1, 4), Fraction(1, 2), Fraction(1)]


# names with non-ASCII, quote, backslash and control characters
_NAMES = st.one_of(st.text(max_size=6),
                   st.sampled_from(['"', "\\", "\n", "\x00\x1f", "é", "☃",
                                    "\U0001f600", "\u2028"]))


@settings(max_examples=200, deadline=None)
@given(removed=st.lists(st.builds(RemovedEvent, _NAMES,
                                  st.integers(0, 10**6), _NAMES,
                                  st.none() | _NAMES), max_size=4),
       inserted=st.lists(st.builds(
           CandidateInsertion, _NAMES, _NAMES, st.integers(0, 10**6),
           st.sampled_from([0.0, 0.1, 1.0, 5e-324, *_SCORES])
           | st.floats(0.0, 1.0),
           st.sampled_from(["rule", "embedding"]), st.none() | _NAMES),
           max_size=4),
       thresholds=st.none() | st.dictionaries(
           st.sampled_from(["theta", "é"]), st.floats(0.0, 1.0)))
def test_write_report_json_matches_json_dumps(removed, inserted, thresholds):
    report = AugmentationReport(tuple(removed), tuple(inserted), thresholds)
    got = io.StringIO()
    write_report_json(report, got)
    assert got.getvalue() == json.dumps(report_to_json(report),
                                        sort_keys=True) + "\n"


_CANDIDATE = {"case_id": "c", "activity": "a", "position": 2, "score": 0.5,
              "provenance": "rule", "rule_id": "r"}
_WAYS = ("positional", "keyword", "_make", "_replace")


def _candidate(way: str, **change) -> CandidateInsertion:
    fields = {**_CANDIDATE, **change}
    if way == "positional":
        return CandidateInsertion(*fields.values())
    if way == "keyword":
        return CandidateInsertion(**fields)
    if way == "_make":
        return CandidateInsertion._make(fields.values())
    return CandidateInsertion(**_CANDIDATE)._replace(**change)


@pytest.mark.parametrize("way", _WAYS)
@pytest.mark.parametrize("change", [
    {"position": -1}, {"score": -0.25}, {"score": 1.5}, {"score": -1},
    {"score": 2}, {"score": math.nan}, {"score": Fraction(5, 4)}])
def test_every_way_of_making_a_candidate_refuses_a_bad_position_or_score(
        way, change):
    with pytest.raises(ValueError):
        _candidate(way, **change)


@pytest.mark.parametrize("way", _WAYS)
@pytest.mark.parametrize("score", _SCORES)
def test_every_way_of_making_a_candidate_makes_its_score_a_float(way, score):
    c = _candidate(way, score=score)
    assert type(c) is CandidateInsertion
    assert type(c.score) is float and c.score == float(score)


_PREDICATES = (MUST_PRECEDE, "p", "q")


@settings(max_examples=150, deadline=None)
@given(triples=st.sets(st.tuples(st.sampled_from("abcde"),
                                 st.sampled_from(_PREDICATES),
                                 st.sampled_from("abcde")), max_size=12),
       rules=st.lists(st.tuples(
           st.lists(st.sampled_from(_PREDICATES), min_size=1, max_size=3),
           st.sampled_from(_PREDICATES),
           st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
           max_size=5))
def test_precedence_masks_and_lookup_give_the_must_precede_facts(triples,
                                                                 rules):
    rb = RuleBase(tuple(ClosedPathRule(chain_body(tuple(body)),
                                       Atom(head, "x", "y"), 1, 0.0, conf)
                        for body, head, conf in rules))
    closure = Closure(rb, KnowledgeGraph(Triple(*t) for t in triples))
    facts = list(closure.facts(MUST_PRECEDE))
    prec = _Precedence(closure)
    assert prec.names == sorted({s for s, _, _, _ in facts})
    assert {(s, o) for o, mask in prec.need.items()
            for s in prec.decode(mask)} == {(s, o) for s, o, _, _ in facts}
    for s, o, conf, via in facts:
        assert closure.lookup(MUST_PRECEDE, s, o) == (conf, via)
    # lookup against the naive fixpoint
    expected = naive_closure([(tuple(b), h, c) for b, h, c in rules], triples)
    for s, p, o in itertools.product("abcde", _PREDICATES, "abcde"):
        found = closure.lookup(p, s, o)
        if (s, p, o) not in expected:
            assert found is None
            continue
        conf, via = found
        assert conf == pytest.approx(expected[(s, p, o)], abs=1e-12)
        assert (via is None) == ((s, p, o) in triples)


# ---------------------------------------------------------------------------
# Repair quality against the true log
# ---------------------------------------------------------------------------

def test_edit_distance_on_hand_worked_cases():
    truth = log_from_sequences([["a", "b", "c"], ["a", "b"], ["x", "y"]])

    def dist(*seqs):
        return edit_distance(truth, log_from_sequences(seqs))

    assert dist(["a", "b", "c"], ["a", "b"], ["x", "y"]) == 0
    # c0: drop b; c1: insert n; c2: substitute y
    assert dist(["a", "c"], ["a", "n", "b"], ["x", "z"]) == 3
    # c0 reversed: substitute a and c, keep b
    assert dist(["c", "b", "a"], ["a", "b"], ["x", "y"]) == 2
    # c0 emptied to one stray event, c1 all new, c2 missing (its length)
    assert dist(["n"], ["p", "q", "r"]) == 3 + 3 + 2
    assert edit_distance(truth, log_from_sequences([])) == 3 + 2 + 2
    # a case only the repaired log has costs nothing
    assert dist(["a", "b", "c"], ["a", "b"], ["x", "y"], ["z"]) == 0


def test_repair_moves_the_log_toward_the_truth():
    """Removal and rule-only insertion, at the pipeline's default
    thresholds, leave each corrupted log closer to the log it was
    corrupted from than it was: on ward (1,000 cases) with only drops,
    at the judged point and with heavy drops, and on the 30-case
    pathway."""
    def repaired(log, closure):
        filtered, _ = filter_chaotic_events(log, closure)
        return infer_missing_events(filtered, closure, theta=0.5)[0]

    def closure_of(lines):
        kg = load_triples(io.StringIO("\n".join(lines) + "\n"))
        return Closure(mine_rules(kg, min_pca_conf=0.8), kg)

    ward = ward_model(), closure_of(precedence_kb_lines()), 1000
    pathway_model, pathway_lines = small_pathway()
    pathway = pathway_model, closure_of(pathway_lines), 30
    distances = {}
    for name, (model, closure, cases), drop, noise in (
            ("ward", ward, 0.05, 0.0), ("ward", ward, 0.10, 0.20),
            ("ward", ward, 0.30, 0.20), ("pathway", pathway, 0.10, 0.20)):
        truth = simulate(model, cases, seed=5)
        raw = corrupt(truth, CorruptionSpec(drop, noise,
                                            frozenset(NOISE_LABELS), seed=6))
        distances[name, drop, noise] = (
            edit_distance(truth, raw),
            edit_distance(truth, repaired(raw, closure)))
    assert all(fixed < raw for raw, fixed in distances.values()), distances


# ---------------------------------------------------------------------------
# Guideline latency
# ---------------------------------------------------------------------------

def test_latency_vacuous_when_no_case_has_both(tiny_log):
    assert check_guideline_latency(tiny_log, "a", "zz",
                                   timedelta(hours=1)) == 0.0


def test_latency_single_violating_case():
    log = log_from_sequences([["triage", "antibiotics"]], step_seconds=7200)
    assert check_guideline_latency(log, "triage", "antibiotics",
                                   timedelta(hours=1)) == 1.0
    assert check_guideline_latency(log, "triage", "antibiotics",
                                   timedelta(hours=3)) == 0.0


def test_latency_uses_first_occurrences():
    log = log_from_sequences(
        [["t", "x", "t", "iv"]], step_seconds=1800)  # first t -> iv = 90 min
    assert check_guideline_latency(log, "t", "iv", timedelta(hours=1)) == 1.0
    log2 = log_from_sequences([["t", "iv", "iv"]], step_seconds=1800)
    assert check_guideline_latency(log2, "t", "iv", timedelta(hours=1)) == 0.0
