import csv
import io
import json
import math
import random
import re
from datetime import timedelta

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from kcpm.errors import DataError
from kcpm.eventlog import ContextTable, Event, EventLog, Trace, annotate_context
from kcpm.kg import KnowledgeGraph, TemporalTriple, Triple
from kcpm.lpg import build_lpg
from kcpm.variants import (VariantPartition, classify_log, load_model,
                           partition_to_csv, save_model, train_variant_model,
                           write_partition_json)

from conftest import T0, log_from_sequences
from oracles import naive_profile_classify


def cohort_log(n_per_class=12, seed=0):
    """Three cohorts whose context attribute determines an extra branch
    activity, mirroring care variants driven by patient profile."""
    rng = random.Random(seed)
    flows = {
        "effective": ["intake", "screen", "standard_course", "review", "done"],
        "preference": ["intake", "screen", "alt_course", "review", "done"],
        "supply": ["intake", "screen", "queue_wait", "review", "done"],
    }
    events, ctx_rows, labels = [], {}, {}
    i = 0
    for cls, flow in flows.items():
        for _ in range(n_per_class):
            case = f"c{i:03d}"
            i += 1
            base = T0 + timedelta(hours=i)
            seq = list(flow)
            if rng.random() < 0.3:  # shared optional activity, class-neutral
                seq.insert(2, "extra_labs")
            for j, act in enumerate(seq):
                events.append(Event(case, act, base + timedelta(minutes=j)))
            ctx_rows[case] = {"profile": cls}
            labels[case] = cls
    traces = {}
    for e in events:
        traces.setdefault(e.case_id, []).append(e)
    log = EventLog(tuple(Trace(c, tuple(evs)) for c, evs in traces.items()))
    log, _ = annotate_context(log, ContextTable(ctx_rows))
    return log, labels


KG_CLASSES = ("cardio", "neuro", "onco")


def kg_marker(k, i):
    """Marker activity i (0-9) of class k."""
    return f"drug{k}{i}"


def kg_cohort_log(markers, n_per_class=100, seed=0, prefix="k"):
    """Cases of the three KG_CLASSES, each with one marker activity of its
    class, drawn from the marker indices given, between activities that
    every class shares. Only the KG (kg_cohort_kg) ties a marker to its
    class."""
    rng = random.Random(seed)
    traces, labels = [], {}
    for k, cls in enumerate(KG_CLASSES):
        for _ in range(n_per_class):
            case = f"{prefix}{len(traces):04d}"
            seq = ["intake", kg_marker(k, rng.choice(markers)), "review",
                   "done"]
            if rng.random() < 0.3:  # shared optional activity, class-neutral
                seq.insert(1, "extra_labs")
            base = T0 + timedelta(hours=len(traces))
            traces.append(Trace(case, tuple(
                Event(case, act, base + timedelta(minutes=j))
                for j, act in enumerate(seq))))
            labels[case] = cls
    return EventLog(tuple(traces)), labels


def kg_cohort_kg():
    """<marker> category <class> for every marker, <class> subclass_of
    treatment, and a handled_by family that says nothing of the class:
    markers alternate between two units, and so do staff."""
    triples = []
    for k, cls in enumerate(KG_CLASSES):
        triples.append(Triple(cls, "subclass_of", "treatment"))
        for i in range(10):
            triples.append(Triple(kg_marker(k, i), "category", cls))
            triples.append(Triple(kg_marker(k, i), "handled_by",
                                  f"unit{i % 2}"))
    triples += [Triple(f"staff{s}", "handled_by", f"unit{s % 2}")
                for s in range(6)]
    return KnowledgeGraph(triples)


def trained(n_per_class=12):
    log, labels = cohort_log(n_per_class)
    graph = build_lpg(log, KnowledgeGraph())
    return log, labels, graph, train_variant_model(graph, labels)


def test_requires_two_classes_and_known_cases():
    log, labels = cohort_log(4)
    graph = build_lpg(log, KnowledgeGraph())
    with pytest.raises(DataError, match="two classes"):
        train_variant_model(graph, {c: "same" for c in labels})
    bad = dict(labels)
    bad["ghost-case"] = "effective"
    with pytest.raises(DataError, match="ghost-case"):
        train_variant_model(graph, bad)


def test_same_inputs_identical_checkpoints():
    log, labels = cohort_log(6)
    graph = build_lpg(log, KnowledgeGraph())
    reordered = dict(reversed(list(labels.items())))
    buf_a, buf_b = io.StringIO(), io.StringIO()
    save_model(train_variant_model(graph, labels), buf_a)
    save_model(train_variant_model(graph, reordered), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_profile_counts_and_loss():
    """Two classes of two labeled cases each: the profile counts each
    feature's cases per class, and the one loss is the mean -log of each
    case's own normalised score."""
    log = log_from_sequences([["a", "b"], ["a", "b"], ["a", "c"], ["c"],
                              ["b"]])
    graph = build_lpg(log, KnowledgeGraph([Triple("c", "is", "x")]))
    model = train_variant_model(graph, {"c0": "p", "c1": "p", "c2": "q",
                                        "c3": "q"})
    assert model.class_counts == {"p": 2, "q": 2}
    assert model.profiles == {
        "p": {"activity::a": 2, "activity::b": 2},
        "q": {"activity::a": 1, "c": 2, "x": 2}}
    # c0, c1: p = 2, q = 1/2; c2: p = 1, q = 5/2; c3: p = 0, q = 2
    want = (2 * -math.log(2 / 2.5) - math.log(2.5 / 3.5) - math.log(1)) / 4
    assert model.loss_history == pytest.approx((want,), rel=1e-15)


def test_scores_sum_to_one_and_training_accuracy():
    log, labels, graph, model = trained()
    partition = classify_log(model, graph)
    correct = 0
    for case_id, want in labels.items():
        scores = partition.scores[case_id]
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        if max(scores, key=scores.get) == want:
            correct += 1
    assert correct / len(labels) >= 0.95


def test_classify_partitions_log():
    log, labels, graph, model = trained(8)
    partition = classify_log(model, graph)
    cases = {t.case_id for t in log.traces}
    assert set(partition.assignment) == cases
    cells = [partition.cases_of(cid) for cid in model.class_ids()]
    assert frozenset().union(*cells) == cases
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            assert not (a & b)


def test_classify_single_case_log():
    log, labels, graph, model = trained(4)
    single = build_lpg(EventLog((log.traces[0],)), KnowledgeGraph())
    partition = classify_log(model, single)
    assert len(partition.assignment) == 1


def test_unseen_case_falls_back_to_prior_and_is_flagged():
    log, labels, graph, model = trained(4)
    alien = log_from_sequences([["never_seen_activity"]])
    merged = EventLog(log.traces + alien.traces)
    partition = classify_log(model, build_lpg(merged, KnowledgeGraph()))
    assert partition.prior_assigned == {"c0"}  # the alien case id
    assert partition.scores["c0"] == model.priors()


def test_exact_ties_go_to_the_least_class_id():
    """A case whose features every class profile holds alike scores the
    classes equally, and is assigned the least class id."""
    log = log_from_sequences([["a", "x"], ["a", "y"], ["a", "x"],
                              ["a", "y"], ["a"]])
    graph = build_lpg(log, KnowledgeGraph())
    model = train_variant_model(graph, {"c0": "zeta", "c1": "alpha",
                                        "c2": "zeta", "c3": "alpha"})
    partition = classify_log(model, graph)
    assert partition.scores["c4"] == {"alpha": 0.5, "zeta": 0.5}
    assert partition.assignment["c4"] == "alpha"
    assert partition.prior_assigned == frozenset()


def test_partition_argmax_invariant_enforced():
    """Also where two cases share one score map and only the second is
    misassigned."""
    with pytest.raises(ValueError):
        VariantPartition({"c": "wrong"},
                         {"c": {"right": 0.9, "wrong": 0.1}})
    shared = {"right": 0.9, "wrong": 0.1}
    with pytest.raises(ValueError, match="'c2' assigned 'wrong'"):
        VariantPartition({"c1": "right", "c2": "wrong"},
                         {"c1": shared, "c2": shared})


def test_argmax_tie_breaks_lexicographically():
    p = VariantPartition({"c": "alpha"}, {"c": {"alpha": 0.5, "beta": 0.5}})
    assert p.assignment["c"] == "alpha"


def test_permuting_trace_order_keeps_scores():
    log, labels, graph, model = trained(4)
    reversed_log = EventLog(tuple(reversed(log.traces)))
    p1 = classify_log(model, graph)
    p2 = classify_log(model, build_lpg(reversed_log, KnowledgeGraph()))
    assert p1.scores == p2.scores
    assert p1.assignment == p2.assignment


def test_checkpoint_round_trip():
    """A saved model loads back equal, and saves to the same bytes
    again."""
    _, _, _, model = trained(4)
    buf = io.StringIO()
    save_model(model, buf)
    again = load_model(io.StringIO(buf.getvalue()))
    assert again == model
    buf2 = io.StringIO()
    save_model(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def _checkpoint(**changes):
    payload = {"format": "kcpm-variant-profile", "version": 1,
               "class_counts": {"p": 2, "q": 1},
               "profiles": {"p": {"a": 2}, "q": {"a": 1, "b": 1}},
               "loss_history": [0.5]}
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("text, message", [
    ("not json\n", "variant profile checkpoint is not valid JSON"),
    ("[1, 2]\n", "not a variant profile checkpoint: None"),
    ('{"format": "other", "version": 1}\n',
     "not a variant profile checkpoint: 'other'"),
    ('{"format": "kcpm-variant-profile", "version": 99}\n',
     "unsupported checkpoint version 99"),
    ("", "variant profile checkpoint is not valid JSON"),
    ('{"version": 1}\n', "not a variant profile checkpoint: None"),
    ('{"format": "kcpm-variant-profile"}\n',
     "unsupported checkpoint version None"),
    ('{"format": "kcpm-variant-profile", "version": "1"}\n',
     "unsupported checkpoint version '1'"),
    (_checkpoint(format="kcpm-variant-model", version=2),
     "not a variant profile checkpoint: 'kcpm-variant-model'"),
    (_checkpoint(version=2), "unsupported checkpoint version 2"),
    (_checkpoint(class_counts={}), "class_counts must map class ids to "
                                   "positive counts"),
    (_checkpoint(class_counts={"p": 2, "q": 0}), "class_counts must map"),
    (_checkpoint(class_counts={"p": 2, "q": True}), "class_counts must map"),
    (_checkpoint(class_counts=[2, 1]), "class_counts must map"),
    (_checkpoint(profiles={"p": {"a": 2}}), "profiles must map each class"),
    (_checkpoint(profiles={"p": {"a": 3}, "q": {"a": 1}}),
     "profiles must map each class"),
    (_checkpoint(profiles={"p": {"a": 2}, "q": {"a": 0.5}}),
     "profiles must map each class"),
    (_checkpoint(profiles={"p": {"a": 2}, "q": [1]}),
     "profiles must map each class"),
    (_checkpoint(loss_history=["x"]), "loss_history is malformed"),
    (_checkpoint(loss_history=None), "loss_history is malformed"),
])
def test_bad_profile_checkpoint_is_data_error(text, message):
    with pytest.raises(DataError, match=re.escape(message)):
        load_model(io.StringIO(text))


def test_kg_cohort_lifts_unseen_markers_to_their_class():
    """Trained on markers 0-4 (100 cases a class, 70% labeled), the
    profile classifies held-out cases with seen markers, and cases with
    markers 5-9 that only the KG ties to a class, at accuracy >= 0.9."""
    kg = kg_cohort_kg()
    train, labels = kg_cohort_log(range(5), seed=0, prefix="t")
    cases = sorted(labels)
    labeled = {c: labels[c]
               for c in random.Random(1).sample(cases, k=len(cases) * 7 // 10)}
    model = train_variant_model(build_lpg(train, kg), labeled)
    for markers, seed, prefix in ((range(5), 2, "s"), (range(5, 10), 3, "u")):
        log, truth = kg_cohort_log(markers, n_per_class=50, seed=seed,
                                   prefix=prefix)
        partition = classify_log(model, build_lpg(log, kg))
        accuracy = sum(partition.assignment[c] == cls
                       for c, cls in truth.items()) / len(truth)
        assert accuracy >= 0.9, (prefix, accuracy)
        assert partition.prior_assigned == frozenset()


LABELS = ["a", "b", "c", "x", "e1", "activity::b"]
ENTITIES = ["a", "b", "x", "y", "e1", "e2", "k1", "k2", "activity::b"]
UNSEEN = "u"  # never in a training log, no entity and never aliased


def _traces(data, prefix, labels=LABELS, min_size=1):
    """min_size to 12 traces, each an ordering of one of up to 3 activity
    sequences, so that many cases share one set of activities."""
    pool = data.draw(st.lists(st.lists(st.sampled_from(labels), min_size=1,
                                       max_size=5), min_size=1, max_size=3))
    acts = data.draw(st.lists(st.sampled_from(pool).flatmap(st.permutations),
                              min_size=min_size, max_size=12))
    return EventLog(tuple(
        Trace(f"{prefix}{i}", tuple(Event(f"{prefix}{i}", a,
                                          T0 + timedelta(minutes=j))
                                    for j, a in enumerate(seq)))
        for i, seq in enumerate(acts)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_profiles_equal_the_per_case_fraction_oracle(data):
    """train_variant_model and classify_log on random logs, labels, KGs
    (with timestamp-only facts, and activities that are entities, or
    aliased onto entities or onto names the KG lacks) give the loss of
    naive_profile_classify, which scans the KG per case and scores in
    Fractions, and the variants.json and variants.csv of its partition,
    byte for byte. The cases of a log share a few activity sets, so the
    classifier shares one score map among many cases; some sets are
    unseen in training (prior fallback), and scores often tie."""
    train = _traces(data, "t", min_size=2)
    log = _traces(data, "h", [*LABELS, UNSEEN])
    cases = [t.case_id for t in train.traces]
    # the first two cases have two distinct classes, so every model trains
    classes = ["p", "q", "r"]
    labels = dict(zip(cases, data.draw(st.permutations(classes))[:2]))
    for case in cases[2:]:
        if data.draw(st.booleans()):
            labels[case] = data.draw(st.sampled_from(classes))
    alias = data.draw(st.dictionaries(st.sampled_from(LABELS),
                                      st.sampled_from(["e1", "e2", "zz"])))
    entity = st.sampled_from(ENTITIES)
    fact = st.builds(Triple, entity, st.sampled_from(["p", "q"]), entity)
    plain = data.draw(st.lists(fact, max_size=8))
    temporal = [TemporalTriple(t, T0) for t in
                data.draw(st.lists(fact, max_size=3))]
    kg = KnowledgeGraph(plain, temporal)
    try:
        train_graph, graph = build_lpg(train, kg, alias), build_lpg(log, kg,
                                                                    alias)
    except DataError:  # an entity named like an activity:: node of a log,
        reject()       # a refusal test_lpg.py checks against its oracle
    model = train_variant_model(train_graph, labels)
    got = classify_log(model, graph)
    assignment, scores, prior, loss = naive_profile_classify(
        train, labels, log, plain, temporal, alias)
    scores = {c: {cls: float(v) for cls, v in s.items()}
              for c, s in scores.items()}
    want = {"assignment": assignment, "scores": scores,
            "prior_assigned": sorted(prior)}
    buf = io.StringIO()
    write_partition_json(got, buf)
    assert buf.getvalue() == json.dumps(want, sort_keys=True) + "\n"
    buf = io.StringIO()
    partition_to_csv(got, buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    assert header == ["case_id", "class", *(f"score_{c}" for c in model.class_ids())]
    assert rows == [[c, assignment[c], *map(repr, scores[c].values())]
                    for c in sorted(assignment)]
    assert model.loss_history == pytest.approx((loss,), rel=1e-12)
