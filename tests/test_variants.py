import io
import random
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest

from kcpm import variants
from kcpm.errors import DataError
from kcpm.eventlog import ContextTable, Event, EventLog, Trace, annotate_context
from kcpm.kg import KnowledgeGraph
from kcpm.lpg import build_lpg
from kcpm.variants import (VariantParams, VariantPartition,
                           _attention_forward, _joint_backward, _joint_forward,
                           _pad, _scatter_layout, classify_log, load_model,
                           save_model, train_variant_model)

from conftest import T0, log_from_sequences
from oracles import (edge_score, per_row_joint_grads, reference_joint_backward,
                     reference_joint_forward, reference_scatter_layout)

FAST = VariantParams(dim=8, epochs=200, seed=0)


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


def trained(n_per_class=12):
    log, labels = cohort_log(n_per_class)
    lpg = build_lpg(log, KnowledgeGraph())
    model = train_variant_model(lpg, labels, FAST)
    return log, labels, lpg, model


def test_requires_two_classes_and_known_cases():
    log, labels = cohort_log(4)
    lpg = build_lpg(log, KnowledgeGraph())
    with pytest.raises(DataError, match="two classes"):
        train_variant_model(lpg, {c: "same" for c in labels}, FAST)
    bad = dict(labels)
    bad["ghost-case"] = "effective"
    with pytest.raises(DataError, match="ghost-case"):
        train_variant_model(lpg, bad, FAST)


def test_same_seed_identical_models():
    log, labels = cohort_log(6)
    lpg = build_lpg(log, KnowledgeGraph())
    a = train_variant_model(lpg, labels, FAST)
    b = train_variant_model(lpg, labels, FAST)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    save_model(a, buf_a)
    save_model(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_loss_history_nonincreasing():
    _, _, _, model = trained(6)
    losses = model.loss_history
    assert all(x >= y - 1e-12 for x, y in zip(losses, losses[1:]))
    smoothed = [sum(losses[i:i + 5]) / 5 for i in range(len(losses) - 4)]
    assert all(x >= y - 1e-12 for x, y in zip(smoothed, smoothed[1:]))


def test_scores_sum_to_one_and_training_accuracy():
    log, labels, lpg, model = trained()
    partition = classify_log(model, log)
    correct = 0
    for case_id, want in labels.items():
        scores = partition.scores[case_id]
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        if max(scores, key=scores.get) == want:
            correct += 1
    assert correct / len(labels) >= 0.95


def test_single_event_trace_attention_is_one():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(1, 1, 6))
    mask = np.ones((1, 1), dtype=bool)
    alpha, _, p = _attention_forward(V, _pad(mask), rng.normal(size=(3, 6)),
                                     rng.normal(size=(6, 6)))
    assert alpha[0, 0] == pytest.approx(np.ones(3))
    assert p[0].sum() == pytest.approx(1.0)


def test_classify_partitions_log():
    log, labels, lpg, model = trained(8)
    partition = classify_log(model, log)
    cases = {t.case_id for t in log.traces}
    assert set(partition.assignment) == cases
    cells = [partition.cases_of(cid) for cid in model.class_ids()]
    assert frozenset().union(*cells) == cases
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            assert not (a & b)


def test_classify_single_case_log():
    log, labels, lpg, model = trained(4)
    single = EventLog((log.traces[0],))
    partition = classify_log(model, single)
    assert len(partition.assignment) == 1


def test_unseen_case_falls_back_to_prior_and_is_flagged():
    log, labels, lpg, model = trained(4)
    alien = log_from_sequences([["never_seen_activity"]])
    merged = EventLog(log.traces + alien.traces)
    partition = classify_log(model, merged)
    assert "c0" in partition.prior_assigned  # the alien case id
    assert partition.scores["c0"] == model.priors()


def test_partition_argmax_invariant_enforced():
    with pytest.raises(ValueError):
        VariantPartition({"c": "wrong"},
                         {"c": {"right": 0.9, "wrong": 0.1}})


def test_argmax_tie_breaks_lexicographically():
    p = VariantPartition({"c": "alpha"}, {"c": {"alpha": 0.5, "beta": 0.5}})
    assert p.assignment["c"] == "alpha"


def test_permuting_trace_order_keeps_scores():
    log, labels, lpg, model = trained(4)
    reversed_log = EventLog(tuple(reversed(log.traces)))
    p1 = classify_log(model, log)
    p2 = classify_log(model, reversed_log)
    assert p1.scores == p2.scores
    assert p1.assignment == p2.assignment


def test_checkpoint_round_trip():
    """A saved model loads back with bit-equal, writable arrays, and
    saves to the same bytes again."""
    _, _, _, model = trained(4)
    buf = io.StringIO()
    save_model(model, buf)
    again = load_model(io.StringIO(buf.getvalue()))
    for key in ("entity_vecs", "entity_proj", "relation_vecs",
                "relation_proj", "class_vecs", "attention"):
        got, want = getattr(again, key), getattr(model, key)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and got.flags.writeable
    buf2 = io.StringIO()
    save_model(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_per_row_gradients_train_the_same_model():
    """Training with the per-row reference gradient runs as many epochs,
    on the same loss curve up to rounding, and classifies every case
    alike."""
    log, labels = cohort_log()
    lpg = build_lpg(log, KnowledgeGraph())

    def per_row(E, Ep, R, Rp, U, A, edges, ce_data, layout, cache, w_s, w_l):
        grads, _ = per_row_joint_grads(E, Ep, R, Rp, U, A, edges, ce_data,
                                       FAST.margin, w_s, w_l)
        return grads

    model = train_variant_model(lpg, labels, FAST)
    with mock.patch.object(variants, "_joint_backward", per_row):
        ref = train_variant_model(lpg, labels, FAST)
    assert len(model.loss_history) == len(ref.loss_history)
    np.testing.assert_allclose(model.loss_history, ref.loss_history,
                               rtol=1e-12, atol=0)
    got, want = classify_log(model, log), classify_log(ref, log)
    assert got.assignment == want.assignment
    assert got.prior_assigned == want.prior_assigned


def test_reference_kernel_trains_the_same_model():
    """Training with the kernel that forms every residual vector and
    scatters one row per pair runs as many epochs, on the same loss curve
    up to rounding, and classifies every case alike."""
    log, labels = cohort_log()
    lpg = build_lpg(log, KnowledgeGraph())

    def reference_backward(E, Ep, R, Rp, U, A, edges, ce_data, layout, cache,
                           w_s, w_l):
        layout = reference_scatter_layout(E.shape[1], edges, ce_data[0])
        return reference_joint_backward(E, Ep, R, Rp, U, A, edges, ce_data,
                                        layout, cache, w_s, w_l)

    model = train_variant_model(lpg, labels, FAST)
    with mock.patch.object(variants, "_joint_forward",
                           reference_joint_forward), \
            mock.patch.object(variants, "_joint_backward", reference_backward):
        ref = train_variant_model(lpg, labels, FAST)
    assert len(model.loss_history) == len(ref.loss_history)
    np.testing.assert_allclose(model.loss_history, ref.loss_history,
                               rtol=1e-12, atol=0)
    got, want = classify_log(model, log), classify_log(ref, log)
    assert got.assignment == want.assignment
    assert got.prior_assigned == want.prior_assigned


def test_joint_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    n, dim, n_rel, n_classes = 7, 5, 3, 2
    E = rng.normal(size=(n, dim)) * 0.4
    Ep = rng.normal(size=(n, dim)) * 0.2
    R = rng.normal(size=(n_rel, dim)) * 0.4
    Rp = rng.normal(size=(n_rel, dim)) * 0.2
    U = rng.normal(size=(n_classes, dim)) * 0.4
    A = rng.normal(size=(dim, dim)) * 0.3
    rows = 9
    # column 0 of the tails is the true tail, the rest corrupted ones
    edges = (rng.integers(0, n, rows), rng.integers(0, n_rel, rows),
             np.column_stack([rng.integers(0, n, rows),
                              rng.integers(0, n, size=(rows, 2))]))
    m, k = 4, 3
    idx = rng.integers(0, n, size=(m, k))
    mask = np.ones((m, k), dtype=bool)
    mask[1, 2] = mask[3, 1] = mask[3, 2] = False
    labels = rng.integers(0, n_classes, m)
    Y = np.zeros((m, n_classes))
    Y[np.arange(m), labels] = 1.0
    ce_data = (idx, mask, labels, Y)
    layout = _scatter_layout(E, Rp, edges, ce_data)
    args = (edges, ce_data, layout, 1.0, 1.0, 1.0)

    _, cache = _joint_forward(E, Ep, R, Rp, U, A, *args)
    grads = _joint_backward(E, Ep, R, Rp, U, A, edges, ce_data, layout, cache,
                            1.0, 1.0)
    arrays = (E, Ep, R, Rp, U, A)
    eps = 1e-6
    for array, grad in zip(arrays, grads):
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for j in rng.choice(flat.size, size=min(15, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + eps
            up = _joint_forward(E, Ep, R, Rp, U, A, *args)[0]
            flat[j] = orig - eps
            down = _joint_forward(E, Ep, R, Rp, U, A, *args)[0]
            flat[j] = orig
            numeric = (up - down) / (2 * eps)
            assert gflat[j] == pytest.approx(numeric, abs=2e-4), \
                f"array {arrays.index(array)} component {j}"


def test_held_out_edge_ranking_beats_random():
    # toy graph with cluster regularity: patients point at their team, and
    # the team determines the ward; a fifth of the ward edges are hidden
    # from training and must be recovered by ranking
    from kcpm.lpg import FusedGraph

    rng = random.Random(0)
    teams = [f"team{i}" for i in range(3)]
    wards = [f"ward{i}" for i in range(3)]
    triples, ward_edges = [], []
    for i in range(60):
        p = f"patient{i:02d}"
        triples.append((p, "in_team", teams[i % 3]))
        ward_edges.append((p, "treated_in", wards[i % 3]))
    held_idx = set(rng.sample(range(len(ward_edges)), k=12))
    for c in ("one", "two"):
        for i in range(2):
            ev = f"event::{c}::{i}"
            triples.append((ev, "BELONGS_TO", f"case::{c}"))
            triples.append((ev, "INSTANCE_OF", teams[i]))
    triples += [e for i, e in enumerate(ward_edges) if i not in held_idx]
    nodes = tuple(sorted({n for h, _, t in triples for n in (h, t)}))
    relations = tuple(sorted({r for _, r, _ in triples}))
    row = {n: i for i, n in enumerate(nodes)}
    g = FusedGraph(
        nodes, relations,
        [(row[h], relations.index(r), row[t]) for h, r, t in triples],
        {c: [row[f"event::{c}::{i}"] for i in range(2)] for c in ("one", "two")})

    model = train_variant_model(g, {"one": "alpha", "two": "beta"},
                                VariantParams(dim=8, epochs=300, negatives=8,
                                              seed=1))
    candidates = sorted(g.nodes)
    hits = 0
    for i in sorted(held_idx):
        s, r, t = ward_edges[i]
        ranked = sorted(candidates, key=lambda n: edge_score(model, s, r, n),
                        reverse=True)
        hits += t in ranked[:3]
    hits_at_3 = hits / len(held_idx)
    assert hits_at_3 >= 2 * (3 / len(candidates))


def test_argmax_unchanged_by_positive_logit_scaling():
    rng = np.random.default_rng(8)
    for _ in range(200):
        V = rng.normal(size=(1, 4, 6))
        mask = np.ones((1, 4), dtype=bool)
        U = rng.normal(size=(3, 6))
        A = rng.normal(size=(6, 6))
        _, diff, p = _attention_forward(V, _pad(mask), U, A)
        s = -(diff ** 2).sum(axis=2)
        scale = float(rng.uniform(0.1, 10.0))
        scaled = np.exp(scale * s - (scale * s).max())
        scaled /= scaled.sum()
        assert int(np.argmax(p[0])) == int(np.argmax(scaled[0]))
