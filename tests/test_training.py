"""The shared training plumbing: distinct-row hinge loss and gradients,
the bincount scatter and the variant gradients against per-row
references, the fused descent against the two-call loop, batched variant
scoring against per-case scoring, and the checkpoint header check."""
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcpm import temporal, variants
from kcpm._training import scatter_rows
from kcpm.errors import DataError
from kcpm.eventlog import EventLog
from kcpm.kg import KnowledgeGraph
from kcpm.lpg import build_lpg
from kcpm.temporal import (_distinct_batch, _hinge_backward, _hinge_forward,
                           df_training_triples, load_scorer)
from kcpm.variants import (CohortClass, VariantModel, VariantParams,
                           _joint_backward, _joint_forward, classify_log,
                           load_model, score_trace)

from conftest import log_from_sequences
from oracles import (add_at_scatter, per_case_classify, per_row_hinge_grads,
                     per_row_hinge_loss, per_row_joint_grads, two_call_descend)

SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcde"), min_size=2, max_size=12),
                     min_size=1, max_size=8),
       k=st.integers(1, 5), n_buckets=st.integers(1, 4), seed=SEEDS,
       spread=st.sampled_from([0.05, 0.5, 2.0]))
@example(seqs=[["a", "b"], ["a", "a"]], k=1, n_buckets=1, seed=0, spread=0.05)
def test_distinct_rows_match_per_row_hinge(seqs, k, n_buckets, seed, spread):
    log = log_from_sequences(seqs, step_seconds=3600 * 5)
    triples = df_training_triples(log, KnowledgeGraph(), n_buckets)
    vocab = sorted({a for a, _, _ in triples} | {b for _, b, _ in triples})
    if len(vocab) < 2:
        return
    index = {a: i for i, a in enumerate(vocab)}
    heads = np.array([index[a] for a, _, _ in triples])
    tails = np.array([index[b] for _, b, _ in triples])
    buckets = np.array([c for _, _, c in triples])
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, len(vocab) - 1, size=(len(triples), k))
    neg_tails = raw + (raw >= tails[:, None])
    E = rng.normal(size=(len(vocab), 4)) * spread
    r = rng.normal(size=4) * spread
    T = rng.normal(size=(n_buckets, 4)) * spread
    margin = 1.0

    batch = _distinct_batch(heads, tails, buckets, neg_tails)
    assert batch.pair_count.sum() == len(triples) * k
    ref_loss = per_row_hinge_loss(E, r, T, heads, tails, buckets, neg_tails,
                                  margin)
    loss, cache = _hinge_forward(E, r, T, batch, margin)
    assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
    ref, ref_abs = per_row_hinge_grads(E, r, T, heads, tails, buckets,
                                       neg_tails, margin)
    for g, g_ref, g_abs in zip(_hinge_backward(E, r, T, batch, cache), ref,
                               ref_abs):
        assert g.shape == g_ref.shape
        # relative to the summed terms' size, not to their sum, which is
        # rounding residue where the terms cancel
        assert np.linalg.norm(g - g_ref) <= 1e-9 * np.linalg.norm(g_abs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), dim=st.integers(1, 4),
       idx=st.lists(st.integers(0, 5), max_size=40), data=st.data())
def test_scatter_is_bitwise_add_at(n, dim, idx, data):
    idx = [i % n for i in idx]
    values = data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        min_size=len(idx) * dim, max_size=len(idx) * dim))
    rows = np.array(values, dtype=float).reshape(len(idx), dim)
    out = scatter_rows(n, np.array(idx, dtype=int), rows)
    assert out.tobytes() == add_at_scatter(n, idx, rows).tobytes()


def test_scatter_repeated_and_empty_indices():
    rows = np.array([[1e16], [1.0], [-1e16], [1.0]])
    # sequential order matters here: ((1e16 + 1) - 1e16) + 1 == 1.0
    out = scatter_rows(1, np.zeros(4, dtype=int), rows)
    assert out.tobytes() == add_at_scatter(1, [0, 0, 0, 0], rows).tobytes()
    assert out[0, 0] == 1.0
    empty = scatter_rows(3, np.array([], dtype=int), np.zeros((0, 2)))
    assert empty.shape == (3, 2) and not empty.any()
    assert not np.signbit(empty).any()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), dim=st.integers(2, 5), n_rel=st.integers(1, 3),
       n_classes=st.integers(2, 3), rows=st.integers(0, 12), k=st.integers(1, 3),
       m=st.integers(1, 5), width=st.integers(1, 4), seed=SEEDS,
       margin=st.sampled_from([0.1, 1.0, 5.0]))
# no edges; every negative violating the margin; none violating it
@example(n=3, dim=2, n_rel=1, n_classes=2, rows=0, k=2, m=2, width=2, seed=0,
         margin=1.0)
@example(n=6, dim=3, n_rel=2, n_classes=2, rows=10, k=3, m=3, width=3, seed=1,
         margin=1e6)
@example(n=6, dim=3, n_rel=2, n_classes=3, rows=10, k=3, m=3, width=3, seed=2,
         margin=-1e6)
def test_variant_grads_equal_add_at_reference(n, dim, n_rel, n_classes, rows, k,
                                              m, width, seed, margin):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(n, dim)) * 0.4
    Ep = rng.normal(size=(n, dim)) * 0.2
    R = rng.normal(size=(n_rel, dim)) * 0.4
    Rp = rng.normal(size=(n_rel, dim)) * 0.2
    U = rng.normal(size=(n_classes, dim)) * 0.4
    A = rng.normal(size=(dim, dim)) * 0.3
    # column 0 of the tails is the true tail, the rest corrupted ones
    edges = (rng.integers(0, n, rows), rng.integers(0, n_rel, rows),
             rng.integers(0, n, size=(rows, 1 + k)))
    idx = rng.integers(0, n, size=(m, width))
    mask = np.ones((m, width), dtype=bool)
    lengths = rng.integers(1, width + 1, m)
    for i, length in enumerate(lengths):
        mask[i, length:] = False
    labels = rng.integers(0, n_classes, m)
    Y = np.zeros((m, n_classes))
    Y[np.arange(m), labels] = 1.0
    ce_data = (idx, mask, labels, Y)
    args = (edges, ce_data, margin, 1.0, 1.0)
    _, cache = _joint_forward(E, Ep, R, Rp, U, A, *args)
    got = _joint_backward(E, Ep, R, Rp, U, A, edges, ce_data, cache, 1.0, 1.0)
    want, sizes = per_row_joint_grads(E, Ep, R, Rp, U, A, *args)
    for g, g_ref, g_abs in zip(got, want, sizes):
        assert g.shape == g_ref.shape
        # the sums are taken in another order: equal up to rounding,
        # relative to the size of the summed terms
        assert np.linalg.norm(g - g_ref) <= 1e-9 * np.linalg.norm(g_abs)


def via_two_call(params, forward, backward, learning_rate, epochs,
                 project=None):
    """descend's signature, run by the two-call loop."""
    return two_call_descend(params, lambda p: forward(p)[0],
                            lambda p: backward(p, forward(p)[1]),
                            learning_rate, epochs, project)


def trained_both_ways(module, train):
    fused = train()
    with mock.patch.object(module, "descend", via_two_call):
        two_call = train()
    return fused, two_call


@settings(max_examples=25, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
                     min_size=2, max_size=6),
       dim=st.integers(2, 6), epochs=st.integers(1, 12), k=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_fused_descent_takes_the_two_call_steps(seqs, dim, epochs, k, seed):
    log = log_from_sequences(seqs, step_seconds=3600 * 3)
    # the scorer needs two activities among its directly-follows pairs
    if len({a for s in seqs for pair in zip(s, s[1:]) for a in pair}) >= 2:
        params = temporal.ScorerParams(dim=dim, epochs=epochs, negatives=k,
                                       time_buckets=4, seed=seed)
        fused, two_call = trained_both_ways(
            temporal, lambda: temporal.train_temporal_scorer(log, None, params))
        for attr in ("entity_vecs", "relation_vec", "time_vecs"):
            assert (getattr(fused, attr).tobytes()
                    == getattr(two_call, attr).tobytes())
        assert fused.loss_history == two_call.loss_history

    labels = {t.case_id: "xy"[i % 2] for i, t in enumerate(log.traces)}
    vparams = VariantParams(dim=dim, epochs=epochs, negatives=k, seed=seed)
    graph = build_lpg(log, KnowledgeGraph())
    fused, two_call = trained_both_ways(
        variants, lambda: variants.train_variant_model(graph, labels, vparams))
    for attr in ("entity_vecs", "entity_proj", "relation_vecs",
                 "relation_proj", "class_vecs", "attention"):
        assert getattr(fused, attr).tobytes() == getattr(two_call, attr).tobytes()
    assert fused.loss_history == two_call.loss_history


@settings(max_examples=60, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcdxy"), min_size=1, max_size=13),
                     min_size=1, max_size=12),
       data=st.data(), dim=st.integers(2, 6), n_classes=st.integers(2, 3),
       batch=st.integers(1, 5), seed=SEEDS)
def test_batched_scores_equal_per_case_scores(seqs, data, dim, n_classes,
                                              batch, seed):
    """Activities x and y are unknown to the model, event nodes outside it
    fall back to their activity node, and the cases not kept are absent
    from the graph. Small batch sizes split the cases over several
    padded passes."""
    log = log_from_sequences(seqs)
    keep = data.draw(st.lists(st.booleans(), min_size=len(seqs),
                              max_size=len(seqs)))
    kept = tuple(t for t, k in zip(log.traces, keep) if k)
    graph = build_lpg(EventLog(kept), KnowledgeGraph())
    events = sorted(n for n in graph.nodes if n.startswith("event::"))
    known_events = data.draw(st.sets(st.sampled_from(events)) if events
                             else st.just(set()))
    nodes = tuple(sorted({f"activity::{a}" for a in "abcd"} | known_events))
    rng = np.random.default_rng(seed)
    classes = tuple(CohortClass(f"k{i}") for i in range(n_classes))
    model = VariantModel(
        nodes, rng.normal(size=(len(nodes), dim)), np.zeros((len(nodes), dim)),
        (), np.zeros((0, dim)), np.zeros((0, dim)), classes,
        rng.normal(size=(n_classes, dim)), rng.normal(size=(dim, dim)),
        {c.id: i + 1 for i, c in enumerate(classes)}, VariantParams(dim=dim))

    with mock.patch.object(variants, "_SCORE_BATCH", batch):
        got = classify_log(model, graph, log)
    assignment, scores, prior = per_case_classify(model, graph, log)
    assert got.assignment == assignment
    assert got.prior_assigned == prior
    assert list(got.scores) == list(scores)
    for case_id, want in scores.items():
        assert list(got.scores[case_id]) == list(want)
        assert (np.array(list(got.scores[case_id].values())).tobytes()
                == np.array(list(want.values())).tobytes())
    for t in kept:
        assert score_trace(model, graph, t.case_id) == scores[t.case_id]


@pytest.mark.parametrize("load, kind", [(load_scorer, "temporal scorer"),
                                        (load_model, "variant model")])
@pytest.mark.parametrize("text, message", [
    ("not json\n", "checkpoint is not valid JSON"),
    ("[1, 2]\n", "checkpoint: None"),
    ('{"format": "other", "version": 1}\n', "checkpoint: 'other'"),
])
def test_bad_checkpoint_is_data_error(load, kind, text, message):
    with pytest.raises(DataError, match=message) as exc:
        load(io.StringIO(text))
    assert kind in str(exc.value)


def test_unsupported_checkpoint_version():
    text = '{"format": "kcpm-variant-model", "version": 99}\n'
    with pytest.raises(DataError, match="unsupported checkpoint version 99"):
        load_model(io.StringIO(text))
