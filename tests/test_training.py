"""The shared training plumbing: distinct-row hinge loss and gradients,
the bincount scatter and the variant gradients against per-row
references, the fused descent against the two-call loop and the lifetime
of its caches, batched variant scoring against per-case scoring, and the
checkpoint header and array checks."""
import io
import json
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcpm import temporal, variants
from kcpm._training import (descend, encode_array, row_cells, scatter_cells,
                            scatter_rows)
from kcpm.errors import DataError
from kcpm.kg import KnowledgeGraph, Triple
from kcpm.lpg import build_lpg, event_node_id
from kcpm.temporal import (_distinct_batch, _hinge_backward, _hinge_forward,
                           df_training_triples, load_scorer)
from kcpm.variants import (CohortClass, VariantModel, VariantParams,
                           _joint_backward, _joint_forward, _scatter_layout,
                           classify_log, load_model)

from conftest import log_from_sequences
from oracles import (add_at_scatter, einsum_attention_forward,
                     per_case_classify, per_row_hinge_grads,
                     per_row_hinge_loss, per_row_joint_grads,
                     per_row_joint_loss, two_call_descend)

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


def scatters(n, idx, rows, zero):
    """scatter_rows on the rows zero leaves; scatter_cells on every row,
    through one cell index built beforehand as a training builds it, with
    each row zero marks multiplied by 0.0, as a non-violating pair's row
    is; and np.add.at on the rows zero leaves. The zero rows change no
    sum, so the three agree bit for bit."""
    idx = np.asarray(idx, dtype=np.intp)
    zero = np.asarray(zero, dtype=bool)
    cells = row_cells(idx, rows.shape[1])
    kept = rows[~zero]
    return (scatter_rows(n, idx[~zero], kept),
            scatter_cells(n, cells, rows * np.where(zero, 0.0, 1.0)[:, None]),
            add_at_scatter(n, idx[~zero], kept))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), dim=st.integers(1, 4),
       idx=st.lists(st.integers(0, 5), max_size=40), data=st.data())
def test_scatter_is_bitwise_add_at(n, dim, idx, data):
    idx = [i % n for i in idx]
    values = data.draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
        min_size=len(idx) * dim, max_size=len(idx) * dim))
    zero = data.draw(st.lists(st.booleans(), min_size=len(idx),
                              max_size=len(idx)))
    rows = np.array(values, dtype=float).reshape(len(idx), dim)
    *got, want = scatters(n, idx, rows, zero)
    for out in got:
        assert out.tobytes() == want.tobytes()


def test_scatter_repeated_and_empty_indices():
    rows = np.array([[1e16], [1.0], [-5.0], [-1e16], [3.0], [1.0]])
    # sequential order matters here: ((1e16 + 1) - 1e16) + 1 == 1.0, and
    # the zeroed rows, -0.0 and 0.0, leave it so
    zero = [False, False, True, False, True, False]
    *got, want = scatters(1, [0] * 6, rows, zero)
    assert want[0, 0] == 1.0
    for out in got:
        assert out.tobytes() == want.tobytes()
    empty = scatters(3, [], np.zeros((0, 2)), [])
    only_zeros = scatters(3, [1, 1], np.array([[-1.0, 2.0], [-3.0, -4.0]]),
                          [True, True])
    for out in (*empty, *only_zeros):
        assert out.shape == (3, 2) and not out.any()
        assert not np.signbit(out).any()


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
# every case's events are one node: dz is 0 up to rounding
@example(n=2, dim=2, n_rel=2, n_classes=2, rows=3, k=3, m=3, width=3, seed=3,
         margin=0.1)
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
    layout = _scatter_layout(E, Rp, edges, ce_data)
    _, cache = _joint_forward(E, Ep, R, Rp, U, A, edges, ce_data, layout,
                              margin, 1.0, 1.0)
    got = _joint_backward(E, Ep, R, Rp, U, A, edges, ce_data, layout, cache,
                          1.0, 1.0)
    want, sizes = per_row_joint_grads(E, Ep, R, Rp, U, A, *args)
    for g, g_ref, g_abs in zip(got, want, sizes):
        assert g.shape == g_ref.shape
        # the sums are taken in another order: equal up to rounding,
        # relative to the size of the summed terms
        assert np.linalg.norm(g - g_ref) <= 1e-9 * np.linalg.norm(g_abs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), dim=st.integers(2, 5), n_rel=st.integers(1, 3),
       n_classes=st.integers(2, 3), rows=st.integers(0, 12), k=st.integers(1, 3),
       m=st.integers(1, 5), width=st.integers(1, 4), seed=SEEDS,
       margin=st.sampled_from([0.1, 1.0, 5.0]))
# the examples of test_variant_grads_equal_add_at_reference: no edges;
# every negative violating the margin; none violating it
@example(n=3, dim=2, n_rel=1, n_classes=2, rows=0, k=2, m=2, width=2, seed=0,
         margin=1.0)
@example(n=6, dim=3, n_rel=2, n_classes=2, rows=10, k=3, m=3, width=3, seed=1,
         margin=1e6)
@example(n=6, dim=3, n_rel=2, n_classes=3, rows=10, k=3, m=3, width=3, seed=2,
         margin=-1e6)
def test_variant_loss_equals_per_row_loss(n, dim, n_rel, n_classes, rows, k,
                                          m, width, seed, margin):
    """The loss from the expanded squared norms equals the loss from one
    residual vector per (edge, tail) row, up to rounding; the problem is
    drawn as the gradient test above draws it."""
    rng = np.random.default_rng(seed)
    params = tuple(rng.normal(size=shape) * scale for shape, scale in (
        ((n, dim), 0.4), ((n, dim), 0.2), ((n_rel, dim), 0.4),
        ((n_rel, dim), 0.2), ((n_classes, dim), 0.4), ((dim, dim), 0.3)))
    edges = (rng.integers(0, n, rows), rng.integers(0, n_rel, rows),
             rng.integers(0, n, size=(rows, 1 + k)))
    idx = rng.integers(0, n, size=(m, width))
    mask = np.arange(width) < rng.integers(1, width + 1, m)[:, None]
    labels = rng.integers(0, n_classes, m)
    ce_data = (idx, mask, labels, np.eye(n_classes)[labels])
    got, _ = _joint_forward(*params, edges, ce_data,
                            _scatter_layout(params[0], params[3], edges, ce_data),
                            margin, 1.0, 1.0)
    want = per_row_joint_loss(*params, edges, ce_data, margin, 1.0, 1.0)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("cls", [VariantParams, temporal.ScorerParams])
@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", 0.0, "learning_rate must be finite and > 0"),
    ("learning_rate", float("nan"), "learning_rate must be finite and > 0"),
    ("learning_rate", float("inf"), "learning_rate must be finite and > 0"),
    ("margin", float("nan"), "margin must be finite"),
    ("margin", float("-inf"), "margin must be finite"),
    ("negatives", 0, "negatives must be >= 1"),
])
def test_descent_params_reject_what_cannot_train(cls, field, value, message):
    with pytest.raises(ValueError, match=message):
        cls(**{field: value})


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


class _Cache:
    """A stub forward's cache: the gradient its backward returns."""

    def __init__(self, grad):
        self.grad = grad


def _weakref_stub(uphill_epoch: int):
    """forward and backward of sum(x^2) whose caches are weakly tracked.
    forward asserts that no cache it made earlier is alive; backward
    returns the uphill gradient -2x at its uphill_epoch-th call, along
    which every step raises the loss."""
    caches = []
    backward_calls = []

    def forward(params):
        alive = [i for i, ref in enumerate(caches) if ref() is not None]
        assert not alive, f"caches {alive} of {len(caches)} still alive"
        (x,) = params
        cache = _Cache(2.0 * x)
        caches.append(weakref.ref(cache))
        return float(x @ x), cache

    def backward(params, cache):
        backward_calls.append(None)
        sign = -1.0 if len(backward_calls) == uphill_epoch else 1.0
        return (sign * cache.grad,)

    return forward, backward, caches


def test_descent_holds_one_cache_at_a_time():
    """At every forward call, no cache made earlier is alive: not the
    one backward consumed, nor a rejected candidate's. The run has
    rejected candidates (a step of 5 overshoots sum(x^2) until halved to
    0.625) and an epoch whose 20 steps all fail, after which the next
    epoch takes forward(params) again; it takes the steps of the
    two-call loop."""
    x0 = (np.array([1.0, -2.0, 0.5]),)
    forward, backward, caches = _weakref_stub(uphill_epoch=3)
    params, history = descend(x0, forward, backward, 5.0, 6)

    ref_forward, ref_backward, _ = _weakref_stub(uphill_epoch=3)
    want_params, want_history = via_two_call(x0, ref_forward, ref_backward,
                                             5.0, 6)
    assert params[0].tobytes() == want_params[0].tobytes()
    assert history == want_history
    assert history[2] == history[1]  # the uphill epoch took no step
    assert history[3] < history[2]
    # the initial forward; 3 rejected and 1 accepted candidate in epoch
    # 1; 1 in epoch 2; 20 rejected in epoch 3; the re-forward and 1
    # candidate in epoch 4; 1 each in epochs 5 and 6
    assert len(caches) == 1 + 4 + 1 + 20 + 2 + 1 + 1


@settings(max_examples=60, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcdxy"), min_size=1, max_size=13),
                     min_size=1, max_size=12),
       data=st.data(), dim=st.integers(2, 6), n_classes=st.integers(2, 3),
       batch=st.integers(1, 5), seed=SEEDS)
def test_batched_scores_equal_per_case_scores(seqs, data, dim, n_classes,
                                              batch, seed):
    """The model knows the activity nodes of a to d, the KG entities a, x
    and e1, and some event nodes. An event node outside the model falls
    back to its activity node, which is a KG entity when the activity's
    alias, or else its own label, is one. So some activities resolve to
    entity nodes, and a case whose every event resolves to a node the
    model does not know (activity y, entity e2) gets the prior. Small
    batch sizes split the cases over several padded passes, which change
    no bit of what the same attention pass gives each case on its own;
    and that pass gives the einsum form's scores up to rounding."""
    log = log_from_sequences(seqs)
    entities = data.draw(st.sets(st.sampled_from(["a", "c", "x", "e1", "e2"])))
    kg = KnowledgeGraph(Triple(e, "related_to", e) for e in entities)
    alias = data.draw(st.dictionaries(st.sampled_from("abcdxy"),
                                      st.sampled_from(["e1", "e2", "zz"])))
    events = [event_node_id(t.case_id, i)
              for t in log.traces for i in range(len(t.events))]
    known_events = data.draw(st.sets(st.sampled_from(events)))
    nodes = tuple(sorted({f"activity::{a}" for a in "abcd"} | {"a", "x", "e1"}
                         | known_events))
    rng = np.random.default_rng(seed)
    classes = tuple(CohortClass(f"k{i}") for i in range(n_classes))
    model = VariantModel(
        nodes, rng.normal(size=(len(nodes), dim)), np.zeros((len(nodes), dim)),
        (), np.zeros((0, dim)), np.zeros((0, dim)), classes,
        rng.normal(size=(n_classes, dim)), rng.normal(size=(dim, dim)),
        {c.id: i + 1 for i, c in enumerate(classes)}, VariantParams(dim=dim))

    with mock.patch.object(variants, "_SCORE_BATCH", batch):
        got = classify_log(model, log, kg.entities, alias)
    assignment, scores, prior = per_case_classify(
        model, log, kg, alias, lambda V, mask, U, A: variants._attention_forward(
            V, variants._pad(mask), U, A))
    assert got.assignment == assignment
    assert got.prior_assigned == prior
    assert list(got.scores) == list(scores)
    for case_id, want in scores.items():
        assert list(got.scores[case_id]) == list(want)
        assert (np.array(list(got.scores[case_id].values())).tobytes()
                == np.array(list(want.values())).tobytes())
    einsum_assignment, einsum_scores, _ = per_case_classify(model, log, kg,
                                                            alias)
    assert einsum_assignment == assignment
    for case_id, want in einsum_scores.items():
        np.testing.assert_allclose(list(scores[case_id].values()),
                                   list(want.values()), rtol=1e-12, atol=0)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 6), k=st.integers(1, 8), dim=st.integers(2, 6),
       n_classes=st.integers(2, 5), batch=st.integers(1, 4), seed=SEEDS,
       share=st.floats(0.0, 1.0))
def test_attention_equals_the_einsum_form(m, k, dim, n_classes, batch, seed,
                                          share):
    """The attention pass as training runs it (on a random event mask
    that keeps at least one event per case) and as _class_scores runs it
    (on padded batches of cases) equals einsum_attention_forward at rtol
    1e-12. The pooled vector minus the class vector can cancel, so its
    error is taken relative to the size of its terms."""
    rng = np.random.default_rng(seed)
    n = 7
    E = rng.normal(size=(n, dim))
    U = rng.normal(size=(n_classes, dim))
    A = rng.normal(size=(dim, dim)) * 0.5
    idx = rng.integers(0, n, size=(m, k))
    mask = rng.random((m, k)) < share
    mask[np.arange(m), rng.integers(0, k, m)] = True
    labels = rng.integers(0, n_classes, m)
    ce_data = (idx, mask, labels, np.eye(n_classes)[labels])
    edges = (rng.integers(0, n, 3), rng.integers(0, 2, 3),
             rng.integers(0, n, size=(3, 2)))
    params = (E, rng.normal(size=(n, dim)) * 0.2, rng.normal(size=(2, dim)),
              rng.normal(size=(2, dim)) * 0.2, U, A)
    layout = _scatter_layout(E, params[3], edges, ce_data)
    _, cache = _joint_forward(*params, edges, ce_data, layout, 1.0, 1.0, 1.0)
    alpha, diff, p = cache[-3:]
    V = E[idx] * mask[:, :, None]
    want_alpha, want_diff, want_p = einsum_attention_forward(V, mask, U, A)
    np.testing.assert_allclose(alpha, want_alpha, rtol=1e-12, atol=0)
    np.testing.assert_allclose(p, want_p, rtol=1e-12, atol=0)
    size = np.einsum("mkc,mkd->mcd", want_alpha, np.abs(V)) + np.abs(U)
    assert np.all(np.abs(diff - want_diff) <= 1e-12 * size)

    case_nodes = [list(rng.integers(0, n, rng.integers(1, k + 1)))
                  for _ in range(m)]
    classes = tuple(CohortClass(f"k{i}") for i in range(n_classes))
    model = VariantModel(
        tuple(f"n{i}" for i in range(n)), E, np.zeros((n, dim)), (),
        np.zeros((0, dim)), np.zeros((0, dim)), classes, U, A,
        {c.id: 1 for c in classes}, VariantParams(dim=dim))
    with mock.patch.object(variants, "_SCORE_BATCH", batch):
        scores = variants._class_scores(model, case_nodes)
    for rows, got in zip(case_nodes, scores):
        _, _, want = einsum_attention_forward(
            E[rows][None], np.ones((1, len(rows)), dtype=bool), U, A)
        assert list(got) == [c.id for c in classes]
        np.testing.assert_allclose(list(got.values()), want[0], rtol=1e-12,
                                   atol=0)


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


@pytest.mark.parametrize("key, value, message", [
    ("relation_vec", "AAAA", "relation_vec has 3 bytes, expected 32 for shape (4,)"),
    ("time_vecs", "not base64!", "time_vecs is not a base64 float64 array"),
    ("time_vecs", [[0.0] * 4] * 2, "time_vecs is not a base64 float64 array"),
    ("entity_vecs", encode_array(np.full((3, 4), np.nan)),
     "entity_vecs holds non-finite values"),
])
def test_bad_scorer_array_is_data_error(key, value, message):
    scorer = temporal.train_temporal_scorer(
        log_from_sequences([["a", "b", "c"]] * 2), None,
        temporal.ScorerParams(dim=4, epochs=2, time_buckets=2))
    buf = io.StringIO()
    temporal.save_scorer(scorer, buf)
    payload = json.loads(buf.getvalue())
    payload[key] = value
    with pytest.raises(DataError, match=re.escape(
            f"temporal scorer checkpoint: {message}")):
        load_scorer(io.StringIO(json.dumps(payload)))
