"""The training plumbing of the temporal scorer: distinct-row hinge loss
and gradients and the bincount scatter against per-row references, the
fused descent against the two-call loop and the lifetime of its caches,
and the checkpoint header, payload and array checks."""
import io
import json
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcpm import temporal
from kcpm._training import descend, encode_array, scatter_rows
from kcpm.errors import DataError
from kcpm.kg import KnowledgeGraph
from kcpm.temporal import (_distinct_batch, _hinge_backward, _hinge_forward,
                           df_training_triples, load_scorer)
from kcpm.variants import load_model

from conftest import log_from_sequences
from oracles import (add_at_scatter, per_row_hinge_grads, per_row_hinge_loss,
                     two_call_descend)

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
    """scatter_rows on the rows zero leaves; scatter_rows on every row,
    with each row zero marks multiplied by 0.0, as a non-violating pair's
    row is; and np.add.at on the rows zero leaves. The zero rows change
    no sum, so the three agree bit for bit."""
    idx = np.asarray(idx, dtype=np.intp)
    zero = np.asarray(zero, dtype=bool)
    kept = rows[~zero]
    return (scatter_rows(n, idx[~zero], kept),
            scatter_rows(n, idx, rows * np.where(zero, 0.0, 1.0)[:, None]),
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


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", 0.0, "learning_rate must be finite and > 0"),
    ("learning_rate", float("nan"), "learning_rate must be finite and > 0"),
    ("learning_rate", float("inf"), "learning_rate must be finite and > 0"),
    ("margin", float("nan"), "margin must be finite"),
    ("margin", float("-inf"), "margin must be finite"),
    ("negatives", 0, "negatives must be >= 1"),
])
def test_descent_params_reject_what_cannot_train(field, value, message):
    with pytest.raises(ValueError, match=message):
        temporal.ScorerParams(**{field: value})


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
    if len({a for s in seqs for pair in zip(s, s[1:]) for a in pair}) < 2:
        return
    params = temporal.ScorerParams(dim=dim, epochs=epochs, negatives=k,
                                   time_buckets=4, seed=seed)
    fused, two_call = trained_both_ways(
        temporal, lambda: temporal.train_temporal_scorer(log, None, params))
    for attr in ("entity_vecs", "relation_vec", "time_vecs"):
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


def _scorer_checkpoint(**changes):
    """A valid two-activity scorer checkpoint, with changes; a change to
    None drops the key."""
    payload = {"format": "kcpm-temporal-scorer", "version": 2,
               "activities": ["a", "b"],
               "params": {"dim": 2, "time_buckets": 1},
               "entity_vecs": encode_array(np.zeros((2, 2))),
               "relation_vec": encode_array(np.zeros(2)),
               "time_vecs": encode_array(np.zeros((1, 2))),
               "loss_history": [0.5]}
    payload.update(changes)
    return json.dumps({k: v for k, v in payload.items() if v is not None})


_HEADERS = [
    ("not json\n", "checkpoint is not valid JSON"),
    ("[1, 2]\n", "checkpoint: None"),
    ('{"format": "other", "version": 1}\n', "checkpoint: 'other'"),
]


@pytest.mark.parametrize("load, kind, text, message", [
    *((load, kind, text, message) for load, kind in (
        (load_scorer, "temporal scorer"), (load_model, "variant profile"))
      for text, message in _HEADERS),
    (load_scorer, "temporal scorer", _scorer_checkpoint(activities=None),
     "activities is malformed"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(activities=["a", 2]),
     "activities is malformed"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(params=None),
     "params must have keys among"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(params={"depth": 3}),
     "params must have keys among"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(params={"dim": 1}),
     "params: dim must be >= 2"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(params={"dim": "x"}),
     "params: dim must be an integer"),
    (load_scorer, "temporal scorer",
     _scorer_checkpoint(params={"dim": 2.5, "time_buckets": 1}),
     "params: dim must be an integer"),
    (load_scorer, "temporal scorer", _scorer_checkpoint(loss_history=None),
     "loss_history is malformed"),
    (load_scorer, "temporal scorer",
     _scorer_checkpoint(loss_history=[0.5, "x"]), "loss_history is malformed"),
], ids=[*(f"{kind}-{i}" for kind in ("scorer", "variant")
          for i in ("not-json", "list", "other-format")),
        "scorer-no-activities", "scorer-activity-not-a-name",
        "scorer-no-params", "scorer-unknown-param", "scorer-dim-1",
        "scorer-dim-text", "scorer-dim-float", "scorer-no-loss-history",
        "scorer-text-loss"])
def test_bad_checkpoint_is_data_error(load, kind, text, message):
    with pytest.raises(DataError, match=re.escape(message)) as exc:
        load(io.StringIO(text))
    assert kind in str(exc.value)


def test_the_scorer_checkpoint_of_the_bad_cases_loads():
    scorer = load_scorer(io.StringIO(_scorer_checkpoint()))
    assert scorer.activities == ("a", "b")
    assert scorer.params == temporal.ScorerParams(dim=2, time_buckets=1)
    assert scorer.loss_history == (0.5,)


def test_unsupported_checkpoint_version():
    text = '{"format": "kcpm-variant-profile", "version": 99}\n'
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
