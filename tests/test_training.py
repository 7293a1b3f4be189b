"""The shared training plumbing: distinct-row hinge loss and gradients,
the bincount scatter and the variant gradients against per-row
references, and the checkpoint header check."""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm._training import scatter_rows
from kcpm.errors import DataError
from kcpm.kg import KnowledgeGraph
from kcpm.temporal import (_distinct_batch, _hinge_grads, _hinge_loss,
                           df_training_triples, load_scorer)
from kcpm.variants import _joint_grads, load_model

from conftest import log_from_sequences
from oracles import (add_at_scatter, per_row_hinge_grads, per_row_hinge_loss,
                     per_row_joint_grads)

SEEDS = st.integers(0, 2**32 - 1)


def rel_err(a, ref) -> float:
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300))


@settings(max_examples=60, deadline=None)
@given(seqs=st.lists(st.lists(st.sampled_from("abcde"), min_size=2, max_size=12),
                     min_size=1, max_size=8),
       k=st.integers(1, 5), n_buckets=st.integers(1, 4), seed=SEEDS,
       spread=st.sampled_from([0.05, 0.5, 2.0]))
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
    loss = _hinge_loss(E, r, T, batch, margin)
    assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss)
    ref = per_row_hinge_grads(E, r, T, heads, tails, buckets, neg_tails, margin)
    for g, g_ref in zip(_hinge_grads(E, r, T, batch, margin), ref):
        assert g.shape == g_ref.shape
        assert rel_err(g, g_ref) <= 1e-9


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
def test_variant_grads_equal_add_at_reference(n, dim, n_rel, n_classes, rows, k,
                                              m, width, seed, margin):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(n, dim)) * 0.4
    Ep = rng.normal(size=(n, dim)) * 0.2
    R = rng.normal(size=(n_rel, dim)) * 0.4
    Rp = rng.normal(size=(n_rel, dim)) * 0.2
    U = rng.normal(size=(n_classes, dim)) * 0.4
    A = rng.normal(size=(dim, dim)) * 0.3
    edges = (rng.integers(0, n, rows), rng.integers(0, n_rel, rows),
             rng.integers(0, n, rows), rng.integers(0, n, size=(rows, k)))
    idx = rng.integers(0, n, size=(m, width))
    mask = np.ones((m, width), dtype=bool)
    lengths = rng.integers(1, width + 1, m)
    for i, length in enumerate(lengths):
        mask[i, length:] = False
    labels = rng.integers(0, n_classes, m)
    Y = np.zeros((m, n_classes))
    Y[np.arange(m), labels] = 1.0
    args = (edges, (idx, mask, labels, Y), margin, 1.0, 1.0)
    got = _joint_grads(E, Ep, R, Rp, U, A, *args)
    want = per_row_joint_grads(E, Ep, R, Rp, U, A, *args)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


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
