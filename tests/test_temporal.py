import io
from datetime import datetime, timezone

import numpy as np
import pytest

from kcpm.errors import DataError
from kcpm.kg import KnowledgeGraph, TemporalTriple, Triple
from kcpm.temporal import (ScorerParams, TemporalScorer, _distinct_batch,
                           _hinge_backward, _hinge_forward, df_training_triples,
                           load_scorer, save_scorer, successor_scores,
                           time_bucket, train_temporal_scorer)

from conftest import T0, log_from_sequences

FAST = ScorerParams(dim=8, epochs=40, seed=0)


def dominated_log():
    return log_from_sequences([["a", "b"]] * 50 + [["a", "c"]])


def test_time_bucket_hour_of_day():
    t = datetime(2024, 5, 1, 13, 30, tzinfo=timezone.utc)
    assert time_bucket(t, 24) == 13
    assert time_bucket(t, 4) == 2
    assert time_bucket(t, 1) == 0


def test_training_triples_include_log_and_kg():
    log = log_from_sequences([["a", "b", "c"]])
    kg = KnowledgeGraph(temporal=[
        TemporalTriple(Triple("x", "directly_follows", "y"), T0),
        TemporalTriple(Triple("x", "other_relation", "y"), T0),
    ])
    triples = df_training_triples(log, kg, 24)
    pairs = {(a, b) for a, b, _ in triples}
    assert pairs == {("a", "b"), ("b", "c"), ("x", "y")}


def test_degenerate_single_activity_log_is_error():
    with pytest.raises(DataError, match="negatives"):
        train_temporal_scorer(log_from_sequences([["a", "a", "a"]]), None, FAST)


def test_zero_negatives_rejected():
    with pytest.raises(ValueError, match="negatives"):
        ScorerParams(negatives=0)


def test_dominant_pattern_scores_higher():
    scorer = train_temporal_scorer(dominated_log(), None, FAST)
    t = T0
    assert scorer.directly_follows_degree("a", "b", t) > \
        scorer.directly_follows_degree("a", "c", t)


def test_same_seed_identical_checkpoints():
    a = train_temporal_scorer(dominated_log(), None, FAST)
    b = train_temporal_scorer(dominated_log(), None, FAST)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    save_scorer(a, buf_a)
    save_scorer(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    c = train_temporal_scorer(dominated_log(), None,
                              ScorerParams(dim=8, epochs=40, seed=1))
    buf_c = io.StringIO()
    save_scorer(c, buf_c)
    assert buf_c.getvalue() != buf_a.getvalue()


def test_loss_history_nonincreasing():
    scorer = train_temporal_scorer(dominated_log(), None, FAST)
    losses = scorer.loss_history
    assert len(losses) == FAST.epochs
    assert all(x >= y - 1e-12 for x, y in zip(losses, losses[1:]))
    smoothed = [sum(losses[i:i + 5]) / 5 for i in range(len(losses) - 4)]
    assert all(x >= y - 1e-12 for x, y in zip(smoothed, smoothed[1:]))


def test_degree_is_half_at_zero_distance():
    scorer = TemporalScorer(
        ("a", "b"), np.zeros((2, 4)), np.zeros(4), np.zeros((24, 4)),
        ScorerParams(dim=4))
    assert scorer.directly_follows_degree("a", "b", T0) == pytest.approx(0.5)


def test_degree_always_in_unit_interval_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        E = rng.normal(size=(3, 6))
        scorer = TemporalScorer(("a", "b", "c"), E, rng.normal(size=6),
                                rng.normal(size=(24, 6)), ScorerParams(dim=6))
        d_ab = scorer.directly_follows_degree("a", "b", T0)
        assert 0.0 < d_ab <= TemporalScorer.MAX_DEGREE
    # score decreases as the tail moves away from the translated head
    base = np.zeros((2, 4))
    scorer_near = TemporalScorer(("a", "b"), base.copy(), np.zeros(4),
                                 np.zeros((24, 4)), ScorerParams(dim=4))
    far = base.copy()
    far[1, 0] = 5.0
    scorer_far = TemporalScorer(("a", "b"), far, np.zeros(4),
                                np.zeros((24, 4)), ScorerParams(dim=4))
    assert scorer_near.directly_follows_degree("a", "b", T0) > \
        scorer_far.directly_follows_degree("a", "b", T0)


def test_unknown_activity_named_in_error():
    scorer = train_temporal_scorer(dominated_log(), None, FAST)
    with pytest.raises(DataError, match="ghost"):
        scorer.directly_follows_degree("a", "ghost", T0)


def test_checkpoint_round_trip():
    scorer = train_temporal_scorer(dominated_log(), None, FAST)
    buf = io.StringIO()
    save_scorer(scorer, buf)
    again = load_scorer(io.StringIO(buf.getvalue()))
    assert again.activities == scorer.activities
    for key in ("entity_vecs", "relation_vec", "time_vecs"):
        got, want = getattr(again, key), getattr(scorer, key)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes() and got.flags.writeable
    assert again.params == scorer.params
    assert again.loss_history == scorer.loss_history
    buf2 = io.StringIO()
    save_scorer(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_successor_scores_cover_vocabulary():
    scorer = train_temporal_scorer(dominated_log(), None, FAST)
    scores = successor_scores(scorer, "a", T0)
    assert set(scores) == {"a", "b", "c"}
    assert scores["b"] == pytest.approx(
        scorer.directly_follows_degree("a", "b", T0))


def test_hinge_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    n, dim, buckets, rows = 5, 4, 3, 12
    E = rng.normal(size=(n, dim)) * 0.5
    r = rng.normal(size=dim) * 0.5
    T = rng.normal(size=(buckets, dim)) * 0.5
    heads = rng.integers(0, n, rows)
    tails = rng.integers(0, n, rows)
    neg_tails = rng.integers(0, n, size=(rows, 3))
    buckets_idx = rng.integers(0, buckets, rows)
    margin = 1.0
    batch = _distinct_batch(heads, tails, buckets_idx, neg_tails)
    gE, gr, gT = _hinge_backward(E, r, T, batch,
                                 _hinge_forward(E, r, T, batch, margin)[1])
    eps = 1e-6

    def fd(array, grad):
        flat = array.reshape(-1)
        for k in rng.choice(flat.size, size=min(20, flat.size), replace=False):
            orig = flat[k]
            flat[k] = orig + eps
            up = _hinge_forward(E, r, T, batch, margin)[0]
            flat[k] = orig - eps
            down = _hinge_forward(E, r, T, batch, margin)[0]
            flat[k] = orig
            numeric = (up - down) / (2 * eps)
            assert grad.reshape(-1)[k] == pytest.approx(numeric, abs=1e-4)

    fd(E, gE)
    fd(r, gr)
    fd(T, gT)
