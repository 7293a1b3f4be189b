"""Translational temporal embeddings for directly-follows prediction.

Each activity gets a vector; the directly-follows relation and each
coarse time bucket get one more. A successor pair (a, b) observed at
time t should satisfy  e(a) + r + tau(bucket(t)) ~ e(b); the
directly-follows degree is sigmoid(-distance), so identical sides give
0.5 and the score decays toward 0 with distance.

Training minimizes a margin ranking loss against tail-corrupted
negatives. Negatives are sampled once (uniformly, per seed) and the
optimizer is full-batch gradient descent with backtracking halving, so
the recorded per-epoch loss is nonincreasing by construction and runs
are bit-reproducible for a fixed seed.
"""
from __future__ import annotations

import math
from datetime import datetime
from typing import NamedTuple

import numpy as np

from ._checkpoint import (checkpoint_list, is_number, read_checkpoint,
                          write_checkpoint)
from ._training import decode_array, descend, encode_array, scatter_rows
from .errors import DataError
from .eventlog import EventLog
from .kg import DIRECTLY_FOLLOWS, KnowledgeGraph

CHECKPOINT_FORMAT = "kcpm-temporal-scorer"
CHECKPOINT_VERSION = 2


class _ParamFields(NamedTuple):
    dim: int
    margin: float
    learning_rate: float
    epochs: int
    negatives: int
    time_buckets: int
    seed: int


class ScorerParams(_ParamFields):
    """Every way of making one rejects a count that is not an int or out
    of range and a margin or learning rate that is not finite."""

    __slots__ = ()

    def __new__(cls, dim: int = 16, margin: float = 1.0,
                learning_rate: float = 0.5, epochs: int = 80,
                negatives: int = 4, time_buckets: int = 24, seed: int = 0):
        for name, value in (("dim", dim), ("epochs", epochs),
                            ("negatives", negatives),
                            ("time_buckets", time_buckets), ("seed", seed)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer")
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if negatives < 1:
            raise ValueError("negatives must be >= 1")
        if not 0.0 < learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not math.isfinite(margin):
            raise ValueError("margin must be finite")
        if not 1 <= time_buckets <= 1440:
            raise ValueError("time_buckets must be in 1..1440")
        return tuple.__new__(cls, (dim, margin, learning_rate, epochs,
                                   negatives, time_buckets, seed))

    @classmethod
    def _make(cls, iterable) -> ScorerParams:
        return cls(*iterable)


def time_bucket(t: datetime, n_buckets: int = 24) -> int:
    """Hour-of-day bucketing, scaled to n_buckets slots."""
    return ((t.hour * 60 + t.minute) * n_buckets) // 1440


class TemporalScorer:
    """A trained scorer, equal by its fields. It rejects entity
    embeddings that are not finite."""

    __slots__ = ("activities", "entity_vecs", "relation_vec", "time_vecs",
                 "params", "loss_history", "_index")

    def __init__(self, activities: tuple[str, ...],
                 entity_vecs: np.ndarray,   # (n_activities, dim)
                 relation_vec: np.ndarray,  # (dim,)
                 time_vecs: np.ndarray,     # (time_buckets, dim)
                 params: ScorerParams,
                 loss_history: tuple[float, ...] = ()):
        self.activities = activities
        self.entity_vecs = entity_vecs
        self.relation_vec = relation_vec
        self.time_vecs = time_vecs
        self.params = params
        self.loss_history = loss_history
        self._index = {a: i for i, a in enumerate(activities)}
        if not np.all(np.isfinite(entity_vecs)):
            raise ValueError("entity embeddings contain non-finite values")

    def _key(self) -> tuple:
        return (self.activities, self.entity_vecs, self.relation_vec,
                self.time_vecs, self.params, self.loss_history)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable

    def index(self, activity: str) -> int:
        try:
            return self._index[activity]
        except KeyError:
            raise DataError(f"unknown activity {activity!r}") from None

    def knows(self, activity: str) -> bool:
        return activity in self._index

    # sigmoid(-distance) with distance >= 0: no degree exceeds this
    MAX_DEGREE = 0.5

    def directly_follows_degree(self, a: str, b: str, t: datetime) -> float:
        """sigmoid(-distance) in (0, MAX_DEGREE]: the closer e(a)+r+tau
        lands to e(b), the likelier b directly follows a around that
        time of day."""
        i, j = self.index(a), self.index(b)
        bucket = time_bucket(t, self.params.time_buckets)
        u = (self.entity_vecs[i] + self.relation_vec
             + self.time_vecs[bucket] - self.entity_vecs[j])
        d = float(np.linalg.norm(u))
        return float(1.0 / (1.0 + np.exp(d)))


def df_training_triples(
    log: EventLog, kg: KnowledgeGraph, n_buckets: int
) -> list[tuple[str, str, int]]:
    """(predecessor, successor, bucket) samples from consecutive trace
    events (bucketed at the predecessor's timestamp) plus any temporal
    directly-follows facts in the knowledge graph."""
    out = []
    for t in log.traces:
        for prev, nxt in zip(t.events, t.events[1:]):
            out.append((prev.activity, nxt.activity,
                        time_bucket(prev.timestamp, n_buckets)))
    for tt in sorted(kg.temporal,
                     key=lambda x: (x.triple.subject, x.triple.object,
                                    x.timestamp)):
        if tt.triple.predicate == DIRECTLY_FOLLOWS:
            out.append((tt.triple.subject, tt.triple.object,
                        time_bucket(tt.timestamp, n_buckets)))
    return out


def _distances(E, r, T, heads, tails, buckets):
    u = E[heads] + r + T[buckets] - E[tails]
    return u, np.linalg.norm(u, axis=1)


class _Batch(NamedTuple):
    """The training rows collapsed to distinct work: positives as
    distinct (head, tail, bucket), and (positive, corrupted tail) pairs
    as distinct (positive, negative) with their integer multiplicity.
    Losses and gradients are count-weighted sums over these, divided by
    the original number of pairs."""
    heads: np.ndarray       # (P,) per distinct positive
    tails: np.ndarray
    buckets: np.ndarray
    pair_pos: np.ndarray    # (Q,) index into the distinct positives
    pair_neg: np.ndarray    # (Q,) corrupted tail
    pair_count: np.ndarray  # (Q,) multiplicity among the original pairs
    n_pairs: int            # rows * negatives


def _distinct_batch(heads, tails, buckets, neg_tails) -> _Batch:
    """neg_tails has one row of corrupted tails per positive row.

    Rows are packed into one int64 key each in mixed radix, so a 1-D
    unique sorts them in the same lexicographic order as a row-wise one.
    """
    k = neg_tails.shape[1]
    n_t, n_b = int(tails.max()) + 1, int(buckets.max()) + 1
    keys, pos_of_row = np.unique((heads.astype(np.int64) * n_t + tails) * n_b
                                 + buckets, return_inverse=True)
    n_neg = int(neg_tails.max()) + 1
    pairs, counts = np.unique(
        np.repeat(pos_of_row.astype(np.int64), k) * n_neg + neg_tails.reshape(-1),
        return_counts=True)
    return _Batch(keys // (n_t * n_b), keys // n_b % n_t, keys % n_b,
                  pairs // n_neg, pairs % n_neg, counts, len(heads) * k)


def _hinge_forward(E, r, T, b: _Batch, margin):
    """Mean margin violation over every (positive, corrupted-tail) pair,
    and the residuals, distances and pre-max margin terms the gradient
    reuses."""
    u_pos, d_pos = _distances(E, r, T, b.heads, b.tails, b.buckets)
    u_neg, d_neg = _distances(E, r, T, b.heads[b.pair_pos], b.pair_neg,
                              b.buckets[b.pair_pos])
    terms = margin + d_pos[b.pair_pos] - d_neg
    loss = float(b.pair_count @ np.maximum(0.0, terms) / b.n_pairs)
    return loss, (u_pos, d_pos, u_neg, d_neg, terms)


def _hinge_backward(E, r, T, b: _Batch, cache):
    u_pos, d_pos, u_neg, d_neg, terms = cache
    active = terms > 0
    # weight of each pair: its multiplicity if it violates the margin
    w = np.where(active, b.pair_count, 0) / b.n_pairs
    # each positive contributes once per active pairing with its negatives
    w_pos = np.bincount(b.pair_pos, weights=w, minlength=len(d_pos))
    unit_pos = np.where((d_pos > 0)[:, None],
                        u_pos / np.maximum(d_pos, 1e-12)[:, None], 0.0)
    gp = w_pos[:, None] * unit_pos
    gn = np.where((active & (d_neg > 0))[:, None],
                  -w[:, None] * u_neg / np.maximum(d_neg, 1e-12)[:, None], 0.0)
    nh = b.heads[b.pair_pos]
    gE = scatter_rows(len(E), np.concatenate([b.heads, nh, b.tails, b.pair_neg]),
                      np.concatenate([gp, gn, -gp, -gn]))
    gT = scatter_rows(len(T), np.concatenate([b.buckets, b.buckets[b.pair_pos]]),
                      np.concatenate([gp, gn]))
    gr = gp.sum(axis=0) + gn.sum(axis=0)
    return gE, gr, gT


def _clip_entities(params):
    E, r, T = params
    return E / np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True)), r, T


def train_temporal_scorer(
    log: EventLog,
    kg: KnowledgeGraph | None = None,
    params: ScorerParams = ScorerParams(),
) -> TemporalScorer:
    if kg is None:
        kg = KnowledgeGraph()
    if not log.traces:
        raise DataError("cannot train on an empty log")
    triples = df_training_triples(log, kg, params.time_buckets)
    if not triples:
        raise DataError("log has no directly-follows pairs to train on")
    vocab = sorted({a for a, _, _ in triples} | {b for _, b, _ in triples})
    if len(vocab) < 2:
        raise DataError("need at least two distinct activities to form negatives")

    index = {a: i for i, a in enumerate(vocab)}
    n, dim = len(vocab), params.dim
    rng = np.random.default_rng(params.seed)
    bound = 6.0 / np.sqrt(dim)
    E = rng.uniform(-bound, bound, size=(n, dim))
    # relation/time offsets start small: the hinge only separates positive
    # from corrupted pairs, so large initial offsets would never shrink and
    # would pin every directly-follows degree near zero
    r = rng.uniform(-bound, bound, size=dim) * 0.1
    T = rng.uniform(-bound, bound, size=(params.time_buckets, dim)) * 0.05
    E /= np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))

    heads = np.array([index[a] for a, _, _ in triples])
    tails = np.array([index[b] for _, b, _ in triples])
    buckets = np.array([c for _, _, c in triples])

    # negatives drawn once: uniform over the vocabulary minus the true tail
    k = params.negatives
    raw = rng.integers(0, n - 1, size=(len(triples), k))
    neg_tails = raw + (raw >= tails[:, None])
    batch = _distinct_batch(heads, tails, buckets, neg_tails)

    (E, r, T), history = descend(
        (E, r, T),
        lambda p: _hinge_forward(*p, batch, params.margin),
        lambda p, cache: _hinge_backward(*p, batch, cache),
        params.learning_rate, params.epochs, _clip_entities)
    return TemporalScorer(tuple(vocab), E, r, T, params, tuple(history))


def successor_scores(scorer: TemporalScorer, a: str, t: datetime) -> dict[str, float]:
    """Directly-follows degree of every known activity as successor of a."""
    i = scorer.index(a)
    bucket = time_bucket(t, scorer.params.time_buckets)
    u = (scorer.entity_vecs[i] + scorer.relation_vec
         + scorer.time_vecs[bucket] - scorer.entity_vecs)
    d = np.linalg.norm(u, axis=1)
    score = 1.0 / (1.0 + np.exp(d))
    return {act: float(s) for act, s in zip(scorer.activities, score)}


def save_scorer(scorer: TemporalScorer, stream) -> None:
    write_checkpoint(stream, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "activities": list(scorer.activities),
        "entity_vecs": encode_array(scorer.entity_vecs),
        "relation_vec": encode_array(scorer.relation_vec),
        "time_vecs": encode_array(scorer.time_vecs),
        "params": {
            "dim": scorer.params.dim,
            "margin": scorer.params.margin,
            "learning_rate": scorer.params.learning_rate,
            "epochs": scorer.params.epochs,
            "negatives": scorer.params.negatives,
            "time_buckets": scorer.params.time_buckets,
            "seed": scorer.params.seed,
        },
        "loss_history": list(scorer.loss_history),
    })


def load_scorer(source) -> TemporalScorer:
    """A temporal scorer checkpoint. activities must be a list of names,
    params the ScorerParams fields and values it accepts, loss_history a
    list of numbers, and every array finite, encoded by encode_array and
    shaped by the activities and params; a file that is not raises
    DataError naming the key."""
    kind = "temporal scorer"
    payload = read_checkpoint(source, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                              kind)
    activities = tuple(checkpoint_list(payload, "activities",
                                       lambda x: isinstance(x, str), kind))
    params = payload.get("params")
    known = list(ScorerParams._fields)
    if not isinstance(params, dict) or not set(params) <= set(known):
        raise DataError(f"{kind} checkpoint: params must have keys among "
                        f"{known}")
    try:
        params = ScorerParams(**params)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{kind} checkpoint: params: {exc}") from None
    history = checkpoint_list(payload, "loss_history", is_number, kind)
    return TemporalScorer(
        activities,
        decode_array(payload, "entity_vecs", (len(activities), params.dim),
                     kind),
        decode_array(payload, "relation_vec", (params.dim,), kind),
        decode_array(payload, "time_vecs", (params.time_buckets, params.dim),
                     kind),
        params,
        tuple(history),
    )
