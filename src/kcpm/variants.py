"""Context-aware process variant classification over the event log fused
with a knowledge graph (lpg.build_lpg).

Graph structure is embedded with projected translations: every node n
has vectors (n, n_p), every relation r has (r, r_p), and an edge
(h, r, t) is scored by -|| h + (h_p.h) r_p + r - t - (t_p.t) r_p ||^2.
Each cohort class gets its own embedding; a trace is pooled into one
vector per class by bilinear attention over its event-node embeddings,
and class scores are a softmax over negative squared distances between
the pooled vector and the class embedding. Training jointly minimizes a
margin ranking loss on graph edges and cross-entropy on labeled cases,
with full-batch descent and backtracking so the loss record is
nonincreasing and seeded runs reproduce exactly.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._training import (decode_array, descend, encode_array, read_checkpoint,
                        row_cells, scatter_cells, write_checkpoint)
from .errors import DataError
from .eventlog import EventLog
from .logio import csv_rows
from .lpg import FusedGraph, activity_node, event_node_id

CHECKPOINT_FORMAT = "kcpm-variant-model"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class CohortClass:
    id: str
    description: str = ""


@dataclass(frozen=True)
class VariantParams:
    dim: int = 16
    margin: float = 1.0
    learning_rate: float = 0.5
    epochs: int = 200
    negatives: int = 2
    structure_weight: float = 1.0
    label_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not math.isfinite(self.margin):
            raise ValueError("margin must be finite")


@dataclass
class VariantModel:
    nodes: tuple[str, ...]
    entity_vecs: np.ndarray       # (n, dim)
    entity_proj: np.ndarray       # (n, dim)
    relations: tuple[str, ...]
    relation_vecs: np.ndarray     # (m, dim)
    relation_proj: np.ndarray     # (m, dim)
    classes: tuple[CohortClass, ...]
    class_vecs: np.ndarray        # (c, dim)
    attention: np.ndarray         # (dim, dim)
    class_counts: dict[str, int]
    params: VariantParams
    loss_history: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        for arr in (self.entity_vecs, self.class_vecs, self.attention):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model contains non-finite values")

    def knows_node(self, node: str) -> bool:
        return node in self._node_index

    def node_vec(self, node: str) -> np.ndarray:
        return self.entity_vecs[self._node_index[node]]

    def class_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.classes)

    def priors(self) -> dict[str, float]:
        total = sum(self.class_counts.values())
        return {cid: self.class_counts.get(cid, 0) / total
                for cid in self.class_ids()}


def _event_matrix(case_nodes: list[list[int]]):
    m = len(case_nodes)
    k = max(len(c) for c in case_nodes)
    idx = np.zeros((m, k), dtype=int)
    mask = np.zeros((m, k), dtype=bool)
    for i, nodes in enumerate(case_nodes):
        idx[i, :len(nodes)] = nodes
        mask[i, :len(nodes)] = True
    return idx, mask


def _pad(mask):
    """(m, k, 1) logit offsets of the (m, k) event mask: 0 at an event,
    -inf at padding."""
    return np.where(mask, 0.0, -np.inf)[:, :, None]


def _attention_forward(V, pad, U, A):
    """V (m,k,dim) event embeddings, zero at padding, and pad = _pad(mask)
    -> attention alpha (m,k,c), pooled vectors minus class vectors diff
    (m,c,dim) and class probabilities p (m,c). Pooling is one batched
    matmul and both softmaxes run in place, so the result equals the
    einsum form up to rounding, not bit for bit. Every case needs an
    event: a row of padding alone has no softmax."""
    z = V @ (A @ U.T)
    z += pad
    z -= z.max(axis=1, keepdims=True)
    alpha = np.exp(z, out=z)
    alpha /= alpha.sum(axis=1, keepdims=True)
    diff = np.matmul(alpha.transpose(0, 2, 1), V)
    diff -= U
    # s = -||diff||^2; s - max(s) is min(||diff||^2) - ||diff||^2
    s = np.einsum("mcd,mcd->mc", diff, diff)
    np.subtract(s.min(axis=1, keepdims=True), s, out=s)
    p = np.exp(s, out=s)
    p /= p.sum(axis=1, keepdims=True)
    return alpha, diff, p


class _Pairs(NamedTuple):
    """_joint_forward's terms of every edge i against each of its tails
    t = tails[i, j], held column-major: one row per tail column. With
    head = h + c_h r_p + r and c_t = t_p . t, the residual
    u = head - E_t - c_t r_p has the squared norm
    ||u||^2 = ||head||^2 - 2 head.E_t + ||E_t||^2
              + c_t (c_t ||r_p||^2 - 2 head.r_p + 2 E_t.r_p),
    so u itself is never formed."""
    head: np.ndarray   # (a, dim)
    rp: np.ndarray     # (a, dim) r_p of each edge
    Et: np.ndarray     # (k+1, a, dim) the tail rows, gathered once
    ct: np.ndarray     # (k+1, a) c_t
    hrp: np.ndarray    # (a,) head . r_p
    ERp: np.ndarray    # (n, n_rel) E_x . r_p of every node and relation


def _pairs(E, R, Rp, c, edges, layout):
    """The _Pairs of edges (heads, rels, tails), and their squared
    residual norms d (k+1, a); c[n] = n_p . n is the node's projection
    coefficient and layout the edges' _scatter_layout. Only the tail
    gather and head . E_t are dim wide per pair: E_t . r_p is read from
    one (n, n_rel) product."""
    heads, rels, tails = edges
    cols = tails.T
    rp = Rp.take(rels, axis=0)
    head = E.take(heads, axis=0)
    # c_h r_p as (a, n_rel) @ Rp, with c_h in each edge's relation column:
    # every other term is 0, so each product is c_h r_p exactly
    c_rel = np.bincount(layout.edge_rel_cells, weights=c.take(heads),
                        minlength=layout.edge_rel_cells.size * len(Rp))
    head += c_rel.reshape(-1, len(Rp)) @ Rp
    head += R.take(rels, axis=0)
    Et = E.take(cols, axis=0)
    ct = c.take(cols)
    ERp = E @ Rp.T
    hrp = np.einsum("ad,ad->a", head, rp)
    d = ct * np.einsum("rd,rd->r", Rp, Rp).take(rels) - 2.0 * hrp
    d += 2.0 * ERp.take(layout.erp_cells)
    d *= ct
    d -= 2.0 * np.einsum("jad,ad->ja", Et, head)
    d += np.einsum("nd,nd->n", E, E).take(cols)
    d += np.einsum("ad,ad->a", head, head)
    return _Pairs(head, rp, Et, ct, hrp, ERp), d


def _joint_forward(E, Ep, R, Rp, U, A, edges, ce_data, layout, margin, w_s,
                   w_l):
    """Joint loss, and the intermediates _joint_backward reuses. edges is
    (heads, rels, tails): column 0 of tails is each edge's true tail, the
    rest its corrupted tails; layout is their _scatter_layout. The
    squared residuals come from _pairs' expansion, so the loss equals the
    per-row form (one residual vector per pair) up to rounding, not bit
    for bit."""
    idx, _, labels, _ = ce_data
    total = 0.0
    c = np.einsum("nd,nd->n", Ep, E)
    pairs, d = _pairs(E, R, Rp, c, edges, layout)
    terms = margin + d[:1] - d[1:]
    if terms.size:
        total += w_s * float(np.mean(np.maximum(0.0, terms).reshape(-1)))
    V = E.take(idx, axis=0)
    V *= layout.event_mask
    alpha, diff, p = _attention_forward(V, layout.pad, U, A)
    ce = -np.mean(np.log(np.maximum(p[np.arange(len(labels)), labels], 1e-300)))
    return total + w_l * float(ce), (c, pairs, terms > 0, V, alpha, diff, p)


class _ScatterLayout(NamedTuple):
    """The index arrays and masks that _joint_forward reads through and
    where _joint_backward's sums land. Edges and event rows are fixed for
    a training, so train_variant_model builds this once."""
    cells: np.ndarray  # gE cells of the head rows, then of the event rows
    rows: np.ndarray   # the buffer those rows are written to
    tails: np.ndarray  # the tail of each pair, column-major and flat
    erp_cells: np.ndarray  # (k+1, a): each pair's (tail, relation) in ERp
    edge_rel_cells: np.ndarray  # each edge's cell in an (a, n_rel) table
    tail_keys: np.ndarray  # each pair's (relation, tail) in an (n_rel, n) one
    head_keys: np.ndarray  # each edge's (relation, head), likewise
    event_mask: np.ndarray  # (m, k, 1): 1.0 at an event, 0.0 at padding
    pad: np.ndarray    # (m, k, 1): _pad of the event mask


def _scatter_layout(E, Rp, edges, ce_data) -> _ScatterLayout:
    """The layout of training node vectors shaped as E and relation
    vectors shaped as Rp on edges (heads, rels, tails) and the events of
    ce_data."""
    heads, rels, tails = edges
    idx, mask = ce_data[:2]
    n, dim = E.shape
    n_rel = len(Rp)
    rows = np.concatenate([heads, idx.reshape(-1)])
    flat_tails = tails.T.reshape(-1)
    return _ScatterLayout(
        row_cells(rows, dim), np.empty((len(rows), dim)), flat_tails,
        tails.T * n_rel + rels, np.arange(len(rels)) * n_rel + rels,
        np.tile(rels, tails.shape[1]) * n + flat_tails,
        rels * n + heads, mask[:, :, None].astype(float), _pad(mask))


def _joint_backward(E, Ep, R, Rp, U, A, edges, ce_data, layout, cache, w_s,
                    w_l):
    """Gradients of the joint loss from _joint_forward's cache, scattered
    through layout (_scatter_layout of the same edges and events).

    The margin loss is summed per edge: dL/du of pair (i, j) is
    coef_j u[i, j] (coef is held column-major, like the _Pairs terms),
    where the true tail (j = 0) weighs the edge's count of
    margin-violating negatives and each violating negative -1. So an
    edge's weights sum to 0, and its head row sum_j coef_j u_j loses the
    head vector: -(sum_j coef_j E_t + (sum_j coef_j c_t) r_p), one
    product of coef with the cached tail rows. Of a tail row
    -coef u = -coef head + coef E_t + coef c_t r_p, only the first term
    is scattered per pair, one dimension at a time, skipping pairs whose
    weight is exactly 0; the other two, and every relation gradient, are
    sums of coef per (relation, node), taken by small bincounts and
    applied by (n_rel, n) products. A row g landing on node x also adds
    (g . r_p) Ep[x] to gE[x] and (g . r_p) E[x] to gEp[x]; those scalars
    come from the forward pass's dot products. The gradient equals the
    per-row sum (one row per pair and term) up to rounding, not bit for
    bit."""
    heads, rels, tails = edges
    labels, Y = ce_data[2:]
    c, pairs, active, V, alpha, diff, p = cache
    n, dim = E.shape
    n_rel = len(Rp)

    # alpha is exactly 0 at padding and V's padded rows are 0, so dz and
    # dV are 0 there too: no mask is applied, and their scatter adds 0
    m = len(labels)
    G = (p - Y) * (-2.0 * w_l / m)               # dL/ds, times -2
    dDiff = diff * G[:, :, None]                 # (m,c,d)
    dAlpha = V @ dDiff.transpose(0, 2, 1)        # (m,k,c)
    dV = alpha @ dDiff                           # (m,k,d)
    dz = dAlpha
    dz -= np.einsum("mkc,mkc->mc", alpha, dAlpha)[:, None, :]
    dz *= alpha
    V2, dz2 = V.reshape(-1, dim), dz.reshape(-1, dz.shape[2])
    gA = V2.T @ (dz2 @ U)
    gU = dz2.T @ (V2 @ A) - dDiff.sum(axis=0)
    dV += dz @ (U @ A.T)

    a = len(heads)
    w = 2.0 * w_s / active.size if active.size else 0.0
    n_active = active.sum(axis=0)
    coef = np.empty(pairs.ct.shape)
    np.multiply(n_active, w, out=coef[0])
    np.multiply(active, -w, out=coef[1:])
    flat = coef.reshape(-1)
    ch = c.take(heads)
    coef_ct = coef * pairs.ct
    q = coef_ct.sum(axis=0)
    # the head rows but for their -q r_p term, which is summed per node below
    rows = layout.rows
    head_rows = rows[:a]
    np.einsum("ja,jad->ad", coef, pairs.Et, out=head_rows)
    np.negative(head_rows, out=head_rows)
    rows[a:] = dV.reshape(-1, dim)

    # per (relation, node): the weights of the pairs with that tail, the
    # weights times c_t - c_h, and q of the edges with that head
    key = layout.tail_keys
    B = np.bincount(key, weights=flat, minlength=n_rel * n).reshape(n_rel, n)
    Bd = np.bincount(key, weights=(coef_ct - coef * ch).reshape(-1),
                     minlength=n_rel * n).reshape(n_rel, n)
    Hq = np.bincount(layout.head_keys, weights=q,
                     minlength=n_rel * n).reshape(n_rel, n)
    q_rel = Hq.sum(axis=1)[:, None]
    q2_rel = np.bincount(rels, weights=(coef_ct * pairs.ct).sum(axis=0)
                         - 2.0 * ch * q, minlength=n_rel)[:, None]
    rp2 = np.einsum("rd,rd->r", Rp, Rp)

    # rows . r_p, one scalar per row, summed per node
    S = (np.bincount(heads, minlength=n,
                     weights=np.einsum("ad,ad->a", head_rows, pairs.rp))
         - np.bincount(layout.tails, weights=(coef * pairs.hrp).reshape(-1),
                       minlength=n)
         + np.einsum("rn,nr->n", B, pairs.ERp) + (rp2 @ B) * c - rp2 @ Hq)

    # gE's per-node terms: -coef head of every pair that weighs anything,
    # dim-major, one dimension at a time; then, row-major, the
    # per-(relation, node) sums and the S terms
    keep = np.flatnonzero(np.concatenate([n_active[None] > 0, active]))
    at = layout.tails.take(keep)
    edge, w_keep = keep % a, -flat.take(keep)
    gE_nodes = np.empty((dim, n))
    for j, col in enumerate(pairs.head.T):
        gE_nodes[j] = np.bincount(at, weights=col.take(edge) * w_keep,
                                  minlength=n)
    gE = scatter_cells(n, layout.cells, rows)
    gE += gE_nodes.T
    gE += (B * c - Hq).T @ Rp
    gE += E * B.sum(axis=0)[:, None]
    gE += Ep * S[:, None]
    gEp = S[:, None] * E
    gR = -(B @ E) - q_rel * Rp
    gRp = (Bd - Hq) @ E + q2_rel * Rp - q_rel * R
    return gE, gEp, gR, gRp, gU, gA


def train_variant_model(
    graph: FusedGraph,
    labeled: dict[str, CohortClass | str],
    params: VariantParams = VariantParams(),
) -> VariantModel:
    """Fit embeddings, class vectors and the attention matrix on a fused
    graph with per-case class labels."""
    if not graph.nodes:
        raise DataError("fused graph is empty")
    by_id: dict[str, CohortClass] = {}
    for value in labeled.values():
        cls = value if isinstance(value, CohortClass) else CohortClass(value)
        by_id.setdefault(cls.id, cls)
    classes = sorted(by_id)
    if len(classes) < 2:
        raise DataError("need labels from at least two classes")
    class_objs = tuple(by_id[cid] for cid in classes)
    class_index = {cid: i for i, cid in enumerate(classes)}

    nodes, relations = graph.nodes, graph.relations
    case_nodes: list[list[int]] = []
    labels: list[int] = []
    for case_id in sorted(labeled):
        members = graph.case_events.get(case_id)
        if not members:
            raise DataError(f"labeled case {case_id!r} is not in the graph")
        case_nodes.append(members)
        cls = labeled[case_id]
        labels.append(class_index[cls.id if isinstance(cls, CohortClass) else cls])
    rows = np.array(graph.edges, dtype=int).reshape(-1, 3)
    heads, rels, tails = rows.T.copy()

    n, dim = len(nodes), params.dim
    rng = np.random.default_rng(params.seed)
    bound = 6.0 / np.sqrt(dim)
    E = rng.uniform(-bound, bound, (n, dim))
    Ep = rng.uniform(-bound, bound, (n, dim)) * 0.1
    R = rng.uniform(-bound, bound, (len(relations), dim)) * 0.1
    Rp = rng.uniform(-bound, bound, (len(relations), dim)) * 0.1
    U = rng.uniform(-bound, bound, (len(classes), dim))
    A = np.eye(dim) + 0.01 * rng.standard_normal((dim, dim))
    # type-anchored start: an event node begins at its activity node plus
    # noise, so class signal reaching any event of an activity generalizes
    # to unlabeled events of the same activity
    noise = rng.normal(size=(n, dim)) * 0.05
    if "INSTANCE_OF" in relations:
        typed = rels == relations.index("INSTANCE_OF")
        events = heads[typed]
        E[events] = E[tails[typed]] + noise[events]
    E /= np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
    U /= np.maximum(1.0, np.linalg.norm(U, axis=1, keepdims=True))

    k = params.negatives
    raw = rng.integers(0, n - 1, size=(len(heads), k)) if n > 1 else \
        np.zeros((len(heads), k), dtype=int)
    neg_tails = (raw + (raw >= tails[:, None])) % n

    idx, mask = _event_matrix(case_nodes)
    labels_arr = np.array(labels)
    Y = np.zeros((len(labels), len(classes)))
    Y[np.arange(len(labels)), labels] = 1.0
    # column 0 is each edge's true tail, the rest its corrupted tails
    edges = (heads, rels, np.concatenate([tails[:, None], neg_tails], axis=1))
    ce_data = (idx, mask, labels_arr, Y)
    layout = _scatter_layout(E, Rp, edges, ce_data)

    def project(p):
        E, Ep, R, Rp, U, A = p
        E = E / np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
        U = U / np.maximum(1.0, np.linalg.norm(U, axis=1, keepdims=True))
        return E, Ep, R, Rp, U, A

    w_s, w_l = params.structure_weight, params.label_weight
    (E, Ep, R, Rp, U, A), history = descend(
        (E, Ep, R, Rp, U, A),
        lambda p: _joint_forward(*p, edges, ce_data, layout, params.margin,
                                 w_s, w_l),
        lambda p, cache: _joint_backward(*p, edges, ce_data, layout, cache,
                                         w_s, w_l),
        params.learning_rate, params.epochs, project)

    counts: dict[str, int] = {}
    for c in labels:
        counts[classes[c]] = counts.get(classes[c], 0) + 1
    return VariantModel(nodes, E, Ep, relations, R, Rp, class_objs, U, A,
                        counts, params, tuple(history))


_SCORE_BATCH = 64  # cases per padded attention pass in _class_scores


def _class_scores(model: VariantModel, case_nodes: list[list[int]]
                  ) -> list[dict[str, float] | None]:
    """Per-class probabilities of each case given the model rows of its
    events, from padded attention passes over batches of _SCORE_BATCH
    cases taken in order of length, so that a batch pads only to its own
    longest case. A case with no rows gets None."""
    out: list[dict[str, float] | None] = [None] * len(case_nodes)
    scored = sorted((i for i, rows in enumerate(case_nodes) if rows),
                    key=lambda i: len(case_nodes[i]))
    class_ids = model.class_ids()
    for start in range(0, len(scored), _SCORE_BATCH):
        batch = scored[start:start + _SCORE_BATCH]
        idx, mask = _event_matrix([case_nodes[i] for i in batch])
        V = model.entity_vecs.take(idx, axis=0)
        V *= mask[:, :, None]
        _, _, p = _attention_forward(V, _pad(mask), model.class_vecs,
                                     model.attention)
        for i, row in zip(batch, p.tolist()):
            out[i] = dict(zip(class_ids, row))
    return out


@dataclass(frozen=True)
class VariantPartition:
    assignment: dict[str, str]
    scores: dict[str, dict[str, float]]
    prior_assigned: frozenset[str] = frozenset()

    def __post_init__(self):
        for case_id, cls in self.assignment.items():
            best = max(self.scores[case_id].values())
            winners = sorted(c for c, s in self.scores[case_id].items()
                             if s >= best - 1e-12)
            if cls != winners[0]:
                raise ValueError(
                    f"case {case_id!r} assigned {cls!r}, argmax is {winners[0]!r}")

    def cases_of(self, class_id: str) -> frozenset[str]:
        return frozenset(c for c, cls in self.assignment.items()
                         if cls == class_id)


def classify_log(model: VariantModel, log: EventLog,
                 entities: frozenset[str] = frozenset(),
                 alias: dict[str, str] | None = None) -> VariantPartition:
    """Assign every case of the log to exactly one cohort class.

    An event is the model's node of that name (lpg.event_node_id); one
    the model does not know falls back to its activity node, named from
    the KG entities and the alias map as build_lpg names it, and an
    unknown activity is skipped. A case left with no known node falls
    back to the class prior and is flagged."""
    index = model._node_index
    case_nodes = []
    for t in log.traces:
        rows = []
        for i, e in enumerate(t.events):
            j = index.get(event_node_id(t.case_id, i))
            if j is None:
                j = index.get(activity_node(e.activity, entities, alias))
            if j is not None:
                rows.append(j)
        case_nodes.append(rows)
    assignment: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    fallback: set[str] = set()
    for t, case_scores in zip(log.traces, _class_scores(model, case_nodes)):
        if case_scores is None:
            case_scores = model.priors()
            fallback.add(t.case_id)
        scores[t.case_id] = case_scores
        best = max(case_scores.values())
        assignment[t.case_id] = sorted(
            c for c, s in case_scores.items() if s >= best - 1e-12)[0]
    return VariantPartition(assignment, scores, frozenset(fallback))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: VariantModel, stream) -> None:
    write_checkpoint(stream, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "nodes": list(model.nodes),
        "entity_vecs": encode_array(model.entity_vecs),
        "entity_proj": encode_array(model.entity_proj),
        "relations": list(model.relations),
        "relation_vecs": encode_array(model.relation_vecs),
        "relation_proj": encode_array(model.relation_proj),
        "classes": [{"id": c.id, "description": c.description}
                    for c in model.classes],
        "class_vecs": encode_array(model.class_vecs),
        "attention": encode_array(model.attention),
        "class_counts": model.class_counts,
        "params": {
            "dim": model.params.dim,
            "margin": model.params.margin,
            "learning_rate": model.params.learning_rate,
            "epochs": model.params.epochs,
            "negatives": model.params.negatives,
            "structure_weight": model.params.structure_weight,
            "label_weight": model.params.label_weight,
            "seed": model.params.seed,
        },
        "loss_history": list(model.loss_history),
    })


def _checkpoint_error(what: str) -> DataError:
    return DataError(f"variant model checkpoint: {what}")


def _checkpoint_list(payload: dict, key: str, valid) -> list:
    items = payload.get(key)
    if not isinstance(items, list) or not all(map(valid, items)):
        raise _checkpoint_error(f"{key} is malformed")
    return items


def load_model(source) -> VariantModel:
    """A variant model checkpoint. Every array must be finite, encoded by
    encode_array, and shaped by the node, relation and class lists and
    the dim it declares; a file that is not raises DataError."""
    payload = read_checkpoint(source, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                              "variant model")
    params = payload.get("params")
    known = [f.name for f in dataclasses.fields(VariantParams)]
    if not isinstance(params, dict) or not set(params) <= set(known):
        raise _checkpoint_error(f"params must have keys among {known}")
    try:
        params = VariantParams(**params)
    except (TypeError, ValueError) as exc:
        raise _checkpoint_error(f"params: {exc}") from None
    nodes = tuple(_checkpoint_list(payload, "nodes",
                                   lambda x: isinstance(x, str)))
    relations = tuple(_checkpoint_list(payload, "relations",
                                       lambda x: isinstance(x, str)))
    classes = tuple(CohortClass(c["id"], c.get("description", ""))
                    for c in _checkpoint_list(
                        payload, "classes",
                        lambda c: isinstance(c, dict)
                        and isinstance(c.get("id"), str)
                        and isinstance(c.get("description", ""), str)))
    if not classes:
        raise _checkpoint_error("classes is empty")
    counts = payload.get("class_counts")
    if (not isinstance(counts, dict)
            or not all(type(v) is int and v >= 0 for v in counts.values())
            or sum(counts.values()) <= 0):
        raise _checkpoint_error(
            "class_counts must map class ids to counts with a positive total")
    history = _checkpoint_list(payload, "loss_history",
                               lambda x: type(x) in (int, float))

    def matrix(key, rows):
        return decode_array(payload, key, (rows, params.dim), "variant model")

    return VariantModel(
        nodes, matrix("entity_vecs", len(nodes)),
        matrix("entity_proj", len(nodes)),
        relations, matrix("relation_vecs", len(relations)),
        matrix("relation_proj", len(relations)),
        classes, matrix("class_vecs", len(classes)),
        matrix("attention", params.dim),
        counts, params, tuple(history))


def partition_to_json(p: VariantPartition) -> dict:
    return {
        "assignment": dict(sorted(p.assignment.items())),
        "scores": {c: dict(sorted(s.items()))
                   for c, s in sorted(p.scores.items())},
        "prior_assigned": sorted(p.prior_assigned),
    }


def partition_to_csv(p: VariantPartition, stream) -> None:
    import csv

    class_ids = sorted({c for s in p.scores.values() for c in s})
    w = csv.writer(stream)
    w.writerow(["case_id", "class", *(f"score_{c}" for c in class_ids)])
    for case_id in sorted(p.assignment):
        row = [case_id, p.assignment[case_id]]
        row += [repr(p.scores[case_id].get(c, 0.0)) for c in class_ids]
        w.writerow(row)


def read_labels_csv(source) -> dict[str, str]:
    """labels CSV: case_id, class columns."""
    with csv_rows(source, ("case_id", "class")) as (columns, rows):
        case, label = columns["case_id"], columns["class"]
        return {row[case]: row[label] for _, row in rows}
