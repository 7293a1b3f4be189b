"""Context-aware process variant classification over a labeled property
graph.

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

from dataclasses import dataclass, field

import numpy as np

from ._training import descend, read_checkpoint, scatter_rows, write_checkpoint
from .errors import DataError
from .eventlog import EventLog
from .logio import csv_rows
from .lpg import LabeledPropertyGraph

CHECKPOINT_FORMAT = "kcpm-variant-model"
CHECKPOINT_VERSION = 1


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


def _edge_triples(lpg: LabeledPropertyGraph):
    """(head, relation-label, tail) per edge, in edge-id order; the
    lexicographically first label names the relation."""
    out = []
    for eid in sorted(lpg.edges, key=lambda e: int(e[1:])):
        src, dst = lpg.edges[eid]
        out.append((src, sorted(lpg.edge_labels[eid])[0], dst))
    return out


def _event_matrix(case_nodes: list[list[int]]):
    m = len(case_nodes)
    k = max(len(c) for c in case_nodes)
    idx = np.zeros((m, k), dtype=int)
    mask = np.zeros((m, k), dtype=bool)
    for i, nodes in enumerate(case_nodes):
        idx[i, :len(nodes)] = nodes
        mask[i, :len(nodes)] = True
    return idx, mask


def _attention_forward(V, mask, U, A):
    """V (m,k,dim) masked event embeddings -> attention, pooled reprs,
    class scores and probabilities."""
    z = np.einsum("mkd,de,ce->mkc", V, A, U)
    z = np.where(mask[:, :, None], z, -np.inf)
    z_max = z.max(axis=1, keepdims=True)
    expz = np.exp(z - z_max)
    alpha = expz / expz.sum(axis=1, keepdims=True)
    pooled = np.einsum("mkc,mkd->mcd", alpha, V)
    diff = pooled - U[None, :, :]
    s = -(diff ** 2).sum(axis=2)
    s_max = s.max(axis=1, keepdims=True)
    exps = np.exp(s - s_max)
    p = exps / exps.sum(axis=1, keepdims=True)
    return alpha, diff, p


def _residuals(E, R, Rp, c, heads, rels, tails):
    """Projected translation residual u = h + c_h r_p + r - t - c_t r_p
    and its squared norm, of each edge (heads[i], rels[i]) against each
    of its tails tails[i, j]; c[n] = n_p . n is the node's projection
    coefficient."""
    rp = Rp[rels]
    head = E[heads] + c[heads, None] * rp + R[rels]
    u = head[:, None, :] - E[tails] - c[tails][:, :, None] * rp[:, None, :]
    return u, (u ** 2).sum(axis=2)


def _joint_forward(E, Ep, R, Rp, U, A, edges, ce_data, margin, w_s, w_l):
    """Joint loss, and the intermediates _joint_backward reuses."""
    heads, rels, tails, neg_tails = edges
    idx, mask, labels, _ = ce_data
    total = 0.0
    c = (Ep * E).sum(axis=1)
    # column 0 is each edge's true tail, the rest its corrupted tails
    u, d = _residuals(E, R, Rp, c, heads, rels,
                      np.concatenate([tails[:, None], neg_tails], axis=1))
    terms = margin + d[:, :1] - d[:, 1:]
    if neg_tails.size:
        total += w_s * float(np.mean(np.maximum(0.0, terms).reshape(-1)))
    V = E[idx] * mask[:, :, None]
    alpha, diff, p = _attention_forward(V, mask, U, A)
    ce = -np.mean(np.log(np.maximum(p[np.arange(len(labels)), labels], 1e-300)))
    return total + w_l * float(ce), (c, u, terms > 0, V, alpha, diff, p)


def _joint_backward(E, Ep, R, Rp, U, A, edges, ce_data, cache, w_s, w_l):
    """Gradients of the joint loss from _joint_forward's cache. Each
    parameter's row contributions are gathered in a fixed order (positive
    heads, positive tails, negative heads, negative tails, then event
    rows) and summed by one scatter."""
    heads, rels, tails, neg_tails = edges
    idx, mask, labels, Y = ce_data
    c, u, active, V, alpha, diff, p = cache
    n, dim = E.shape

    gU = np.zeros_like(U)
    gA = np.zeros_like(A)
    m = len(labels)
    G = (p - Y) * (w_l / m)                      # dL/ds
    dDiff = G[:, :, None] * (-2.0 * diff)        # (m,c,d)
    gU += -dDiff.sum(axis=0)
    dAlpha = np.einsum("mcd,mkd->mkc", dDiff, V)
    dV = np.einsum("mkc,mcd->mkd", alpha, dDiff)
    dz = alpha * (dAlpha - (alpha * dAlpha).sum(axis=1, keepdims=True))
    dz = np.where(mask[:, :, None], dz, 0.0)
    gA += np.einsum("mkd,mkc,ce->de", V, dz, U)
    gU += np.einsum("mkc,mke->ce", dz, V @ A)
    dV += np.einsum("mkc,dc->mkd", dz, A @ U.T)
    dV *= mask[:, :, None]

    # only margin-violating (edge, negative) rows: the others add exact
    # zeros, which leave every sum (started at +0.0) unchanged
    edge, neg = np.nonzero(active)
    ph, pr = heads[edge], rels[edge]
    rp = Rp[pr]
    # axis 0 from here on: the positive, then the negative side of each
    # row; axis 1 of the row blocks: the head, then the tail
    ti = np.stack([tails[edge], neg_tails[edge, neg]])
    pair_idx = np.stack([np.broadcast_to(ph, ti.shape), ti], axis=1).reshape(-1)
    scale = w_s / neg_tails.size if neg_tails.size else 0.0  # else no rows
    gu = ((np.array([1.0, -1.0]) * scale * 2.0)[:, None, None]
          * u[edge, np.stack([np.zeros_like(neg), neg + 1])])
    s_r = (gu * rp).sum(axis=2, keepdims=True)  # gu . r_p per row
    e_rows = np.stack([gu + s_r * Ep[ph], -(gu + s_r * Ep[ti])], axis=1)
    ep_rows = np.stack([s_r * E[ph], -s_r * E[ti]], axis=1)

    gE = scatter_rows(n, np.concatenate([pair_idx, idx.reshape(-1)]),
                      np.concatenate([e_rows.reshape(-1, dim),
                                      dV.reshape(-1, dim)]))
    gEp = scatter_rows(n, pair_idx, ep_rows.reshape(-1, dim))
    r_idx = np.concatenate([pr, pr])
    gR = scatter_rows(len(R), r_idx, gu.reshape(-1, dim))
    gRp = scatter_rows(len(Rp), r_idx,
                       ((c[ph] - c[ti])[:, :, None] * gu).reshape(-1, dim))
    return gE, gEp, gR, gRp, gU, gA


def train_variant_model(
    lpg: LabeledPropertyGraph,
    labeled: dict[str, CohortClass | str],
    params: VariantParams = VariantParams(),
) -> VariantModel:
    """Fit embeddings, class vectors and the attention matrix on an LPG
    with per-case class labels."""
    if not lpg.nodes:
        raise DataError("labeled property graph is empty")
    by_id: dict[str, CohortClass] = {}
    for value in labeled.values():
        cls = value if isinstance(value, CohortClass) else CohortClass(value)
        by_id.setdefault(cls.id, cls)
    classes = sorted(by_id)
    if len(classes) < 2:
        raise DataError("need labels from at least two classes")
    class_objs = tuple(by_id[cid] for cid in classes)
    class_index = {cid: i for i, cid in enumerate(classes)}

    nodes = tuple(sorted(lpg.nodes))
    node_index = {n: i for i, n in enumerate(nodes)}
    by_case = lpg_events_by_case(lpg)
    case_nodes: list[list[int]] = []
    labels: list[int] = []
    for case_id in sorted(labeled):
        members = by_case.get(case_id)
        if not members:
            raise DataError(f"labeled case {case_id!r} is not in the graph")
        case_nodes.append([node_index[n] for n in members])
        cls = labeled[case_id]
        labels.append(class_index[cls.id if isinstance(cls, CohortClass) else cls])

    triples = _edge_triples(lpg)
    relations = tuple(sorted({r for _, r, _ in triples}))
    rel_index = {r: i for i, r in enumerate(relations)}
    heads = np.array([node_index[h] for h, _, _ in triples])
    rels = np.array([rel_index[r] for _, r, _ in triples])
    tails = np.array([node_index[t] for _, _, t in triples])

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
    for eid in sorted(lpg.edges, key=lambda e: int(e[1:])):
        if "INSTANCE_OF" in lpg.edge_labels[eid]:
            src, dst = lpg.edges[eid]
            E[node_index[src]] = E[node_index[dst]] + noise[node_index[src]]
    E /= np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
    U /= np.maximum(1.0, np.linalg.norm(U, axis=1, keepdims=True))

    k = params.negatives
    raw = rng.integers(0, n - 1, size=(len(triples), k)) if n > 1 else \
        np.zeros((len(triples), k), dtype=int)
    neg_tails = (raw + (raw >= tails[:, None])) % n

    idx, mask = _event_matrix(case_nodes)
    labels_arr = np.array(labels)
    Y = np.zeros((len(labels), len(classes)))
    Y[np.arange(len(labels)), labels] = 1.0
    edges = (heads, rels, tails, neg_tails)
    ce_data = (idx, mask, labels_arr, Y)

    def project(p):
        E, Ep, R, Rp, U, A = p
        E = E / np.maximum(1.0, np.linalg.norm(E, axis=1, keepdims=True))
        U = U / np.maximum(1.0, np.linalg.norm(U, axis=1, keepdims=True))
        return E, Ep, R, Rp, U, A

    w_s, w_l = params.structure_weight, params.label_weight
    (E, Ep, R, Rp, U, A), history = descend(
        (E, Ep, R, Rp, U, A),
        lambda p: _joint_forward(*p, edges, ce_data, params.margin, w_s, w_l),
        lambda p, cache: _joint_backward(*p, edges, ce_data, cache, w_s, w_l),
        params.learning_rate, params.epochs, project)

    counts: dict[str, int] = {}
    for c in labels:
        counts[classes[c]] = counts.get(classes[c], 0) + 1
    return VariantModel(nodes, E, Ep, relations, R, Rp, class_objs, U, A,
                        counts, params, tuple(history))


def lpg_events_by_case(lpg: LabeledPropertyGraph) -> dict[str, list[str]]:
    """Event nodes per case id, in trace position order."""
    out: dict[str, list[str]] = {}
    for eid, (src, dst) in lpg.edges.items():
        if "BELONGS_TO" in lpg.edge_labels[eid] and dst.startswith("case::"):
            out.setdefault(dst[len("case::"):], []).append(src)
    for members in out.values():
        members.sort(key=lambda n: lpg.node_props[n]["position"])
    return out


def _instance_of_targets(lpg: LabeledPropertyGraph) -> dict[str, str]:
    out = {}
    for eid, (src, dst) in lpg.edges.items():
        if "INSTANCE_OF" in lpg.edge_labels[eid]:
            out[src] = dst
    return out


_SCORE_BATCH = 64  # cases per padded attention pass in _class_scores


def _class_scores(model: VariantModel, by_case: dict[str, list[str]],
                  instance_of: dict[str, str],
                  case_ids: list[str]) -> list[dict[str, float] | None]:
    """Per-class probabilities of each case, from padded attention passes
    over batches of _SCORE_BATCH cases taken in order of length, so that
    a batch pads only to its own longest case. An event unknown to the
    model falls back to its activity node, and an unknown activity is
    skipped; a case left with no events (or absent from the graph) gets
    None."""
    index = model._node_index
    case_nodes = []
    for case_id in case_ids:
        rows = []
        for node in by_case.get(case_id, ()):
            i = index.get(node)
            if i is None:
                i = index.get(instance_of.get(node))
            if i is not None:
                rows.append(i)
        case_nodes.append(rows)
    out: list[dict[str, float] | None] = [None] * len(case_ids)
    scored = sorted((i for i, rows in enumerate(case_nodes) if rows),
                    key=lambda i: len(case_nodes[i]))
    class_ids = model.class_ids()
    for start in range(0, len(scored), _SCORE_BATCH):
        batch = scored[start:start + _SCORE_BATCH]
        idx, mask = _event_matrix([case_nodes[i] for i in batch])
        V = model.entity_vecs[idx] * mask[:, :, None]
        _, _, p = _attention_forward(V, mask, model.class_vecs,
                                     model.attention)
        for i, row in zip(batch, p.tolist()):
            out[i] = dict(zip(class_ids, row))
    return out


def edge_score(model: VariantModel, head: str, relation: str,
               tail: str) -> float:
    """Plausibility of a graph edge under the trained embeddings:
    -||h_perp + r - t_perp||^2, higher is more plausible."""
    ends = [model._node_index[head], model._node_index[tail]]
    E, Ep = model.entity_vecs[ends], model.entity_proj[ends]
    _, d = _residuals(E, model.relation_vecs, model.relation_proj,
                      (Ep * E).sum(axis=1), np.array([0]),
                      np.array([model.relations.index(relation)]),
                      np.array([[1]]))
    return -float(d[0, 0])


def score_trace(model: VariantModel, lpg: LabeledPropertyGraph,
                case_id: str) -> dict[str, float]:
    """Per-class membership probabilities for one case; they sum to 1."""
    by_case = lpg_events_by_case(lpg)
    if case_id not in by_case:
        raise DataError(f"case {case_id!r} is not in the graph")
    scores, = _class_scores(model, by_case, _instance_of_targets(lpg),
                            [case_id])
    return model.priors() if scores is None else scores


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


def classify_log(model: VariantModel, lpg: LabeledPropertyGraph,
                 log: EventLog) -> VariantPartition:
    """Assign every case of the log to exactly one cohort class.

    Cases absent from the graph, or whose events are all unknown to the
    model, fall back to the class prior and are flagged."""
    case_ids = [t.case_id for t in log.traces]
    assignment: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    fallback: set[str] = set()
    for case_id, case_scores in zip(case_ids, _class_scores(
            model, lpg_events_by_case(lpg), _instance_of_targets(lpg),
            case_ids)):
        if case_scores is None:
            case_scores = model.priors()
            fallback.add(case_id)
        scores[case_id] = case_scores
        best = max(case_scores.values())
        assignment[case_id] = sorted(
            c for c, s in case_scores.items() if s >= best - 1e-12)[0]
    return VariantPartition(assignment, scores, frozenset(fallback))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: VariantModel, stream) -> None:
    write_checkpoint(stream, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "nodes": list(model.nodes),
        "entity_vecs": model.entity_vecs.tolist(),
        "entity_proj": model.entity_proj.tolist(),
        "relations": list(model.relations),
        "relation_vecs": model.relation_vecs.tolist(),
        "relation_proj": model.relation_proj.tolist(),
        "classes": [{"id": c.id, "description": c.description}
                    for c in model.classes],
        "class_vecs": model.class_vecs.tolist(),
        "attention": model.attention.tolist(),
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


def load_model(source) -> VariantModel:
    payload = read_checkpoint(source, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                              "variant model")
    return VariantModel(
        tuple(payload["nodes"]),
        np.array(payload["entity_vecs"]),
        np.array(payload["entity_proj"]),
        tuple(payload["relations"]),
        np.array(payload["relation_vecs"]),
        np.array(payload["relation_proj"]),
        tuple(CohortClass(c["id"], c.get("description", ""))
              for c in payload["classes"]),
        np.array(payload["class_vecs"]),
        np.array(payload["attention"]),
        dict(payload["class_counts"]),
        VariantParams(**payload["params"]),
        tuple(payload["loss_history"]),
    )


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
