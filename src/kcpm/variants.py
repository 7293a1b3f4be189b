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


def _proj_dist(E, Ep, R, Rp, hi, ri, ti, k=1):
    """Projected translation residual and squared distance per row; edge
    i of (hi, ri) is paired with the k tails ti[i*k:(i+1)*k]."""
    h, hp, r, rp = E[hi], Ep[hi], R[ri], Rp[ri]
    ch = (hp * h).sum(axis=1, keepdims=True)
    head, rp, ch = (np.repeat(x, k, axis=0) for x in (h + ch * rp + r, rp, ch))
    t, tp = E[ti], Ep[ti]
    ct = (tp * t).sum(axis=1, keepdims=True)
    u = head - t - ct * rp
    return u, (u ** 2).sum(axis=1), ch, ct


def _joint_loss(E, Ep, R, Rp, U, A, edges, ce_data, margin, w_s, w_l) -> float:
    heads, rels, tails, neg_tails = edges
    idx, mask, labels, _ = ce_data
    total = 0.0
    if neg_tails.size:
        k = neg_tails.shape[1]
        _, d_pos, _, _ = _proj_dist(E, Ep, R, Rp, heads, rels, tails)
        _, d_neg, _, _ = _proj_dist(E, Ep, R, Rp, heads, rels,
                                    neg_tails.reshape(-1), k)
        viol = margin + np.repeat(d_pos, k) - d_neg
        total += w_s * float(np.mean(np.maximum(0.0, viol)))
    V = E[idx] * mask[:, :, None]
    _, _, p = _attention_forward(V, mask, U, A)
    ce = -np.mean(np.log(np.maximum(p[np.arange(len(labels)), labels], 1e-300)))
    return total + w_l * float(ce)


def _joint_grads(E, Ep, R, Rp, U, A, edges, ce_data, margin, w_s, w_l):
    """Gradients of _joint_loss. Each parameter's row contributions are
    gathered in a fixed order (positive heads, positive tails, negative
    heads, negative tails, then event rows) and summed by one scatter."""
    heads, rels, tails, neg_tails = edges
    idx, mask, labels, Y = ce_data
    dim = E.shape[1]
    gU = np.zeros_like(U)
    gA = np.zeros_like(A)
    e_idx, e_rows, ep_idx, ep_rows, r_idx, r_rows, rp_rows = ([] for _ in range(7))

    if neg_tails.size:
        k = neg_tails.shape[1]
        scale = w_s / neg_tails.size
        pos = _proj_dist(E, Ep, R, Rp, heads, rels, tails)
        u_neg, d_neg, ch_neg, ct_neg = _proj_dist(
            E, Ep, R, Rp, heads, rels, neg_tails.reshape(-1), k)
        active = (margin + np.repeat(pos[1], k) - d_neg) > 0
        # only margin-violating rows: the others add exact zeros, which
        # leave every sum (started at +0.0) unchanged
        rows = np.flatnonzero(active)
        edge = rows // k
        ph, pr = heads[edge], rels[edge]
        u_pos, ch_pos, ct_pos = pos[0][edge], pos[2][edge], pos[3][edge]
        rp = Rp[pr]
        for sign, u, ti, ch, ct in (
            (1.0, u_pos, tails[edge], ch_pos, ct_pos),
            (-1.0, u_neg[rows], neg_tails.reshape(-1)[rows], ch_neg[rows],
             ct_neg[rows]),
        ):
            gu = sign * scale * 2.0 * u
            s_r = (gu * rp).sum(axis=1, keepdims=True)  # gu . r_p per row
            e_idx += [ph, ti]
            e_rows += [gu + s_r * Ep[ph], -(gu + s_r * Ep[ti])]
            ep_idx += [ph, ti]
            ep_rows += [s_r * E[ph], -s_r * E[ti]]
            r_idx.append(pr)
            r_rows.append(gu)
            rp_rows.append((ch - ct) * gu)

    V = E[idx] * mask[:, :, None]
    alpha, diff, p = _attention_forward(V, mask, U, A)
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
    e_idx.append(idx.reshape(-1))
    e_rows.append(dV.reshape(-1, dim))

    def scatter(n, idx_parts, row_parts):
        if not row_parts:
            return np.zeros((n, dim))
        return scatter_rows(n, np.concatenate(idx_parts),
                            np.concatenate(row_parts))

    gE = scatter(len(E), e_idx, e_rows)
    gEp = scatter(len(Ep), ep_idx, ep_rows)
    gR = scatter(len(R), r_idx, r_rows)
    gRp = scatter(len(Rp), r_idx, rp_rows)
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

    objective = (edges, ce_data, params.margin, params.structure_weight,
                 params.label_weight)
    (E, Ep, R, Rp, U, A), history = descend(
        (E, Ep, R, Rp, U, A),
        lambda p: _joint_loss(*p, *objective),
        lambda p: _joint_grads(*p, *objective),
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


def _case_vectors(model: VariantModel, lpg: LabeledPropertyGraph,
                  event_nodes: list[str],
                  instance_of: dict[str, str]) -> np.ndarray:
    """Embeddings of a case's events; events unknown to the model fall
    back to their activity node, unknown activities are skipped."""
    rows = []
    for node in event_nodes:
        if model.knows_node(node):
            rows.append(model.node_vec(node))
            continue
        act_node = instance_of.get(node)
        if act_node is not None and model.knows_node(act_node):
            rows.append(model.node_vec(act_node))
    if not rows:
        return np.zeros((0, model.params.dim))
    return np.stack(rows)


def _score_vectors(model: VariantModel, V: np.ndarray) -> dict[str, float]:
    mask = np.ones((1, len(V)), dtype=bool)
    _, _, p = _attention_forward(V[None, :, :], mask, model.class_vecs,
                                 model.attention)
    return {cid: float(x) for cid, x in zip(model.class_ids(), p[0])}


def edge_score(model: VariantModel, head: str, relation: str,
               tail: str) -> float:
    """Plausibility of a graph edge under the trained embeddings:
    -||h_perp + r - t_perp||^2, higher is more plausible."""
    hi = model._node_index[head]
    ti = model._node_index[tail]
    ri = model.relations.index(relation)
    u, d, _, _ = _proj_dist(model.entity_vecs, model.entity_proj,
                            model.relation_vecs, model.relation_proj,
                            np.array([hi]), np.array([ri]), np.array([ti]))
    return -float(d[0])


def score_trace(model: VariantModel, lpg: LabeledPropertyGraph,
                case_id: str) -> dict[str, float]:
    """Per-class membership probabilities for one case; they sum to 1."""
    by_case = lpg_events_by_case(lpg)
    if case_id not in by_case:
        raise DataError(f"case {case_id!r} is not in the graph")
    V = _case_vectors(model, lpg, by_case[case_id], _instance_of_targets(lpg))
    if len(V) == 0:
        return model.priors()
    return _score_vectors(model, V)


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
    by_case = lpg_events_by_case(lpg)
    instance_of = _instance_of_targets(lpg)
    assignment: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    fallback: set[str] = set()
    for t in log.traces:
        nodes = by_case.get(t.case_id, [])
        V = _case_vectors(model, lpg, nodes, instance_of)
        if len(V) == 0:
            case_scores = model.priors()
            fallback.add(t.case_id)
        else:
            case_scores = _score_vectors(model, V)
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
    import csv
    import io
    import os

    if isinstance(source, (str, os.PathLike)):
        fh = open(source, newline="", encoding="utf-8")
    elif isinstance(source, bytes):
        fh = io.StringIO(source.decode("utf-8"))
    else:
        fh = source
    reader = csv.DictReader(fh)
    if not reader.fieldnames or not {"case_id", "class"} <= set(reader.fieldnames):
        raise DataError("labels CSV needs case_id and class columns")
    return {row["case_id"]: row["class"] for row in reader}
