"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the package's own code paths: counting is done
with naive index loops, rule statistics by exhaustive enumeration over
the raw triple list, so agreement with the library is meaningful.
"""
import csv
import io
from collections import Counter
from datetime import datetime
from itertools import product

import numpy as np


def naive_df_counts(traces):
    """traces: list of activity-label lists."""
    counts = Counter()
    for acts in traces:
        for i in range(len(acts) - 1):
            counts[(acts[i], acts[i + 1])] += 1
    return dict(counts)


def naive_ef_counts(traces):
    counts = Counter()
    for acts in traces:
        for i in range(len(acts)):
            for j in range(i + 1, len(acts)):
                counts[(acts[i], acts[j])] += 1
    return dict(counts)


def naive_dependency(ab, ba):
    return (ab - ba) / (ab + ba + 1)


def naive_l1_measures(traces):
    counts = Counter()
    for acts in traces:
        for i in range(len(acts) - 1):
            if acts[i] == acts[i + 1]:
                counts[acts[i]] += 1
    return {a: n / (n + 1) for a, n in counts.items()}


def naive_l2_measures(traces):
    aba = Counter()
    for acts in traces:
        for i in range(len(acts) - 2):
            if acts[i] == acts[i + 2] and acts[i] != acts[i + 1]:
                aba[(acts[i], acts[i + 1])] += 1
    measures = {}
    for a, b in set(aba) | {(b, a) for a, b in aba}:
        total = aba.get((a, b), 0) + aba.get((b, a), 0)
        measures[(a, b)] = total / (total + 1)
    return measures


def naive_edges(traces, dependency_threshold, frequency_threshold):
    """Edge set per the mining contract: df count at threshold, positive
    measure at threshold."""
    df = naive_df_counts(traces)
    edges = set()
    for (a, b), n in df.items():
        m = naive_dependency(n, df.get((b, a), 0))
        if n >= frequency_threshold and m > 0 and m >= dependency_threshold:
            edges.add((a, b))
    return edges


# ---------------------------------------------------------------------------
# Rule mining
# ---------------------------------------------------------------------------

def naive_body_pairs(body_predicates, triples):
    """Exhaustive chain enumeration over the raw triple list."""
    def extend(prefix_pairs, predicate):
        out = set()
        for x, mid in prefix_pairs:
            for (s, p, o) in triples:
                if p == predicate and s == mid:
                    out.add((x, o))
        return out

    pairs = {(s, o) for (s, p, o) in triples if p == body_predicates[0]}
    for predicate in body_predicates[1:]:
        pairs = extend(pairs, predicate)
    return pairs


def naive_rule_stats(body_predicates, head_predicate, triples):
    pairs = naive_body_pairs(body_predicates, triples)
    head = {(s, o) for (s, p, o) in triples if p == head_predicate}
    support = sum(1 for pair in pairs if pair in head)
    std = support / len(pairs) if pairs else 0.0
    head_subjects = {s for s, _ in head}
    pca_den = sum(1 for x, _ in pairs if x in head_subjects)
    pca = support / pca_den if pca_den else 0.0
    return support, std, pca


def naive_mine(triples, max_len, min_support, min_pca):
    """All qualifying rules as (body_predicates, head, support, std, pca)."""
    predicates = sorted({p for (_, p, _) in triples})
    found = []
    for n in range(1, max_len + 1):
        for body in product(predicates, repeat=n):
            for head in predicates:
                if n == 1 and head == body[0]:
                    continue
                support, std, pca = naive_rule_stats(body, head, triples)
                if support >= min_support and pca >= min_pca - 1e-12:
                    found.append((body, head, support, std, pca))
    return found


def naive_body_confidences(body_predicates, conf):
    """(x, y) -> best product of body-fact confidences, by enumerating
    every chain of facts; conf maps (s, p, o) -> confidence and products
    are taken left to right."""
    paths = [((s, o), c) for (s, p, o), c in conf.items()
             if p == body_predicates[0]]
    for predicate in body_predicates[1:]:
        paths = [((x, o), c * c2) for (x, mid), c in paths
                 for (s, p, o), c2 in conf.items()
                 if p == predicate and s == mid]
    best = {}
    for pair, c in paths:
        best[pair] = max(best.get(pair, 0.0), c)
    return best


def naive_closure(rules, triples, eps=1e-12):
    """Max-product forward chaining with no cap: every rule re-runs over
    every body chain until no fact rises by more than eps. rules are
    (body_predicates, head_predicate, pca_confidence); returns
    (s, p, o) -> confidence."""
    conf = {t: 1.0 for t in triples}
    changed = True
    while changed:
        changed = False
        for body, head, pca in rules:
            for (x, y), c in naive_body_confidences(body, conf).items():
                if c * pca > conf.get((x, head, y), 0.0) + eps:
                    conf[(x, head, y)] = c * pca
                    changed = True
    return conf


# ---------------------------------------------------------------------------
# Log repair
# ---------------------------------------------------------------------------

def naive_remove_chaotic(sequences, forbidden, must_precede, strict):
    """Remove the leftmost violating event and rescan from the start,
    until no event violates. forbidden and must_precede are sets of
    (before, after) activity pairs. Returns the repaired sequences and
    (trace, input index, activity) of each removal, in order."""
    out, removed = [], []
    for n, acts in enumerate(sequences):
        work = list(enumerate(acts))
        while True:
            for i, (_, a) in enumerate(work):
                nxt = work[i + 1][1] if i + 1 < len(work) else None
                prefix = {b for _, b in work[:i]}
                if (a, nxt) in forbidden or (strict and any(
                        (p, a) in must_precede and p not in prefix
                        for p, _ in must_precede)):
                    removed.append((n, work[i][0], a))
                    del work[i]
                    break
            else:
                break
        out.append([a for _, a in work])
    return out, removed


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------

def dense_relations(alphabet, present):
    """Every ordered pair of the alphabet mapped to its relation symbol,
    from the set of directly-follows pairs present."""
    rel = {}
    for a in sorted(alphabet):
        for b in sorted(alphabet):
            ab, ba = (a, b) in present, (b, a) in present
            rel[(a, b)] = "||" if (ab and ba) else "->" if ab else \
                "<-" if ba else "#"
    return rel


def naive_footprint(traces):
    df = naive_df_counts(traces)
    return dense_relations({a for acts in traces for a in acts},
                           {p for p, n in df.items() if n > 0})


def dense_conformance(log_side, model_side):
    """The all-pairs footprint comparison over the union alphabet, with
    pairs outside a side's alphabet counted as '#' there; each side is
    (alphabet, directly-follows pairs). Returns the report's JSON form."""
    log_rel, model_rel = dense_relations(*log_side), dense_relations(*model_side)
    alphabet = sorted(set(log_side[0]) | set(model_side[0]))
    directed = [{p for p, r in rel.items() if r in ("->", "||")}
                for rel in (log_rel, model_rel)]
    both = directed[0] & directed[1]
    fitness = len(both) / len(directed[0]) if directed[0] else 1.0
    precision = len(both) / len(directed[1]) if directed[1] else 1.0
    f = (2 * fitness * precision / (fitness + precision)
         if fitness > 0 and precision > 0 else 0.0)
    deviations = []
    for a in alphabet:
        for b in alphabet:
            lr, mr = log_rel.get((a, b), "#"), model_rel.get((a, b), "#")
            if lr != mr:
                deviations.append({"a": a, "b": b, "log": lr, "model": mr})
    return {"fitness": fitness, "precision": precision, "f_score": f,
            "deviations": deviations}


# ---------------------------------------------------------------------------
# Embedding training: per-row references
# ---------------------------------------------------------------------------
# The trainers collapse repeated rows and sum all of a parameter's row
# contributions in one scatter. These are the direct per-row forms, one
# np.add.at per contribution, that those must agree with.

def add_at_scatter(n, idx, rows):
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, np.asarray(idx, dtype=np.intp), rows)
    return out


def _hinge_distances(E, r, T, heads, tails, buckets):
    u = E[heads] + r + T[buckets] - E[tails]
    return u, np.linalg.norm(u, axis=1)


def per_row_hinge_loss(E, r, T, heads, tails, buckets, neg_tails, margin):
    """Mean margin violation over every (row, corrupted tail) pair;
    neg_tails has one row of k corrupted tails per training row."""
    k = neg_tails.shape[1]
    _, d_pos = _hinge_distances(E, r, T, heads, tails, buckets)
    _, d_neg = _hinge_distances(E, r, T, np.repeat(heads, k),
                                neg_tails.reshape(-1), np.repeat(buckets, k))
    viol = margin + np.repeat(d_pos, k) - d_neg
    return float(np.mean(np.maximum(0.0, viol)))


def per_row_hinge_grads(E, r, T, heads, tails, buckets, neg_tails, margin):
    """(gE, gr, gT), and the same scatter taken over the absolute row
    terms: the size of what is summed, which bounds its rounding error
    where the terms cancel."""
    k = neg_tails.shape[1]
    nh, nb, nt = np.repeat(heads, k), np.repeat(buckets, k), neg_tails.reshape(-1)
    u_pos, d_pos = _hinge_distances(E, r, T, heads, tails, buckets)
    u_neg, d_neg = _hinge_distances(E, r, T, nh, nt, nb)
    active = (margin + np.repeat(d_pos, k) - d_neg) > 0
    scale = 1.0 / len(nt)
    n_active = active.reshape(-1, k).sum(axis=1)
    unit_pos = np.where((d_pos > 0)[:, None],
                        u_pos / np.maximum(d_pos, 1e-12)[:, None], 0.0)
    gp = scale * n_active[:, None] * unit_pos
    gn = np.where((active & (d_neg > 0))[:, None],
                  -scale * u_neg / np.maximum(d_neg, 1e-12)[:, None], 0.0)

    def scatter(gp, gn, sign):
        gE = np.zeros_like(E)
        np.add.at(gE, heads, gp)
        np.add.at(gE, nh, gn)
        np.add.at(gE, tails, sign * gp)
        np.add.at(gE, nt, sign * gn)
        gT = np.zeros_like(T)
        np.add.at(gT, buckets, gp)
        np.add.at(gT, nb, gn)
        return gE, gp.sum(axis=0) + gn.sum(axis=0), gT

    return scatter(gp, gn, -1), scatter(np.abs(gp), np.abs(gn), 1)


def _per_row_proj_dist(E, Ep, R, Rp, hi, ri, ti):
    h, hp = E[hi], Ep[hi]
    t, tp = E[ti], Ep[ti]
    r, rp = R[ri], Rp[ri]
    ch = (hp * h).sum(axis=1, keepdims=True)
    ct = (tp * t).sum(axis=1, keepdims=True)
    u = h + ch * rp + r - t - ct * rp
    return u, (u ** 2).sum(axis=1), ch, ct


def per_row_joint_grads(E, Ep, R, Rp, U, A, edges, ce_data, margin, w_s, w_l):
    """Gradients of the variant trainer's joint loss with every
    (edge, negative) row materialized and one np.add.at per term; edges
    is (heads, rels, tails, neg_tails) as the trainer takes it. The
    attention part reuses the trainer's forward pass."""
    from kcpm.variants import _attention_forward

    heads, rels, tails, neg_tails = edges
    k = neg_tails.shape[1]
    ph, pr, pt = np.repeat(heads, k), np.repeat(rels, k), np.repeat(tails, k)
    nt = neg_tails.reshape(-1)
    idx, mask, labels, Y = ce_data
    dim = E.shape[1]
    gE, gEp, gR, gRp = (np.zeros_like(x) for x in (E, Ep, R, Rp))
    gU, gA = np.zeros_like(U), np.zeros_like(A)
    if len(ph):
        scale = w_s / len(ph)
        u_pos, d_pos, ch_pos, ct_pos = _per_row_proj_dist(E, Ep, R, Rp, ph, pr, pt)
        u_neg, d_neg, ch_neg, ct_neg = _per_row_proj_dist(E, Ep, R, Rp, ph, pr, nt)
        active = (margin + d_pos - d_neg) > 0
        for sign, u, ti, ch, ct in ((1.0, u_pos, pt, ch_pos, ct_pos),
                                    (-1.0, u_neg, nt, ch_neg, ct_neg)):
            gu = np.where(active[:, None], sign * scale * 2.0 * u, 0.0)
            rp = Rp[pr]
            s_r = (gu * rp).sum(axis=1, keepdims=True)
            np.add.at(gE, ph, gu + s_r * Ep[ph])
            np.add.at(gEp, ph, s_r * E[ph])
            np.add.at(gE, ti, -(gu + s_r * Ep[ti]))
            np.add.at(gEp, ti, -s_r * E[ti])
            np.add.at(gR, pr, gu)
            np.add.at(gRp, pr, (ch - ct) * gu)
    V = E[idx] * mask[:, :, None]
    alpha, diff, p = _attention_forward(V, mask, U, A)
    G = (p - Y) * (w_l / len(labels))
    dDiff = G[:, :, None] * (-2.0 * diff)
    gU += -dDiff.sum(axis=0)
    dAlpha = np.einsum("mcd,mkd->mkc", dDiff, V)
    dV = np.einsum("mkc,mcd->mkd", alpha, dDiff)
    dz = alpha * (dAlpha - (alpha * dAlpha).sum(axis=1, keepdims=True))
    dz = np.where(mask[:, :, None], dz, 0.0)
    gA += np.einsum("mkd,mkc,ce->de", V, dz, U)
    gU += np.einsum("mkc,mke->ce", dz, V @ A)
    dV += np.einsum("mkc,dc->mkd", dz, A @ U.T)
    dV *= mask[:, :, None]
    np.add.at(gE, idx.reshape(-1), dV.reshape(-1, dim))
    return gE, gEp, gR, gRp, gU, gA


def two_call_descend(params, loss, grads, learning_rate, epochs, project=None):
    """The descent loop with separate loss(params) -> float and
    grads(params) -> arrays, so every gradient runs its own forward
    pass; the fused descend must take the same steps."""
    lr = learning_rate
    prev = loss(params)
    history = []
    for _ in range(epochs):
        g = grads(params)
        accepted = prev
        for _attempt in range(20):
            cand = tuple(p - lr * gp for p, gp in zip(params, g))
            if project is not None:
                cand = project(cand)
            cand_loss = loss(cand)
            if cand_loss <= prev:
                params = cand
                accepted = cand_loss
                lr = min(lr * 1.1, learning_rate)
                break
            lr *= 0.5
        history.append(accepted)
        prev = accepted
    return params, history


# ---------------------------------------------------------------------------
# Variant classification: one attention call per case
# ---------------------------------------------------------------------------

def per_case_classify(model, lpg, log):
    """(assignment, scores, prior_assigned) with each case scored by an
    attention call of its own over its event embeddings. An event unknown
    to the model falls back to its activity node, an unknown activity is
    skipped, and a case left with no events gets the class prior."""
    from kcpm.variants import (_attention_forward, _instance_of_targets,
                               lpg_events_by_case)

    by_case = lpg_events_by_case(lpg)
    instance_of = _instance_of_targets(lpg)
    assignment, scores, prior = {}, {}, set()
    for t in log.traces:
        rows = []
        for node in by_case.get(t.case_id, []):
            if model.knows_node(node):
                rows.append(model.node_vec(node))
                continue
            act_node = instance_of.get(node)
            if act_node is not None and model.knows_node(act_node):
                rows.append(model.node_vec(act_node))
        if rows:
            V = np.stack(rows)[None, :, :]
            _, _, p = _attention_forward(V, np.ones((1, len(rows)), dtype=bool),
                                         model.class_vecs, model.attention)
            case_scores = {cid: float(x)
                           for cid, x in zip(model.class_ids(), p[0])}
        else:
            case_scores = model.priors()
            prior.add(t.case_id)
        scores[t.case_id] = case_scores
        best = max(case_scores.values())
        assignment[t.case_id] = sorted(
            c for c, s in case_scores.items() if s >= best - 1e-12)[0]
    return assignment, scores, frozenset(prior)


def _iso_timestamp(text):
    t = text.strip()
    return datetime.fromisoformat(t[:-1] + "+00:00" if t.endswith("Z") else t)


def _infer_cell(text):
    """One cell typed on its own: int, float, bool, ISO timestamp, else
    string."""
    def as_bool(t):
        if t.lower() not in ("true", "false"):
            raise ValueError(t)
        return t.lower() == "true"

    for parse in (int, float, as_bool, _iso_timestamp):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def per_cell_parse_csv_auto(text):
    """The former logio.parse_csv_auto on CSV text: a DictReader pass that
    types every extra cell on its own, so one column may hold several
    kinds."""
    from kcpm.eventlog import Event, make_log

    canonical = ("case_id", "activity", "timestamp", "resource")
    events = []
    for row in csv.DictReader(io.StringIO(text, newline="")):
        attrs = {col: _infer_cell(cell) for col, cell in row.items()
                 if col not in canonical and cell != ""}
        events.append(Event(row["case_id"], row["activity"],
                            _iso_timestamp(row["timestamp"]),
                            row.get("resource") or None, attrs))
    return make_log(events)
