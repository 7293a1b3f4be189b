"""Process variant classification by class profiles over the event log
fused with a knowledge graph (lpg.build_lpg).

A case's features are the activity nodes of its events and the objects
of those nodes' KG triples: its activities lifted one hop into the
knowledge graph, so that two activities the KG files under one class
share a feature. A class's profile counts, per feature, the labeled
cases of that class that have it. A case scores a class by the sum, over
its features, of count / class size, normalised so that its scores sum
to 1; the highest score wins, ties going to the least class id. A case
with no feature in any profile gets the class prior and is flagged.
Scores are taken exactly, as integers over the least common multiple of
the class sizes, and only the normalised score is a float.

Profile vectors per trace follow Song, Guenther & van der Aalst, *Trace
clustering in process mining* (BPM 2008), and Bose & van der Aalst,
*Context aware trace clustering* (BPM 2009).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from ._checkpoint import (checkpoint_list, is_number, read_checkpoint,
                          write_checkpoint)
from .errors import DataError
from .logio import csv_rows
from .lpg import FusedGraph

CHECKPOINT_FORMAT = "kcpm-variant-profile"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class VariantModel:
    class_counts: dict[str, int]         # class id -> its labeled cases
    profiles: dict[str, dict[str, int]]  # class id -> feature -> cases with it
    loss_history: tuple[float, ...] = ()

    def class_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.class_counts))

    def priors(self) -> dict[str, float]:
        total = sum(self.class_counts.values())
        return {cid: self.class_counts[cid] / total for cid in self.class_ids()}


def _raw_scorer(model: VariantModel):
    """features -> one integer per class id in order: the sum over the
    features of count / class size, times the least common multiple of
    the class sizes."""
    lcm = math.lcm(*model.class_counts.values())
    weighted = [(lcm // model.class_counts[cid], model.profiles[cid])
                for cid in model.class_ids()]
    return lambda features: [w * sum(profile.get(f, 0) for f in features)
                             for w, profile in weighted]


def train_variant_model(graph: FusedGraph,
                        labeled: dict[str, str]) -> VariantModel:
    """The class profiles of the labeled cases of a fused graph. Its one
    loss is the mean -log of each labeled case's normalised score for its
    own class, finite since a case's features are in its class profile."""
    if len(set(labeled.values())) < 2:
        raise DataError("need labels from at least two classes")
    features = graph.case_features()
    counts: dict[str, int] = {}
    profiles: dict[str, dict[str, int]] = {}
    for case_id, cid in labeled.items():
        if case_id not in features:
            raise DataError(f"labeled case {case_id!r} is not in the graph")
        counts[cid] = counts.get(cid, 0) + 1
        profile = profiles.setdefault(cid, {})
        for f in features[case_id]:
            profile[f] = profile.get(f, 0) + 1
    model = VariantModel(counts, profiles)
    raw_scores = _raw_scorer(model)
    column = {cid: i for i, cid in enumerate(model.class_ids())}
    losses = []
    for case_id, cid in labeled.items():
        raw = raw_scores(features[case_id])
        losses.append(-math.log(raw[column[cid]] / sum(raw)))
    return replace(model, loss_history=(math.fsum(losses) / len(losses),))


@dataclass(frozen=True)
class VariantPartition:
    assignment: dict[str, str]
    scores: dict[str, dict[str, float]]
    prior_assigned: frozenset[str] = frozenset()

    def __post_init__(self):
        argmax: dict[int, str] = {}  # id of a score map -> its least argmax
        for case_id, cls in self.assignment.items():
            scores = self.scores[case_id]
            winner = argmax.get(id(scores))
            if winner is None:
                best = max(scores.values())
                winner = argmax[id(scores)] = min(
                    c for c, s in scores.items() if s >= best - 1e-12)
            if cls != winner:
                raise ValueError(
                    f"case {case_id!r} assigned {cls!r}, argmax is {winner!r}")

    def cases_of(self, class_id: str) -> frozenset[str]:
        return frozenset(c for c, cls in self.assignment.items()
                         if cls == class_id)


def classify_log(model: VariantModel, graph: FusedGraph) -> VariantPartition:
    """Assign every case of the fused graph to exactly one class. Each
    distinct feature set is scored once, and the cases that have it share
    its score map, class and prior flag; no score map is ever mutated."""
    class_ids = model.class_ids()
    raw_scores = _raw_scorer(model)
    prior = [model.class_counts[cid] for cid in class_ids]
    scored: dict[frozenset[str], tuple[dict[str, float], str, bool]] = {}
    assignment: dict[str, str] = {}
    scores: dict[str, dict[str, float]] = {}
    fallback: set[str] = set()
    for case_id, features in graph.case_features().items():
        found = scored.get(features)
        if found is None:
            raw = raw_scores(features)
            unseen = not any(raw)
            if unseen:
                raw = prior
            total = sum(raw)
            found = scored[features] = (
                {cid: r / total for cid, r in zip(class_ids, raw)},
                class_ids[raw.index(max(raw))], unseen)
        scores[case_id], assignment[case_id], unseen = found
        if unseen:
            fallback.add(case_id)
    return VariantPartition(assignment, scores, frozenset(fallback))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_model(model: VariantModel, stream) -> None:
    write_checkpoint(stream, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, {
        "class_counts": model.class_counts,
        "profiles": model.profiles,
        "loss_history": list(model.loss_history),
    })


def _is_count(x) -> bool:
    return type(x) is int and x >= 1


def load_model(source) -> VariantModel:
    """A variant profile checkpoint: class_counts maps at least one class
    id to its positive count, profiles maps exactly those ids to feature
    counts between 1 and the class's count, and loss_history is a list
    of numbers; a file that is not raises DataError naming the key."""
    kind = "variant profile"
    payload = read_checkpoint(source, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                              kind)
    counts = payload.get("class_counts")
    if (not isinstance(counts, dict) or not counts
            or not all(map(_is_count, counts.values()))):
        raise DataError(f"{kind} checkpoint: class_counts must map class ids "
                        "to positive counts")
    profiles = payload.get("profiles")
    if (not isinstance(profiles, dict) or profiles.keys() != counts.keys()
            or not all(isinstance(p, dict) and all(
                _is_count(n) and n <= counts[cid] for n in p.values())
                for cid, p in profiles.items())):
        raise DataError(f"{kind} checkpoint: profiles must map each class id "
                        "to feature counts between 1 and its class count")
    history = checkpoint_list(payload, "loss_history", is_number, kind)
    return VariantModel(counts, profiles, tuple(history))


def write_partition_json(p: VariantPartition, stream) -> None:
    """variants.json: the assignment, the sorted prior_assigned cases and
    every case's scores, as one line of JSON byte for byte as json.dumps
    with sort_keys writes it, each distinct score map encoded once."""
    # json.dumps(s, sort_keys=True) for each map, through one encoder
    encode = json.JSONEncoder(sort_keys=True).encode
    maps = {id(s): s for s in p.scores.values()}
    encoded = {key: encode(s) for key, s in maps.items()}
    scores = ", ".join(f"{encode_basestring_ascii(case_id)}: {encoded[id(s)]}"
                       for case_id, s in sorted(p.scores.items()))
    stream.write(
        f'{{"assignment": {json.dumps(p.assignment, sort_keys=True)}, '
        f'"prior_assigned": {json.dumps(sorted(p.prior_assigned))}, '
        f'"scores": {{{scores}}}}}\n')


def partition_to_csv(p: VariantPartition, stream) -> None:
    """variants.csv: one row per case, the score cells of each distinct
    score map formatted once."""
    import csv

    maps = {id(s): s for s in p.scores.values()}
    class_ids = sorted({c for s in maps.values() for c in s})
    cells = {key: [repr(s.get(c, 0.0)) for c in class_ids]
             for key, s in maps.items()}
    w = csv.writer(stream)
    w.writerow(["case_id", "class", *(f"score_{c}" for c in class_ids)])
    for case_id in sorted(p.assignment):
        w.writerow([case_id, p.assignment[case_id],
                    *cells[id(p.scores[case_id])]])


def read_labels_csv(source) -> dict[str, str]:
    """labels CSV: case_id, class columns."""
    with csv_rows(source, ("case_id", "class")) as (columns, rows):
        case, label = columns["case_id"], columns["class"]
        return {row[case]: row[label] for _, row in rows}
