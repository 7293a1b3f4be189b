"""Process variant classification by class profiles over the case
features of the event log fused with a knowledge graph
(lpg.build_lpg's case_features).

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
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DataError, ParseError
from .logio import csv_rows
from .lpg import FusedGraph

CHECKPOINT_FORMAT = "kcpm-variant-profile"
CHECKPOINT_VERSION = 1


class VariantModel(NamedTuple):
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
    features = graph.case_features
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
    return model._replace(loss_history=(math.fsum(losses) / len(losses),))


class _PartitionFields(NamedTuple):
    assignment: dict[str, str]
    scores: dict[str, dict[str, float]]
    prior_assigned: frozenset[str]


class VariantPartition(_PartitionFields):
    """Every way of making one rejects a case assigned other than its
    least argmax class."""

    __slots__ = ()

    def __new__(cls, assignment: dict[str, str],
                scores: dict[str, dict[str, float]],
                prior_assigned: frozenset[str] = frozenset()):
        argmax: dict[int, str] = {}  # id of a score map -> its least argmax
        for case_id, label in assignment.items():
            case_scores = scores[case_id]
            winner = argmax.get(id(case_scores))
            if winner is None:
                best = max(case_scores.values())
                winner = argmax[id(case_scores)] = min(
                    c for c, s in case_scores.items() if s >= best - 1e-12)
            if label != winner:
                raise ValueError(
                    f"case {case_id!r} assigned {label!r}, argmax is {winner!r}")
        return tuple.__new__(cls, (assignment, scores, prior_assigned))

    @classmethod
    def _make(cls, iterable) -> VariantPartition:
        return cls(*iterable)

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
    for case_id, features in graph.case_features.items():
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
    """The checkpoint: the format/version header and the model's fields,
    as one sorted-key JSON line."""
    # json.dumps runs the C encoder; json.dump to a stream does not
    stream.write(json.dumps({
        "format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
        "class_counts": model.class_counts,
        "profiles": model.profiles,
        "loss_history": list(model.loss_history),
    }, sort_keys=True))
    stream.write("\n")


def _read_checkpoint(source) -> dict:
    """Payload of a checkpoint file path or text stream, after checking
    its header."""
    try:
        if isinstance(source, str):
            with open(source, encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.load(source)
    except json.JSONDecodeError as exc:
        raise DataError(
            f"variant profile checkpoint is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        payload = {}
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise DataError("not a variant profile checkpoint: "
                        f"{payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataError(
            f"unsupported checkpoint version {payload.get('version')!r}")
    return payload


def _is_count(x) -> bool:
    return type(x) is int and x >= 1


def load_model(source) -> VariantModel:
    """A variant profile checkpoint: class_counts maps at least one class
    id to its positive count, profiles maps exactly those ids to feature
    counts between 1 and the class's count, and loss_history is a list
    of numbers; a file that is not raises DataError naming the key."""
    kind = "variant profile"
    payload = _read_checkpoint(source)
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
    history = payload.get("loss_history")
    # a JSON number: an int or a float, not a bool
    if (not isinstance(history, list)
            or not all(type(x) in (int, float) for x in history)):
        raise DataError(f"{kind} checkpoint: loss_history is malformed")
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
    """labels CSV: case_id, class columns, one row per labeled case. An
    empty cell or a case labeled twice is a ParseError naming the row."""
    with csv_rows(source, ("case_id", "class")) as (columns, rows):
        case, label = columns["case_id"], columns["class"]
        labels: dict[str, str] = {}
        for rownum, row in rows:
            case_id, cid = row[case], row[label]
            if not case_id or not cid:
                column = "class" if case_id else "case_id"
                raise ParseError(f"row {rownum}: empty {column}")
            if case_id in labels:
                raise ParseError(f"row {rownum}: case {case_id!r} is labeled "
                                 "twice")
            labels[case_id] = cid
        return labels
