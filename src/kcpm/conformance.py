"""Footprints and footprint-overlap fitness/precision/F-score.

A footprint is the set of directly-follows pairs over an alphabet. From
it every ordered activity pair gets one of four relations: causal (a
directly precedes b but never the reverse), its mirror, parallel (both
directions observed) or unrelated. Fitness is the fraction of the log's
directed behavior the model permits; precision is the fraction of the
model's directed behavior the log exhibits.
"""
from __future__ import annotations

import enum
import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .dfg import DependencyGraph
from .errors import DataError
from .eventlog import EventLog, directly_follows_counts


class Relation(enum.Enum):
    CAUSAL = "->"
    REVERSE = "<-"
    PARALLEL = "||"
    UNRELATED = "#"


class _FootprintFields(NamedTuple):
    activities: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]


class FootprintMatrix(_FootprintFields):
    """The directly-follows pairs observed over an alphabet; every
    relation is derived from them, so it is symmetric by construction.
    Every way of making one rejects a pair over an unknown activity."""

    __slots__ = ()

    def __new__(cls, activities: tuple[str, ...],
                pairs: frozenset[tuple[str, str]]):
        known = set(activities)
        for a, b in pairs:
            if a not in known or b not in known:
                raise ValueError(f"pair ({a!r}, {b!r}) uses unknown activity")
        return tuple.__new__(cls, (activities, pairs))

    @classmethod
    def _make(cls, iterable) -> FootprintMatrix:
        return cls(*iterable)

    def relation(self, a: str, b: str) -> Relation:
        ab, ba = (a, b) in self.pairs, (b, a) in self.pairs
        if ab and ba:
            return Relation.PARALLEL
        if ab:
            return Relation.CAUSAL
        return Relation.REVERSE if ba else Relation.UNRELATED


def footprint_of_counts(activities, df: dict[tuple[str, str], int]
                        ) -> FootprintMatrix:
    """The footprint of a log from its alphabet and its directly-follows
    counts, such as a DependencyGraph mined from it holds."""
    return FootprintMatrix(tuple(sorted(activities)),
                           frozenset(p for p, n in df.items() if n > 0))


def footprint_of_log(log: EventLog) -> FootprintMatrix:
    if not log.traces:
        raise DataError("cannot compute the footprint of an empty log")
    return footprint_of_counts(log.alphabet, directly_follows_counts(log))


def footprint_of_model(dg: DependencyGraph) -> FootprintMatrix:
    return FootprintMatrix(tuple(sorted(dg.activities)), frozenset(dg.edges))


def f_score(fitness: float, precision: float) -> float:
    if fitness <= 0 or precision <= 0:
        return 0.0
    return 2 * fitness * precision / (fitness + precision)


class Deviation(NamedTuple):
    pair: tuple[str, str]
    log_relation: Relation
    model_relation: Relation


class ConformanceReport(NamedTuple):
    fitness: float
    precision: float
    f_score: float
    deviations: tuple[Deviation, ...]


def conformance(log_fp: FootprintMatrix, model_fp: FootprintMatrix) -> ConformanceReport:
    """Compare two footprints over the union of their alphabets; pairs
    absent from one side count as unrelated there. A relation differs
    exactly where a pair or its mirror is on one side only."""
    both = log_fp.pairs & model_fp.pairs
    fitness = len(both) / len(log_fp.pairs) if log_fp.pairs else 1.0
    precision = len(both) / len(model_fp.pairs) if model_fp.pairs else 1.0
    differ = log_fp.pairs ^ model_fp.pairs
    deviations = tuple(
        Deviation((a, b), log_fp.relation(a, b), model_fp.relation(a, b))
        for a, b in sorted(differ | {(b, a) for a, b in differ}))
    return ConformanceReport(fitness, precision, f_score(fitness, precision),
                             deviations)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def report_to_json(report: ConformanceReport) -> dict:
    return {
        "fitness": report.fitness,
        "precision": report.precision,
        "f_score": report.f_score,
        "deviations": [
            {"a": d.pair[0], "b": d.pair[1],
             "log": d.log_relation.value, "model": d.model_relation.value}
            for d in report.deviations
        ],
    }


def write_report_json(report: ConformanceReport, stream) -> None:
    """report_to_json(report) as JSON with sorted keys and no newline,
    byte for byte as json.dumps writes it, one deviation at a time: a
    value that a caller can nest in a larger document."""
    quote = encode_basestring_ascii
    write = stream.write
    write('{"deviations": [')
    sep = ""
    for d in report.deviations:
        write(f'{sep}{{"a": {quote(d.pair[0])}, "b": {quote(d.pair[1])}, '
              f'"log": {quote(d.log_relation.value)}, '
              f'"model": {quote(d.model_relation.value)}}}')
        sep = ", "
    write(f'], "f_score": {json.dumps(report.f_score)}, '
          f'"fitness": {json.dumps(report.fitness)}, '
          f'"precision": {json.dumps(report.precision)}}}')


def comparison_table(rows: list[tuple[str, ConformanceReport]]) -> str:
    """Fitness/precision/F-score comparison, one labeled row per log."""
    header = f"{'Event Log Type':<24} {'Fitness':>8} {'Precision':>10} {'F-Score':>8}"
    sep = "-" * len(header)
    lines = [header, sep]
    for label, rep in rows:
        lines.append(f"{label:<24} {rep.fitness:>8.3f} {rep.precision:>10.3f} "
                     f"{rep.f_score:>8.3f}")
    return "\n".join(lines) + "\n"
