"""Footprint matrices and footprint-overlap fitness/precision/F-score.

Every ordered activity pair gets one of four relations: causal (a
directly precedes b but never the reverse), its mirror, parallel (both
directions observed) or unrelated. Fitness is the fraction of the log's
directed behavior the model permits; precision is the fraction of the
model's directed behavior the log exhibits.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .dfg import DependencyGraph
from .errors import DataError
from .eventlog import EventLog, directly_follows_counts


class Relation(enum.Enum):
    CAUSAL = "->"
    REVERSE = "<-"
    PARALLEL = "||"
    UNRELATED = "#"


@dataclass(frozen=True)
class FootprintMatrix:
    activities: tuple[str, ...]
    relation: dict[tuple[str, str], Relation]

    def __post_init__(self):
        for a in self.activities:
            for b in self.activities:
                rel = self.relation.get((a, b))
                if rel is None:
                    raise ValueError(f"relation undefined for ({a!r}, {b!r})")
                mirror = self.relation.get((b, a))
                expect = {
                    Relation.CAUSAL: Relation.REVERSE,
                    Relation.REVERSE: Relation.CAUSAL,
                    Relation.PARALLEL: Relation.PARALLEL,
                    Relation.UNRELATED: Relation.UNRELATED,
                }[rel]
                if mirror is not expect:
                    raise ValueError(
                        f"asymmetric footprint at ({a!r}, {b!r}): {rel} vs {mirror}")


def _footprint_from_pairs(activities, present: set[tuple[str, str]]) -> FootprintMatrix:
    acts = tuple(sorted(activities))
    relation = {}
    for a in acts:
        for b in acts:
            ab, ba = (a, b) in present, (b, a) in present
            if ab and ba:
                relation[(a, b)] = Relation.PARALLEL
            elif ab:
                relation[(a, b)] = Relation.CAUSAL
            elif ba:
                relation[(a, b)] = Relation.REVERSE
            else:
                relation[(a, b)] = Relation.UNRELATED
    return FootprintMatrix(acts, relation)


def footprint_of_log(log: EventLog) -> FootprintMatrix:
    if not log.traces:
        raise DataError("cannot compute the footprint of an empty log")
    df = directly_follows_counts(log)
    return _footprint_from_pairs(log.alphabet, {p for p, n in df.items() if n > 0})


def footprint_of_model(dg: DependencyGraph) -> FootprintMatrix:
    return _footprint_from_pairs(dg.activities, set(dg.edges))


def f_score(fitness: float, precision: float) -> float:
    if fitness <= 0 or precision <= 0:
        return 0.0
    return 2 * fitness * precision / (fitness + precision)


@dataclass(frozen=True)
class Deviation:
    pair: tuple[str, str]
    log_relation: Relation
    model_relation: Relation


@dataclass(frozen=True)
class ConformanceReport:
    fitness: float
    precision: float
    f_score: float
    deviations: tuple[Deviation, ...]


def _directed(fp: FootprintMatrix) -> set[tuple[str, str]]:
    return {p for p, r in fp.relation.items()
            if r in (Relation.CAUSAL, Relation.PARALLEL)}


def conformance(log_fp: FootprintMatrix, model_fp: FootprintMatrix) -> ConformanceReport:
    """Compare two footprints over the union of their alphabets; pairs
    absent from one side count as unrelated there."""
    alphabet = tuple(sorted(set(log_fp.activities) | set(model_fp.activities)))

    def rel(fp: FootprintMatrix, pair) -> Relation:
        return fp.relation.get(pair, Relation.UNRELATED)

    df_log = _directed(log_fp)
    df_model = _directed(model_fp)
    both = df_log & df_model
    fitness = len(both) / len(df_log) if df_log else 1.0
    precision = len(both) / len(df_model) if df_model else 1.0
    deviations = tuple(
        Deviation((a, b), rel(log_fp, (a, b)), rel(model_fp, (a, b)))
        for a in alphabet for b in alphabet
        if rel(log_fp, (a, b)) is not rel(model_fp, (a, b))
    )
    return ConformanceReport(fitness, precision, f_score(fitness, precision),
                             deviations)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def footprint_table(fp: FootprintMatrix) -> str:
    width = max([len(a) for a in fp.activities] + [2])
    head = " " * (width + 1) + " ".join(f"{a:<{width}}" for a in fp.activities)
    lines = [head]
    for a in fp.activities:
        cells = " ".join(f"{fp.relation[(a, b)].value:<{width}}"
                         for b in fp.activities)
        lines.append(f"{a:<{width}} {cells}")
    return "\n".join(lines) + "\n"


def footprint_csv(fp: FootprintMatrix, stream) -> None:
    import csv

    w = csv.writer(stream)
    w.writerow(["", *fp.activities])
    for a in fp.activities:
        w.writerow([a, *(fp.relation[(a, b)].value for b in fp.activities)])


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


def comparison_table(rows: list[tuple[str, ConformanceReport]]) -> str:
    """Fitness/precision/F-score comparison, one labeled row per log."""
    header = f"{'Event Log Type':<24} {'Fitness':>8} {'Precision':>10} {'F-Score':>8}"
    sep = "-" * len(header)
    lines = [header, sep]
    for label, rep in rows:
        lines.append(f"{label:<24} {rep.fitness:>8.3f} {rep.precision:>10.3f} "
                     f"{rep.f_score:>8.3f}")
    return "\n".join(lines) + "\n"
