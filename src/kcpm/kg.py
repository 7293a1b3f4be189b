"""Knowledge graph: plain and timestamped triples with pattern queries.

Three relation labels are reserved for bridging domain rules with
control flow: ``directly_follows``, ``must_precede`` and
``forbidden_before``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime

from .errors import ParseError
from .logio import _open_text, parse_timestamp

DIRECTLY_FOLLOWS = "directly_follows"
MUST_PRECEDE = "must_precede"
FORBIDDEN_BEFORE = "forbidden_before"


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: str

    def __post_init__(self):
        if not (self.subject and self.predicate and self.object):
            raise ValueError(f"triple components must be nonempty: {self}")

    def __repr__(self):
        return f"{self.predicate}({self.subject}, {self.object})"


@dataclass(frozen=True)
class TemporalTriple:
    triple: Triple
    timestamp: datetime


class KnowledgeGraph:
    """Immutable after construction; indexed by subject, predicate and
    object for constant-time pattern lookup."""

    def __init__(self, triples=(), temporal=()):
        self.triples: frozenset[Triple] = frozenset(triples)
        self.temporal: frozenset[TemporalTriple] = frozenset(temporal)
        self._by_subject: dict[str, set[Triple]] = {}
        self._by_predicate: dict[str, set[Triple]] = {}
        self._by_object: dict[str, set[Triple]] = {}
        for t in self.all_triples():
            self._by_subject.setdefault(t.subject, set()).add(t)
            self._by_predicate.setdefault(t.predicate, set()).add(t)
            self._by_object.setdefault(t.object, set()).add(t)

    def all_triples(self) -> frozenset[Triple]:
        """Plain triples plus the cores of temporal triples. Rule mining
        and entailment work over this atemporal view."""
        return self.triples | frozenset(t.triple for t in self.temporal)

    def __len__(self) -> int:
        return len(self.all_triples())

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._by_subject.get(triple.subject, ())

    @property
    def entities(self) -> frozenset[str]:
        return frozenset(self._by_subject) | frozenset(self._by_object)

    @property
    def predicates(self) -> frozenset[str]:
        return frozenset(self._by_predicate)

    def by_predicate(self, predicate: str) -> frozenset[Triple]:
        return frozenset(self._by_predicate.get(predicate, ()))

    def query(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        object: str | None = None,
    ) -> frozenset[Triple]:
        """Match a triple pattern; None components are wildcards."""
        candidates = None
        for index, key in (
            (self._by_subject, subject),
            (self._by_predicate, predicate),
            (self._by_object, object),
        ):
            if key is None:
                continue
            found = index.get(key, set())
            candidates = found if candidates is None else candidates & found
        if candidates is None:
            return self.all_triples()
        return frozenset(candidates)


def query(kg: KnowledgeGraph, pattern: Triple | tuple) -> frozenset[Triple]:
    """Pattern query where "?" marks a wildcard position."""
    s, p, o = (pattern.subject, pattern.predicate, pattern.object) \
        if isinstance(pattern, Triple) else pattern
    wild = lambda x: None if x == "?" else x
    return kg.query(wild(s), wild(p), wild(o))


_NT_LINE = re.compile(
    r'^\s*(<[^>]*>|[^\s<"][^\s]*)\s+(<[^>]*>|[^\s<"][^\s]*)\s+'
    r'(<[^>]*>|"[^"]*"|[^\s<"][^\s]*)\s*\.\s*$'
)


def _strip_term(term: str) -> str:
    if term.startswith("<") and term.endswith(">"):
        return term[1:-1]
    if term.startswith('"') and term.endswith('"'):
        return term[1:-1]
    return term


def load_triples(source, format: str = "tsv") -> KnowledgeGraph:
    """Load a knowledge graph from TSV (3 columns, or 4 with an ISO-8601
    timestamp) or an N-Triples subset (IRIs and plain literals, no blank
    nodes). Duplicates collapse under set semantics."""
    triples: list[Triple] = []
    temporal: list[TemporalTriple] = []
    with _open_text(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if format == "tsv":
                cols = line.split("\t")
                if len(cols) not in (3, 4):
                    raise ParseError(
                        f"line {lineno}: expected 3 or 4 tab-separated columns, got {len(cols)}"
                    )
                try:
                    triple = Triple(cols[0].strip(), cols[1].strip(), cols[2].strip())
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                if len(cols) == 4:
                    try:
                        ts = parse_timestamp(cols[3])
                    except ParseError as exc:
                        raise ParseError(f"line {lineno}: {exc}") from None
                    temporal.append(TemporalTriple(triple, ts))
                else:
                    triples.append(triple)
            elif format == "ntriples":
                m = _NT_LINE.match(line)
                if m is None:
                    raise ParseError(f"line {lineno}: not a supported N-Triples statement")
                if any(g.startswith("_:") for g in m.groups()):
                    raise ParseError(f"line {lineno}: blank nodes are not supported")
                triples.append(Triple(*(_strip_term(g) for g in m.groups())))
            else:
                raise ParseError(f"unknown triple format {format!r}")
    return KnowledgeGraph(triples, temporal)


def write_triples(kg: KnowledgeGraph, stream) -> None:
    """TSV writer; temporal triples get a fourth timestamp column."""
    for t in sorted(kg.triples, key=lambda t: (t.predicate, t.subject, t.object)):
        stream.write(f"{t.subject}\t{t.predicate}\t{t.object}\n")
    for tt in sorted(kg.temporal,
                     key=lambda x: (x.triple.predicate, x.triple.subject,
                                    x.triple.object, x.timestamp)):
        t = tt.triple
        stream.write(f"{t.subject}\t{t.predicate}\t{t.object}\t{tt.timestamp.isoformat()}\n")
