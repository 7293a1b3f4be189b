"""Knowledge graph: plain and timestamped triples, held as one
predicate -> subject -> objects index.

Three relation labels are reserved for bridging domain rules with
control flow: ``directly_follows``, ``must_precede`` and
``forbidden_before``.
"""
from __future__ import annotations

from datetime import datetime
from functools import cached_property
from sys import intern
from typing import NamedTuple

from .errors import ParseError
from .logio import _open_text, parse_timestamp

DIRECTLY_FOLLOWS = "directly_follows"
MUST_PRECEDE = "must_precede"
FORBIDDEN_BEFORE = "forbidden_before"

# predicate -> subject -> objects
Index = dict[str, dict[str, set[str]]]


class _TripleFields(NamedTuple):
    subject: str
    predicate: str
    object: str


class Triple(_TripleFields):
    """One fact, a tuple of subject, predicate and object. Every way of
    making one rejects an empty component."""

    __slots__ = ()

    def __new__(cls, subject: str, predicate: str, object: str):
        if not (subject and predicate and object):
            raise ValueError("triple components must be nonempty: "
                             f"{predicate}({subject}, {object})")
        return tuple.__new__(cls, (subject, predicate, object))

    @classmethod
    def _make(cls, iterable) -> Triple:
        return cls(*iterable)

    def __repr__(self):
        return f"{self.predicate}({self.subject}, {self.object})"


class TemporalTriple(NamedTuple):
    triple: Triple
    timestamp: datetime


def _add(index: Index, subject: str, predicate: str, obj: str) -> None:
    rel = index.get(predicate)
    if rel is None:
        index[predicate] = {subject: {obj}}
        return
    objs = rel.get(subject)
    if objs is None:
        rel[subject] = {obj}
    else:
        objs.add(obj)


class KnowledgeGraph:
    """Immutable after construction. ``index`` maps predicate -> subject
    -> objects over the plain triples and the cores of the temporal
    ones; rule mining and the closure read it, and nothing may change
    it."""

    def __init__(self, triples=(), temporal=()):
        index: Index = {}
        for t in triples:
            _add(index, t.subject, t.predicate, t.object)
        self._fill(index, temporal)

    @classmethod
    def _from_index(cls, plain: Index, temporal=()) -> KnowledgeGraph:
        """A KG over the index of its plain triples, which it takes over."""
        kg = cls.__new__(cls)
        kg._fill(plain, temporal)
        return kg

    def _fill(self, plain: Index, temporal) -> None:
        self.temporal: frozenset[TemporalTriple] = frozenset(temporal)
        # cores of temporal triples that no plain triple states
        only = {tt.triple for tt in self.temporal
                if tt.triple.object not in plain.get(
                    tt.triple.predicate, {}).get(tt.triple.subject, ())}
        for t in only:
            _add(plain, t.subject, t.predicate, t.object)
        self._temporal_only = frozenset(only)
        self.index: Index = plain
        self._len = sum(len(objs) for rel in plain.values()
                        for objs in rel.values())

    def all_triples(self) -> frozenset[Triple]:
        """Plain triples plus the cores of temporal triples: every fact
        of the index, as Triples."""
        return frozenset(Triple(s, p, o) for p, rel in self.index.items()
                         for s, objs in rel.items() for o in objs)

    @property
    def triples(self) -> frozenset[Triple]:
        """The plain triples: a fact stated only with a timestamp is not
        one."""
        return self.all_triples() - self._temporal_only

    def __len__(self) -> int:
        return self._len

    @cached_property
    def entities(self) -> frozenset[str]:
        names: set[str] = set()
        for rel in self.index.values():
            names.update(rel)
            for objs in rel.values():
                names.update(objs)
        return frozenset(names)


def load_triples(source) -> KnowledgeGraph:
    """Load a knowledge graph from TSV: 3 columns, or 4 with an ISO-8601
    timestamp; blank lines and lines starting with '#' are skipped.
    Duplicates collapse under set semantics. Names are interned, as the
    CSV reader interns activities, so the KG stores each once and shares
    it with the log. When source is a path, every ParseError names it:
    ``<path>: line N: ...``."""
    index: Index = {}
    temporal: list[TemporalTriple] = []
    with _open_text(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            cols = line.rstrip("\r\n").split("\t")
            if len(cols) not in (3, 4):
                raise ParseError(
                    f"line {lineno}: expected 3 or 4 tab-separated columns, got {len(cols)}"
                )
            s, p, o = cols[0].strip(), cols[1].strip(), cols[2].strip()
            if not (s and p and o):
                raise ParseError(
                    f"line {lineno}: triple components must be nonempty: {p}({s}, {o})")
            s, p, o = intern(s), intern(p), intern(o)
            if len(cols) == 4:
                try:
                    ts = parse_timestamp(cols[3])
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                temporal.append(TemporalTriple(Triple(s, p, o), ts))
            else:
                _add(index, s, p, o)
    return KnowledgeGraph._from_index(index, temporal)
