"""Closed-path Horn rules: mining with support/confidence statistics and
forward-chaining entailment.

A rule has the shape

    P1(x,z1) & P2(z1,z2) & ... & Pn(z_{n-1},y)  =>  P(x,y)

Support counts the distinct (x, y) pairs for which some assignment of
the chain variables satisfies every body atom and the head fact is
present. Standard confidence divides by all body-satisfying pairs; PCA
confidence divides only by body pairs whose subject has at least one
known head-predicate fact, treating subjects with no recorded head fact
as unknown rather than false.
"""
from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from typing import NamedTuple

from .errors import ParseError
from .kg import Index, KnowledgeGraph, Triple

_EPS = 1e-12

# body predicates -> x -> {y: 1.0}: the base joins that mine_rules
# records and a Closure's first pass takes
BodyJoins = dict[tuple[str, ...], dict[str, dict[str, float]]]


class _AtomFields(NamedTuple):
    predicate: str
    subject_var: str
    object_var: str


class Atom(_AtomFields):
    """One body or head atom. Every way of making one rejects a predicate
    that is not a nonempty string."""

    __slots__ = ()

    def __new__(cls, predicate: str, subject_var: str, object_var: str):
        if not isinstance(predicate, str) or not predicate:
            raise ValueError("atom predicate must be a nonempty string")
        return tuple.__new__(cls, (predicate, subject_var, object_var))

    @classmethod
    def _make(cls, iterable) -> Atom:
        return cls(*iterable)

    def __str__(self):
        return f"{self.predicate}({self.subject_var},{self.object_var})"


def chain_body(predicates: tuple[str, ...] | list[str]) -> tuple[Atom, ...]:
    """Body atoms chaining x through z1..z_{n-1} to y."""
    n = len(predicates)
    vars_ = ["x"] + [f"z{i}" for i in range(1, n)] + ["y"]
    return tuple(
        Atom(p, vars_[i], vars_[i + 1]) for i, p in enumerate(predicates)
    )


class _RuleFields(NamedTuple):
    body: tuple[Atom, ...]
    head: Atom
    support: int
    std_confidence: float
    pca_confidence: float


class ClosedPathRule(_RuleFields):
    """One rule with its statistics. Every way of making one rejects a
    head other than P(x,y), a body that is not an x..z_i..y chain, a
    support that is not a nonnegative int, and confidences that are
    bools, lie outside [0, 1] or have the PCA one below the standard
    one."""

    __slots__ = ()

    def __new__(cls, body: tuple[Atom, ...], head: Atom, support: int,
                std_confidence: float, pca_confidence: float):
        if head.subject_var != "x" or head.object_var != "y":
            raise ValueError("head must be P(x,y)")
        if not body:
            raise ValueError("body must have at least one atom")
        if tuple(body) != chain_body([a.predicate for a in body]):
            raise ValueError("body is not a connected x..z_i..y chain")
        if not isinstance(support, int) or isinstance(support, bool):
            raise ValueError("support must be an integer")
        if support < 0:
            raise ValueError("support must be nonnegative")
        # the uncapped closure terminates only with confidences in [0, 1]
        for name, value in (("std_confidence", std_confidence),
                            ("pca_confidence", pca_confidence)):
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not a bool")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if pca_confidence < std_confidence - _EPS:
            raise ValueError("PCA confidence cannot be below standard confidence")
        return tuple.__new__(cls, (body, head, support, std_confidence,
                                   pca_confidence))

    @classmethod
    def _make(cls, iterable) -> ClosedPathRule:
        return cls(*iterable)

    @property
    def body_predicates(self) -> tuple[str, ...]:
        return tuple(a.predicate for a in self.body)

    def text(self) -> str:
        body = " & ".join(str(a) for a in self.body)
        return (f"{body} => {self.head} "
                f"[supp={self.support} conf={self.std_confidence:.2f} "
                f"pca={self.pca_confidence:.2f}]")

    @property
    def rule_id(self) -> str:
        body = ",".join(self.body_predicates)
        return f"{body}=>{self.head.predicate}"


class RuleBase:
    """An immutable rule base: the rules in order and the thresholds
    every one of them meets, equal and hashed by those four fields.
    Iteration and len() go over the rules, which is why it is not a
    tuple: a tuple iterates its own fields."""

    __slots__ = ("rules", "min_support", "min_pca_conf", "max_body_len")

    def __init__(self, rules: tuple[ClosedPathRule, ...], min_support: int = 1,
                 min_pca_conf: float = 0.0, max_body_len: int = 3):
        for r in rules:
            if (r.support < min_support
                    or r.pca_confidence < min_pca_conf - _EPS
                    or len(r.body) > max_body_len):
                raise ValueError(f"rule violates stored thresholds: {r.text()}")
        for name, value in zip(self.__slots__, (rules, min_support,
                                                min_pca_conf, max_body_len)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.rules, self.min_support, self.min_pca_conf,
                self.max_body_len)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle, which would set the slots
        return RuleBase, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._key()))
        return f"RuleBase({fields})"

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def _extend(pairs: dict[str, set[str] | dict[str, float]],
            rel: dict[str, set[str]]) -> dict[str, set[str]]:
    """x -> the distinct y reached from x's body pairs by one more atom,
    whose successor map is rel. A row may be a set or a dict keyed by
    its set's members in their order."""
    nxt: dict[str, set[str]] = {}
    for x, mids in pairs.items():
        ys = set().union(*[rel.get(mid, ()) for mid in mids])
        if ys:
            nxt[x] = ys
    return nxt


def _bodies(body: tuple[str, ...], pairs: dict[str, set[str]], succ,
            follows, max_body_len: int):
    """(body predicates, x -> the distinct y satisfying the body) of the
    body and of every longer body up to max_body_len atoms that starts
    with it and whose joins are not known to be empty, depth first. Each
    body is joined from the pairs of its prefix one atom shorter, so a
    prefix is joined once for all the bodies that extend it (AMIE's
    prefix sharing), and only the prefixes of the current body are kept."""
    yield body, pairs
    if len(body) < max_body_len and pairs:
        for pred in sorted(follows[body[-1]]):
            yield from _bodies(body + (pred,), _extend(pairs, succ[pred]),
                               succ, follows, max_body_len)


def _joinable(succ) -> dict[str, set[str]]:
    """predicate -> the predicates whose subjects meet its objects. A
    body atom followed by any other predicate joins to nothing."""
    follows = {}
    for p, rel in succ.items():
        objects = set().union(*rel.values())
        follows[p] = {q for q, rel2 in succ.items()
                      if not objects.isdisjoint(rel2)}
    return follows


def _stats(pairs: dict[str, set[str]], n_pairs: int,
           head: dict[str, set[str]]) -> tuple[int, float, float]:
    """(support, standard confidence, PCA confidence) of n_pairs body
    pairs against the head predicate's successor map."""
    support = sum(len(ys & head[x]) for x, ys in pairs.items() if x in head)
    if not support:
        return 0, 0.0, 0.0
    pca_den = sum(len(ys) for x, ys in pairs.items() if x in head)
    return support, support / n_pairs, support / pca_den


def mine_rules(
    kg: KnowledgeGraph,
    max_body_len: int = 2,
    min_support: int = 1,
    min_pca_conf: float = 0.0,
    joins: BodyJoins | None = None,
) -> RuleBase:
    """Enumerate every closed-path rule up to max_body_len body atoms and
    keep those meeting both thresholds.

    Tautologies (single-atom body with the head's own predicate) are
    excluded. Output order is deterministic: head predicate, body
    predicates, then descending PCA confidence.

    Given a dict as joins, this also stores there, under its body
    predicates, the base join of every kept body of two or more atoms,
    as x -> {y: 1.0}: the rows a Closure's first run of such a rule
    joins when its body predicates have no derived fact yet. Handing the
    dict to Closure joins each body over the KG once per run.
    """
    if max_body_len not in (1, 2, 3):
        raise ValueError("max_body_len must be 1, 2 or 3")
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    succ = kg.index
    preds = sorted(succ)
    follows = _joinable(succ)
    kept: list[ClosedPathRule] = []
    for first in preds:
        for body_preds, pairs in _bodies((first,), succ[first], succ,
                                         follows, max_body_len):
            n_pairs = sum(len(ys) for ys in pairs.values())
            if n_pairs < min_support:
                continue
            n_kept = len(kept)
            for head in preds:
                if len(body_preds) == 1 and head == first:
                    continue
                head_map = succ[head]
                if pairs.keys().isdisjoint(head_map.keys()):
                    continue  # no body subject is a head subject: support 0
                sup, std, pca = _stats(pairs, n_pairs, head_map)
                if sup < min_support or pca < min_pca_conf - _EPS:
                    continue
                kept.append(ClosedPathRule(
                    chain_body(body_preds), Atom(head, "x", "y"),
                    sup, std, pca,
                ))
            if joins is not None and len(body_preds) > 1 and len(kept) > n_kept:
                # the pairs of a body of two or more atoms are its own,
                # not the KG's rows: they become the join in place
                for x, ys in pairs.items():
                    pairs[x] = dict.fromkeys(ys, 1.0)
                joins[body_preds] = pairs
    kept.sort(key=lambda r: (r.head.predicate, r.body_predicates,
                             -r.pca_confidence))
    return RuleBase(tuple(kept), min_support, min_pca_conf, max_body_len)


# ---------------------------------------------------------------------------
# Forward chaining
# ---------------------------------------------------------------------------

class Closure:
    """Fixpoint of forward chaining a rule base over a knowledge graph.

    Base facts hold with confidence 1.0. A derived fact's confidence is
    the maximum over derivations of the product of the PCA confidences of
    all rules applied in the derivation tree, each body multiplied left
    to right. Rules run in rule-base order, pass after pass, and a rule
    replaces a fact's confidence only when it beats it by more than
    _EPS; the closure ends after a pass that changes nothing.

    The closure stores derived facts only. Base facts are read from the
    KG's own index, which nothing changes: no derivation exceeds 1.0, so
    none replaces a base fact. Every relation the joins read is a pair
    (base, derived): base maps subject -> objects at confidence 1.0,
    derived maps subject -> object -> confidence, and no fact is in both.
    A rule's first body atom and every successor a join reads are such
    pairs; what a join builds is derived only, x -> z -> confidence.

    Evaluation is semi-naive: each rule's first run joins its whole body,
    and every later run joins only paths through at least one fact that
    changed since the rule last ran. A path through unchanged facts was
    already offered to the head at that run and cannot beat it now, so
    every run makes exactly the updates a full join would.

    joins, if given, maps body predicates to the base join that
    mine_rules recorded for them over the same KG, x -> {y: 1.0}. A
    rule's first run takes that join, instead of joining again, when
    none of its body predicates has a derived fact yet: the body then
    joins base facts only, each product is 1.0, and the rows are the
    same. The first pass takes each join out of the dict at the last
    rule with its body, so none outlives the pass, and a dict that
    mine_rules filled for these rules is empty afterward.

    There is no derivation cap. Every confidence lies in [0, 1], so a
    product is never larger than any of its factors, even after
    floating-point rounding: going round a cycle of rules never raises a
    confidence, and the best derivation of each fact uses no fact twice
    on one branch. Each update raises a fact by more than _EPS and no
    confidence exceeds 1, so every fact changes finitely often and the
    loop reaches the true fixpoint.
    """

    def __init__(self, rb: RuleBase, kg: KnowledgeGraph,
                 joins: BodyJoins | None = None):
        self._base = kg.index
        # predicate -> subject -> object -> confidence, of derived facts
        self._derived: dict[str, dict[str, dict[str, float]]] = {}
        self._via: dict[tuple[str, str, str], str] = {}
        # predicate -> (subject, object) of every derived update, in order
        self._changes: dict[str, list[tuple[str, str]]] = {}
        self.confidence = _ConfidenceView(self._base, self._derived)
        # per rule: change-list lengths when it last joined; None before
        last_seen: list[dict[str, int] | None] = [None] * len(rb.rules)
        if joins is None:
            joins = {}
        last_use = {rule.body_predicates: k for k, rule in enumerate(rb)}
        changed = True
        while changed:
            changed = False
            for k, rule in enumerate(rb.rules):
                preds = rule.body_predicates
                now = {p: len(self._changes.get(p, ())) for p in preds}
                seen = last_seen[k]
                if seen is None:
                    # the last rule with this body takes its join out
                    take = joins.pop if last_use[preds] == k else joins.get
                    rows = self._first_rows(preds, now, take(preds, None))
                else:
                    delta = {p: self._changes[p][seen[p]:n]
                             for p, n in now.items() if n > seen[p]}
                    if not delta:
                        continue
                    rows = _rows(self._join_changed(preds, delta))
                last_seen[k] = now
                changed |= self._apply(rule, rows)

    def relation(self, pred: str):
        """The (base, derived) relation of one predicate: base maps a
        subject to its set of objects, derived a subject to object ->
        confidence, and every row of either holds at least one fact.
        Both are the closure's own maps, to be read, not changed."""
        return self._base.get(pred, {}), self._derived.get(pred, {})

    def _first_rows(self, preds, now, join):
        """The rows of a rule's first run: the recorded base join of its
        body where there is one and no body predicate has a derived fact
        yet (now holds their change counts), else the whole body joined.
        Only the rows refer to the join, until _apply has read them."""
        if join is not None and not any(now.values()):
            return _rows(join)
        return self._join(_base_rows(*self.relation(preds[0])), preds[1:])

    def _join(self, rows, preds):
        """The rows of a relation extended by each of preds in turn."""
        for pred in preds:
            frontier = _step(rows, self.relation(pred))
            rows = _rows(frontier)
            if not frontier:
                break
        return rows

    def _join_changed(self, preds, delta) -> dict[str, dict[str, float]]:
        """Best body product per (x, y) over the paths that use at least
        one changed fact, as x -> y -> product."""
        best: dict[str, dict[str, float]] = {}
        for i, pred in enumerate(preds):
            if pred not in delta:
                continue
            rel = self._derived[pred]  # only derived facts change
            changed: dict[str, dict[str, float]] = {}
            for s, o in delta[pred]:
                changed.setdefault(s, {})[o] = rel[s][o]
            if i == 0:
                frontier = changed
            else:
                frontier = _step(self._paths_into(preds[:i], changed.keys()),
                                 ({}, changed))
            for x, ys in self._join(_rows(frontier), preds[i + 1:]):
                row = best.setdefault(x, {})
                for y, v in ys:
                    if v > row.get(y, 0.0):
                        row[y] = v
        return best

    def _paths_into(self, preds, targets):
        """Best product over the chain preds, as rows from x to z, for
        the paths that end in targets. Each predicate is cut back to
        the facts that can still reach targets, right to left, and the
        cut relations are then joined left to right."""
        cut = []
        for pred in reversed(preds):
            base, derived = self.relation(pred)
            part_base = {}
            for s, objs in base.items():
                hit = objs & targets
                if hit:
                    part_base[s] = hit
            part = {}
            for s, objs in derived.items():
                hit = {o: c for o, c in objs.items() if o in targets}
                if hit:
                    part[s] = hit
            cut.append((part_base, part))
            targets = part_base.keys() | part.keys()
        cut.reverse()
        rows = _base_rows(*cut[0])
        for part in cut[1:]:
            rows = _rows(_step(rows, part))
        return rows

    def _apply(self, rule: ClosedPathRule, rows) -> bool:
        """Offer each body pair's product times the rule's PCA confidence
        to the head fact; True if any fact was added or improved. A base
        fact holds at 1.0, which no product beats."""
        head = rule.head.predicate
        base = self._base.get(head, {})
        rel = self._derived.setdefault(head, {})
        log = self._changes.setdefault(head, [])
        before = len(log)
        pca, rule_id = rule.pca_confidence, rule.rule_id
        for x, ys in rows:
            row = rel.get(x)
            known = base.get(x, ())
            for y, v in ys:
                derived = v * pca
                if (derived > (row.get(y, 0.0) if row else 0.0) + _EPS
                        and y not in known):
                    if row is None:
                        row = rel[x] = {}
                    row[y] = derived
                    self._via[(head, x, y)] = rule_id
                    log.append((x, y))
        return len(log) > before

    def lookup(self, predicate: str, subject: str,
               obj: str) -> tuple[float, str | None] | None:
        """(confidence, via_rule) of one fact, None if it does not hold:
        a base fact at 1.0 with via_rule None, a derived one with the
        rule that last raised it."""
        if obj in self._base.get(predicate, {}).get(subject, ()):
            return 1.0, None
        conf = self._derived.get(predicate, {}).get(subject, {}).get(obj)
        if conf is None:
            return None
        return conf, self._via[(predicate, subject, obj)]

    def facts(self, predicate: str):
        """(subject, object, confidence, via_rule) of every fact of one
        predicate, in subject then object order: base facts at 1.0 with
        via_rule None, derived ones with the rule that last raised them."""
        base, derived = self.relation(predicate)
        for s in sorted(base.keys() | derived.keys()):
            objs, row = base.get(s, ()), derived.get(s, {})
            for o in sorted(itertools.chain(objs, row)):
                if o in row:
                    yield s, o, row[o], self._via[(predicate, s, o)]
                else:
                    yield s, o, 1.0, None


class _ConfidenceView(Mapping):
    """Read-only Triple -> confidence view of a closure's base and
    derived facts."""

    def __init__(self, base: Index,
                 derived: dict[str, dict[str, dict[str, float]]]):
        self._base = base
        self._derived = derived

    def __getitem__(self, fact: Triple) -> float:
        if fact.object in self._base.get(fact.predicate, {}).get(
                fact.subject, ()):
            return 1.0
        return self._derived[fact.predicate][fact.subject][fact.object]

    def __iter__(self):
        for layer in (self._base, self._derived):
            for p, rel in layer.items():
                for s, objs in rel.items():
                    for o in objs:
                        yield Triple(s, p, o)

    def __len__(self) -> int:
        return sum(len(objs) for layer in (self._base, self._derived)
                   for rel in layer.values() for objs in rel.values())


def _rows(relation: dict[str, dict[str, float]]):
    """(x, iterable of (z, confidence)) per subject of x -> z -> c."""
    return ((x, zs.items()) for x, zs in relation.items())


def _base_rows(base: dict[str, set[str]],
               derived: dict[str, dict[str, float]]):
    """(x, iterable of (z, confidence)) per subject of one predicate's
    base facts, at 1.0, and derived facts."""
    for x, objs in base.items():
        row = derived.get(x)
        ones = zip(objs, itertools.repeat(1.0))
        yield x, itertools.chain(ones, row.items()) if row else ones
    for x, row in derived.items():
        if x not in base:
            yield x, row.items()


def _step(rows, succ) -> dict[str, dict[str, float]]:
    """Extend a relation x -> z -> c, given as rows (x, iterable of
    (z, c)), by the (base, derived) relation succ, z -> o -> c2: the
    best c * c2 per (x, o). Floating-point products are monotone in each
    factor, so the best prefix times a fact equals the best over whole
    paths.

    The join is set-at-a-time: each successor row is grouped once by
    confidence, every (x, z) adds whole object sets under their product
    c * c2, and each object then takes the largest positive product that
    reaches it. These are the products a per-object loop compares, so
    the result is the same mapping. A base row joins as the KG's own
    object set, uncopied."""
    base, derived = succ
    groups: dict[str, list[tuple[float, set[str]]]] = {}
    out: dict[str, dict[str, float]] = {}
    for x, zs in rows:
        reach: dict[float, list[set[str]]] = {}
        for z, c in zs:
            row = groups.get(z)
            if row is None:
                row = groups[z] = _by_confidence(base.get(z), derived.get(z))
            for c2, objs in row:
                reach.setdefault(c * c2, []).append(objs)
        acc: dict[str, float] = {}
        for v in sorted(reach, reverse=True):
            if v <= 0.0:
                break
            sets = reach[v]
            objs = sets[0] if len(sets) == 1 else set().union(*sets)
            acc.update(dict.fromkeys(objs.difference(acc) if acc else objs, v))
        if acc:
            out[x] = acc
    return out


def _by_confidence(objs: set[str] | None, row: dict[str, float] | None
                   ) -> list[tuple[float, set[str]]]:
    """(confidence, the objects holding it) of one successor: its base
    objects at 1.0, then its derived row grouped by confidence."""
    groups = [(1.0, objs)] if objs else []
    if row:
        confidences = set(row.values())
        if len(confidences) == 1:
            groups.append((confidences.pop(), set(row)))
        else:
            by_conf: dict[float, set[str]] = {}
            for o, c in row.items():
                by_conf.setdefault(c, set()).add(o)
            groups.extend(by_conf.items())
    return groups


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def rule_to_json(rule: ClosedPathRule) -> dict:
    return {
        "body": [
            {"predicate": a.predicate, "subject": a.subject_var,
             "object": a.object_var}
            for a in rule.body
        ],
        "head": {"predicate": rule.head.predicate, "subject": "x",
                 "object": "y"},
        "support": rule.support,
        "std_confidence": rule.std_confidence,
        "pca_confidence": rule.pca_confidence,
    }


def rule_from_json(obj: dict) -> ClosedPathRule:
    if not isinstance(obj, dict):
        raise ValueError("a rule must be a JSON object")
    preds = tuple(a["predicate"] for a in obj["body"])
    return ClosedPathRule(
        chain_body(preds),
        Atom(obj["head"]["predicate"], "x", "y"),
        obj["support"],
        obj["std_confidence"],
        obj["pca_confidence"],
    )


def write_rules_jsonl(rb: RuleBase, stream) -> None:
    for rule in rb.rules:
        stream.write(json.dumps(rule_to_json(rule), sort_keys=True) + "\n")


def read_rules_jsonl(stream, min_support: int | None = None,
                     min_pca_conf: float | None = None) -> RuleBase:
    """Read a rule base; thresholds default to the loosest values the
    loaded rules still satisfy."""
    rules = []
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            rules.append(rule_from_json(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"rules line {lineno}: not JSON: {exc.msg}") from None
        except KeyError as exc:
            raise ParseError(f"rules line {lineno}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"rules line {lineno}: {exc}") from None
    if min_support is None:
        min_support = min((r.support for r in rules), default=1)
    if min_pca_conf is None:
        min_pca_conf = min((r.pca_confidence for r in rules), default=0.0)
    max_len = max((len(r.body) for r in rules), default=3)
    return RuleBase(tuple(rules), min_support, min_pca_conf, max_len)


def write_rules_text(rb: RuleBase, stream) -> None:
    for rule in rb.rules:
        stream.write(rule.text() + "\n")
