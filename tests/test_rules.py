import copy
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.kg import KnowledgeGraph, Triple
from kcpm.rules import (Atom, ClosedPathRule, Closure, RuleBase, _base_rows, _joinable, _step, chain_body,
                        mine_rules, read_rules_jsonl, write_rules_jsonl)

from oracles import (naive_body_confidences, naive_closure, naive_mine,
                     naive_step)

WORK_KG = KnowledgeGraph([
    Triple("al", "worksAt", "uow"),
    Triple("uow", "locatedIn", "wgg"),
    Triple("al", "livesIn", "wgg"),
    Triple("bo", "worksAt", "unr"),
    Triple("unr", "locatedIn", "rno"),
])

WORK_RULE = ClosedPathRule(
    chain_body(("worksAt", "locatedIn")), Atom("livesIn", "x", "y"),
    support=1, std_confidence=0.5, pca_confidence=1.0)
WORK_SHAPE = (WORK_RULE.body_predicates, WORK_RULE.head.predicate)


def mined(body_predicates, head_predicate, kg):
    """The rule of this shape that mine_rules keeps with no thresholds,
    or None (as for a rule without support)."""
    match = [r for r in mine_rules(kg, max_body_len=len(body_predicates))
             if r.body_predicates == tuple(body_predicates)
             and r.head.predicate == head_predicate]
    assert len(match) <= 1
    return match[0] if match else None


def test_rule_validates_chain_shape():
    with pytest.raises(ValueError):
        ClosedPathRule((Atom("p", "x", "z1"), Atom("q", "z2", "y")),
                       Atom("r", "x", "y"), 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ClosedPathRule(chain_body(("p",)), Atom("r", "y", "x"), 0, 0.0, 0.0)
    with pytest.raises(ValueError):  # PCA below standard confidence
        ClosedPathRule(chain_body(("p",)), Atom("r", "x", "y"), 1, 0.9, 0.5)


def test_support_on_worked_example():
    assert mined(*WORK_SHAPE, WORK_KG).support == 1


def test_support_empty_kg_and_absent_head():
    assert mined(*WORK_SHAPE, KnowledgeGraph()) is None
    kg = KnowledgeGraph([Triple("a", "worksAt", "b"),
                         Triple("b", "locatedIn", "c")])
    assert mined(*WORK_SHAPE, kg) is None  # head predicate absent


def test_confidences_on_worked_example():
    # body pairs: (al,wgg), (bo,rno); only al has a livesIn fact, so the
    # PCA denominator drops (bo,rno)
    assert mined(*WORK_SHAPE, WORK_KG).std_confidence == 0.5
    assert mined(*WORK_SHAPE, WORK_KG).pca_confidence == 1.0


def test_confidence_zero_support():
    kg = KnowledgeGraph([Triple("a", "worksAt", "b"),
                         Triple("b", "locatedIn", "c"),
                         Triple("z", "livesIn", "w")])
    assert mined(*WORK_SHAPE, kg) is None


def test_confidence_one_when_head_always_present():
    kg = KnowledgeGraph([
        Triple("a", "p", "b"), Triple("b", "q", "c"), Triple("a", "r", "c"),
        Triple("x", "p", "y"), Triple("y", "q", "z"), Triple("x", "r", "z"),
    ])
    r = mined(("p", "q"), "r", kg)
    assert (r.support, r.std_confidence, r.pca_confidence) == (2, 1.0, 1.0)


def test_mine_rules_finds_worked_example():
    rb = mine_rules(WORK_KG, max_body_len=2, min_support=1, min_pca_conf=0.5)
    match = [r for r in rb
             if r.body_predicates == ("worksAt", "locatedIn")
             and r.head.predicate == "livesIn"]
    assert len(match) == 1
    r = match[0]
    assert (r.support, r.std_confidence, r.pca_confidence) == (1, 0.5, 1.0)


def test_mine_rules_empty_when_support_unreachable():
    rb = mine_rules(WORK_KG, max_body_len=2, min_support=100)
    assert len(rb) == 0


def test_tautology_excluded():
    kg = KnowledgeGraph([Triple("a", "p", "b")])
    rb = mine_rules(kg, max_body_len=1, min_support=1)
    assert len(rb) == 0


def _random_kg(rng: random.Random, max_triples=50, n_predicates=6):
    entities = [f"e{i}" for i in range(rng.randint(4, 14))]
    predicates = [f"p{i}" for i in range(rng.randint(2, n_predicates))]
    triples = {
        Triple(rng.choice(entities), rng.choice(predicates),
               rng.choice(entities))
        for _ in range(rng.randint(1, max_triples))
    }
    return KnowledgeGraph(triples)


def test_mine_rules_matches_exhaustive_enumeration():
    rng = random.Random(42)
    for _ in range(25):
        kg = _random_kg(rng, max_triples=30, n_predicates=4)
        raw = [(t.subject, t.predicate, t.object) for t in kg.all_triples()]
        min_support = rng.randint(1, 3)
        min_pca = rng.choice([0.0, 0.3, 0.7])
        max_len = rng.randint(1, 3)
        mined = mine_rules(kg, max_len, min_support, min_pca)
        expected = naive_mine(raw, max_len, min_support, min_pca)
        got = {(r.body_predicates, r.head.predicate,
                r.support, r.std_confidence, r.pca_confidence) for r in mined}
        assert got == set(expected)


# one predicate family: its facts over its own entities
_FAMILY = st.sets(st.tuples(st.sampled_from("abcde"), st.sampled_from("pqr"),
                            st.sampled_from("abcde")), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(families=st.lists(_FAMILY, min_size=2, max_size=3),
       min_support=st.integers(1, 2), min_pca=st.sampled_from([0.0, 0.5]))
def test_pruned_mining_matches_exhaustive_enumeration(families, min_support,
                                                      min_pca):
    # families share no entity, so a body that crosses from one family
    # to another joins to nothing and is pruned before the join
    raw = {(f"{s}{i}", f"{p}{i}", f"{o}{i}")
           for i, family in enumerate(families) for s, p, o in family}
    kg = KnowledgeGraph(Triple(*t) for t in raw)
    follows = _joinable(kg.index)
    assert any(q not in follows[p] for p in follows for q in follows)
    got = {(r.body_predicates, r.head.predicate,
            r.support, r.std_confidence, r.pca_confidence)
           for r in mine_rules(kg, 3, min_support, min_pca)}
    assert got == set(naive_mine(sorted(raw), 3, min_support, min_pca))


def test_mine_rules_monotone_in_thresholds():
    rng = random.Random(9)
    for _ in range(200):
        kg = _random_kg(rng, max_triples=20, n_predicates=3)
        base = {(r.body_predicates, r.head.predicate)
                for r in mine_rules(kg, 2, 1, 0.0)}
        tighter_support = {(r.body_predicates, r.head.predicate)
                           for r in mine_rules(kg, 2, 2, 0.0)}
        tighter_pca = {(r.body_predicates, r.head.predicate)
                       for r in mine_rules(kg, 2, 1, 0.6)}
        assert tighter_support <= base
        assert tighter_pca <= base


def test_pca_at_least_std_on_mined_rules():
    rng = random.Random(23)
    for _ in range(200):
        kg = _random_kg(rng, max_triples=25, n_predicates=4)
        for r in mine_rules(kg, 2, 1, 0.0):
            assert r.pca_confidence >= r.std_confidence - 1e-12


def test_mining_deterministic_serialization():
    rng = random.Random(31)
    for _ in range(20):
        kg = _random_kg(rng)
        rb1 = mine_rules(kg, 2, 1, 0.2)
        rb2 = mine_rules(KnowledgeGraph(set(kg.triples)), 2, 1, 0.2)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_rules_jsonl(rb1, buf1)
        write_rules_jsonl(rb2, buf2)
        assert buf1.getvalue() == buf2.getvalue()


def test_rules_jsonl_round_trip():
    rb = mine_rules(WORK_KG, 2, 1, 0.5)
    buf = io.StringIO()
    write_rules_jsonl(rb, buf)
    again = read_rules_jsonl(io.StringIO(buf.getvalue()))
    assert tuple(again.rules) == tuple(rb.rules)


def test_rule_text_format():
    assert WORK_RULE.text() == (
        "worksAt(x,z1) & locatedIn(z1,y) => livesIn(x,y) "
        "[supp=1 conf=0.50 pca=1.00]")


# ---------------------------------------------------------------------------
# Entailment, read through Closure.lookup
# ---------------------------------------------------------------------------

def test_lookup_fact_in_kg():
    closure = Closure(RuleBase(()), WORK_KG)
    assert closure.lookup("livesIn", "al", "wgg") == (1.0, None)


def test_lookup_one_step_derivation():
    kg = KnowledgeGraph([
        Triple("al", "worksAt", "uow"),
        Triple("uow", "locatedIn", "wgg"),
    ])
    rb = RuleBase((WORK_RULE,))
    assert Closure(rb, kg).lookup("livesIn", "al", "wgg") == (
        1.0, WORK_RULE.rule_id)


def test_lookup_unrelated_fact():
    assert Closure(RuleBase((WORK_RULE,)), WORK_KG).lookup("p", "q", "r") is None


def test_derived_confidence_is_product_max():
    # two chained derivations: p->q with 0.8, then q->r with 0.5
    r1 = ClosedPathRule(chain_body(("p",)), Atom("q", "x", "y"), 1, 0.8, 0.8)
    r2 = ClosedPathRule(chain_body(("q",)), Atom("r", "x", "y"), 1, 0.5, 0.5)
    kg = KnowledgeGraph([Triple("a", "p", "b")])
    closure = Closure(RuleBase((r1, r2), min_pca_conf=0.0), kg)
    conf, via = closure.lookup("r", "a", "b")
    assert conf == pytest.approx(0.8 * 0.5) and via == r2.rule_id
    # a direct route with higher confidence wins the max
    r3 = ClosedPathRule(chain_body(("p",)), Atom("r", "x", "y"), 1, 0.9, 0.9)
    closure = Closure(RuleBase((r1, r2, r3), min_pca_conf=0.0), kg)
    assert closure.lookup("r", "a", "b")[0] == pytest.approx(0.9)


def test_entailment_monotone_in_kg():
    rng = random.Random(77)
    for _ in range(100):
        kg = _random_kg(rng, max_triples=15, n_predicates=3)
        rb = mine_rules(kg, 2, 1, 0.0)
        closure = Closure(rb, kg)
        derived = [t for t in closure.confidence]
        extra = Triple("fresh", "p0", "fresh2")
        bigger = KnowledgeGraph(set(kg.all_triples()) | {extra})
        closure2 = Closure(rb, bigger)
        for fact in derived:
            assert closure2.lookup(fact.predicate, fact.subject,
                                   fact.object) is not None


def test_recursive_rules_terminate():
    # transitive closure over a cycle reaches its fixpoint, not a loop
    r = ClosedPathRule(chain_body(("p", "p")), Atom("p", "x", "y"), 1, 1.0, 1.0)
    kg = KnowledgeGraph([Triple("a", "p", "b"), Triple("b", "p", "c"),
                         Triple("c", "p", "a")])
    closure = Closure(RuleBase((r,), min_pca_conf=0.0), kg)
    assert closure.lookup("p", "a", "c") is not None


def _rule(body, head, pca=1.0):
    return ClosedPathRule(chain_body(body), Atom(head, "x", "y"), 1, 0.0, pca)


def test_chain_closure_is_complete():
    # p and q both link n0 -> n1 -> ... -> n30, so r holds for all
    # 31*30/2 ordered pairs: 1,335 derivations in all, more than
    # |entities|^2 = 961
    nodes = [f"n{i}" for i in range(31)]
    kg = KnowledgeGraph([Triple(a, p, b) for a, b in zip(nodes, nodes[1:])
                         for p in ("p", "q")])
    rb = RuleBase((_rule(("p", "p"), "p"), _rule(("q", "q"), "q"),
                   _rule(("p",), "r"), _rule(("q",), "r")))
    closure = Closure(rb, kg)
    r_facts = [t for t in closure.confidence if t.predicate == "r"]
    assert len(r_facts) == 465
    assert [(s, o) for s, o, _, _ in closure.facts("r")] == sorted(
        (t.subject, t.object) for t in r_facts)


_ENTITIES = st.sampled_from("abcde")
_PREDICATES = st.sampled_from("pqr")
_CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                         st.floats(0.0, 1.0))


_TRIPLES = st.sets(st.tuples(_ENTITIES, _PREDICATES, _ENTITIES), max_size=12)
_RULES = st.lists(st.tuples(st.lists(_PREDICATES, min_size=1, max_size=3),
                            _PREDICATES, _CONFIDENCES),
                  max_size=5)


@settings(max_examples=150, deadline=None)
@given(triples=_TRIPLES, rules=_RULES)
def test_closure_matches_naive_fixpoint(triples, rules):
    # random bodies over three predicates make recursive rules and
    # cyclic facts common
    rb = RuleBase(tuple(_rule(tuple(b), h, c) for b, h, c in rules))
    closure = Closure(rb, KnowledgeGraph(Triple(*t) for t in triples))
    got = {(t.subject, t.predicate, t.object): c
           for t, c in closure.confidence.items()}
    expected = naive_closure([(tuple(b), h, c) for b, h, c in rules], triples)
    assert got.keys() == expected.keys()
    for fact, c in expected.items():
        assert got[fact] == pytest.approx(c, abs=1e-12)
    for (s, p, o), c in got.items():
        _, via_rule = closure.lookup(p, s, o)
        if (s, p, o) in triples:
            assert via_rule is None and c == 1.0
            continue
        # a rule with the named id, applied once to the final closure,
        # reaches c (two rules may share an id and differ in confidence)
        reached = [
            naive_body_confidences(r.body_predicates, got).get((s, o), 0.0)
            * r.pca_confidence
            for r in rb if r.rule_id == via_rule]
        assert via_rule.endswith("=>" + p)
        assert any(v == pytest.approx(c, abs=1e-12) for v in reached)


@settings(max_examples=150, deadline=None)
@given(triples=_TRIPLES, rules=_RULES)
def test_closure_leaves_the_kg_index_unchanged(triples, rules):
    # the closure reads base facts from the KG's index and joins its
    # object sets uncopied, so no build or read may write to them
    kg = KnowledgeGraph(Triple(*t) for t in triples)
    before = copy.deepcopy(kg.index)
    closure = Closure(RuleBase(tuple(_rule(tuple(b), h, c)
                                     for b, h, c in rules)), kg)
    assert kg.index == before
    for p in "pqr":
        list(closure.facts(p))
    for s, p, o in itertools.product("abcde", "pqr", "abcde"):
        closure.lookup(p, s, o)
    assert len(list(closure.confidence.items())) == len(closure.confidence)
    assert kg.index == before


@settings(max_examples=150, deadline=None)
@given(triples=_TRIPLES, rules=_RULES)
def test_facts_give_base_facts_at_one_and_derived_facts_with_their_rule(
        triples, rules):
    rb = RuleBase(tuple(_rule(tuple(b), h, c) for b, h, c in rules))
    closure = Closure(rb, KnowledgeGraph(Triple(*t) for t in triples))
    expected = naive_closure([(tuple(b), h, c) for b, h, c in rules], triples)
    got = {}
    for p in "pqr":
        rows = list(closure.facts(p))
        assert [(s, o) for s, o, _, _ in rows] == sorted(
            (s, o) for s, q, o in expected if q == p)
        for s, o, c, via in rows:
            got[(s, p, o)] = c
            assert closure.lookup(p, s, o) == (c, via)
            if (s, p, o) in triples:
                assert (c, via) == (1.0, None)
            else:
                assert via in {r.rule_id for r in rb if r.head.predicate == p}
    assert got.keys() == expected.keys()
    for fact, c in expected.items():
        assert got[fact] == pytest.approx(c, abs=1e-12)


# few nodes and a few repeated confidences, so one product often reaches
# an object along several paths, and rows share their confidence
_NODES = st.sampled_from("abcdef")
_STEP_CONFIDENCES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              st.floats(0.0, 1.0))
_ROWS = st.dictionaries(_NODES, st.dictionaries(_NODES, _STEP_CONFIDENCES,
                                                max_size=6),
                        max_size=6)


def _layers(rows, data):
    """rows as a (base, derived) relation: each fact at confidence 1.0
    goes to the base layer or stays derived, as drawn."""
    base, derived = {}, {}
    for s, row in rows.items():
        if not row:
            derived[s] = {}
        for o, c in row.items():
            if c == 1.0 and data.draw(st.booleans()):
                base.setdefault(s, set()).add(o)
            else:
                derived.setdefault(s, {})[o] = c
    return base, derived


@settings(max_examples=300, deadline=None)
@given(frontier=_ROWS, succ=_ROWS, data=st.data())
def test_step_equals_per_object_join(frontier, succ, data):
    # empty rows and frontier nodes with no successors are drawn too, and
    # a subject may have objects in both layers
    got = _step(_base_rows(*_layers(frontier, data)), _layers(succ, data))
    expected = naive_step(frontier, succ)
    assert got.keys() == expected.keys()
    for x, row in expected.items():
        assert got[x].keys() == row.keys()
        for o, v in row.items():
            assert got[x][o] == v
