import io
import random
import string
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcpm.errors import ParseError
from kcpm.kg import KnowledgeGraph, TemporalTriple, Triple, load_triples
from kcpm.logio import parse_timestamp
from kcpm.rules import Atom, ClosedPathRule, Closure, RuleBase, chain_body

from oracles import naive_closure, naive_kg


def kg3():
    return KnowledgeGraph([
        Triple("al", "worksAt", "uow"),
        Triple("uow", "locatedIn", "wgg"),
        Triple("al", "livesIn", "wgg"),
    ])


def tsv(kg):
    """TSV text of a KG: plain triples, then temporal ones with a fourth
    timestamp column."""
    lines = [f"{t.subject}\t{t.predicate}\t{t.object}\n" for t in kg.triples]
    lines += [f"{tt.triple.subject}\t{tt.triple.predicate}\t{tt.triple.object}"
              f"\t{tt.timestamp.isoformat()}\n" for tt in kg.temporal]
    return "".join(lines)


def test_triple_components_nonempty():
    with pytest.raises(ValueError):
        Triple("", "p", "o")


def test_duplicates_collapse():
    kg = load_triples(io.StringIO("A\tp\tB\nA\tp\tB\n"))
    assert len(kg) == 1


def test_temporal_row():
    kg = load_triples(io.StringIO(
        "A\tdirectly_follows\tB\t2014-10-22T11:15:41Z\n"))
    assert len(kg.temporal) == 1
    tt = next(iter(kg.temporal))
    assert tt.triple == Triple("A", "directly_follows", "B")
    assert tt.timestamp == parse_timestamp("2014-10-22T11:15:41Z")


def test_empty_file_gives_empty_kg():
    kg = load_triples(io.StringIO(""))
    assert len(kg) == 0
    assert kg.index == {}
    assert kg.triples == frozenset()


def test_wrong_column_count_reports_line(tmp_path):
    message = "line 2: expected 3 or 4 tab-separated columns, got 2"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_triples(io.StringIO("A\tp\tB\nA\tp\n"))
    path = tmp_path / "short.tsv"
    path.write_text("A\tp\tB\nA\tp\n")
    with pytest.raises(ParseError) as exc:
        load_triples(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_empty_component_reports_line():
    with pytest.raises(ParseError, match=r"^line 2: triple components must "
                                         r"be nonempty: p\(A, \)$"):
        load_triples(io.StringIO("A\tp\tB\nA\tp\t \n"))


def test_ntriples_subset():
    text = '<http://x/a> <http://x/p> "literal" .\n<http://x/a> <http://x/q> <http://x/b> .\n'
    kg = load_triples(io.StringIO(text), format="ntriples")
    assert kg.index == {"http://x/p": {"http://x/a": {"literal"}},
                        "http://x/q": {"http://x/a": {"http://x/b"}}}
    assert len(kg) == 2


def test_ntriples_empty_term_reports_line():
    text = '<http://x/a> <http://x/q> <http://x/b> .\n<http://x/a> <http://x/p> "" .\n'
    with pytest.raises(ParseError, match=r"^line 2: triple components must "
                                         r"be nonempty"):
        load_triples(io.StringIO(text), format="ntriples")


def test_unknown_format_raises_before_reading():
    for text in ("", "A\tp\tB\n"):
        with pytest.raises(ParseError, match="unknown triple format 'csv'"):
            load_triples(io.StringIO(text), format="csv")


def test_query_by_predicate():
    kg = kg3()
    assert kg.index["locatedIn"] == {"uow": {"wgg"}}
    assert kg.index["worksAt"] == {"al": {"uow"}}


def test_query_fully_constant():
    kg = kg3()
    for t in kg.triples:
        assert t.object in kg.index[t.predicate][t.subject]
    assert "wgg" not in kg.index["worksAt"]["al"]


def test_query_all_wildcards_returns_everything():
    kg = kg3()
    assert kg.all_triples() == kg.triples
    assert len(kg) == len(kg.triples) == 3
    assert kg.entities == {"al", "uow", "wgg"}


def test_indexes_consistent_with_rebuild():
    rng = random.Random(3)
    for _ in range(200):
        triples = {
            Triple(rng.choice(string.ascii_lowercase[:6]),
                   rng.choice("pqr"),
                   rng.choice(string.ascii_lowercase[:6]))
            for _ in range(rng.randint(0, 25))
        }
        kg = KnowledgeGraph(triples)
        rebuilt = KnowledgeGraph(kg.triples)
        assert kg.all_triples() == rebuilt.all_triples() == triples
        assert kg.index == rebuilt.index
        assert kg.index == load_triples(io.StringIO(tsv(kg))).index


def test_tsv_round_trip():
    kg = load_triples(io.StringIO(
        "A\tp\tB\nB\tq\tC\nA\tdirectly_follows\tB\t2024-01-01T00:00:00+00:00\n"))
    again = load_triples(io.StringIO(tsv(kg)))
    assert again.triples == kg.triples
    assert again.temporal == kg.temporal


def test_fact_stated_plain_and_temporal_is_one_plain_triple():
    kg = load_triples(io.StringIO(
        "A\tp\tB\t2024-01-01T00:00:00Z\nA\tp\tB\nA\tq\tC\t2024-01-01T00:00:00Z\n"))
    assert len(kg) == 2
    assert kg.triples == {Triple("A", "p", "B")}
    assert {tt.triple for tt in kg.temporal} == {Triple("A", "p", "B"),
                                                 Triple("A", "q", "C")}


@pytest.mark.parametrize("format, text", [
    ("tsv", "# comment\nA\tp\tB\nB\tq\tC\t2014-10-22T11:15:41Z\n\nC\tr\tD\n"),
    ("ntriples", '<http://x/a> <http://x/p> "literal" .\n'
                 "<http://x/a> <http://x/q> <http://x/b> .\n"),
])
def test_crlf_file_loads_as_lf_text(tmp_path, format, text):
    path = tmp_path / "kg.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf = load_triples(io.StringIO(text), format=format)
    for source in (path, str(path), path.read_bytes()):
        crlf = load_triples(source, format=format)
        assert (crlf.triples, crlf.temporal) == (lf.triples, lf.temporal)
    assert len(lf) == (3 if format == "tsv" else 2)


_STAMPS = [None, datetime(2024, 1, 1, tzinfo=timezone.utc),
           datetime(2014, 10, 22, 11, 15, 41, tzinfo=timezone.utc)]
_ROW = st.tuples(st.sampled_from("abc"), st.sampled_from("pq"),
                 st.sampled_from("abc"), st.sampled_from(_STAMPS))
_CHAINS = st.lists(st.tuples(st.lists(st.sampled_from("pq"), min_size=1,
                                      max_size=2),
                             st.sampled_from("pqr"),
                             st.sampled_from([0.5, 1.0])), max_size=3)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROW, max_size=15),
       extras=st.lists(st.sampled_from(["", "  ", "# note", "\t# tab comment"]),
                       max_size=4),
       seed=st.integers(0, 2**16), newline=st.sampled_from(["\n", "\r\n"]),
       as_bytes=st.booleans(), rules=_CHAINS)
def test_loaded_kg_matches_triple_oracle(rows, extras, seed, newline, as_bytes,
                                         rules):
    # duplicate rows, a fact stated both plain and with a timestamp,
    # comment and blank lines, padded columns and CRLF endings
    rng = random.Random(seed)
    lines = [f" {s}\t{p} \t{o}" if ts is None and rng.random() < 0.3
             else f"{s}\t{p}\t{o}" + ("" if ts is None else f"\t{ts.isoformat()}")
             for s, p, o, ts in rows + rows[:2]] + extras
    rng.shuffle(lines)
    text = "".join(line + newline for line in lines)
    kg = load_triples(text.encode("utf-8") if as_bytes else io.StringIO(text))

    facts, entities, plain, temporal = naive_kg(rows)
    assert len(kg) == len(facts)
    assert kg.entities == entities
    assert kg.triples == {Triple(*t) for t in plain}
    assert kg.all_triples() == {Triple(*t) for t in facts}
    assert kg.temporal == {TemporalTriple(Triple(*t), ts) for t, ts in temporal}

    oracle = KnowledgeGraph((Triple(*t) for t in plain),
                            (TemporalTriple(Triple(*t), ts) for t, ts in temporal))
    assert kg.index == oracle.index
    rb = RuleBase(tuple(ClosedPathRule(chain_body(body), Atom(head, "x", "y"),
                                       1, 0.0, pca)
                        for body, head, pca in rules))
    got, expected = Closure(rb, kg), Closure(rb, oracle)
    for p in "pqr":
        assert list(got.facts(p)) == list(expected.facts(p))
    # confidences are products of 0.5 and 1.0, so exact
    assert {(s, p, o): c for p in "pqr" for s, o, c, _ in got.facts(p)} == \
        naive_closure(rules, facts)
