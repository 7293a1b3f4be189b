import io
import random
import string

import pytest

from kcpm.errors import ParseError
from kcpm.kg import KnowledgeGraph, Triple, load_triples, query, write_triples
from kcpm.logio import parse_timestamp


def kg3():
    return KnowledgeGraph([
        Triple("al", "worksAt", "uow"),
        Triple("uow", "locatedIn", "wgg"),
        Triple("al", "livesIn", "wgg"),
    ])


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
    assert kg.query() == frozenset()


def test_wrong_column_count_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        load_triples(io.StringIO("A\tp\tB\nA\tp\n"))


def test_ntriples_subset():
    text = '<http://x/a> <http://x/p> "literal" .\n<http://x/a> <http://x/q> <http://x/b> .\n'
    kg = load_triples(io.StringIO(text), format="ntriples")
    assert Triple("http://x/a", "http://x/p", "literal") in kg
    assert len(kg) == 2


def test_query_by_predicate():
    kg = kg3()
    assert query(kg, ("?", "locatedIn", "?")) == {
        Triple("uow", "locatedIn", "wgg")}


def test_query_fully_constant():
    kg = kg3()
    t = Triple("al", "worksAt", "uow")
    assert query(kg, t) == {t}


def test_query_all_wildcards_returns_everything():
    kg = kg3()
    assert query(kg, ("?", "?", "?")) == kg.all_triples()
    assert len(kg.query()) == len(kg)


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
        assert kg.all_triples() == rebuilt.all_triples()
        for t in triples:
            assert t in kg
            assert kg.query(subject=t.subject) == rebuilt.query(subject=t.subject)
            assert kg.query(object=t.object) == rebuilt.query(object=t.object)


def test_tsv_round_trip():
    kg = load_triples(io.StringIO(
        "A\tp\tB\nB\tq\tC\nA\tdirectly_follows\tB\t2024-01-01T00:00:00+00:00\n"))
    buf = io.StringIO()
    write_triples(kg, buf)
    again = load_triples(io.StringIO(buf.getvalue()))
    assert again.triples == kg.triples
    assert again.temporal == kg.temporal


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
