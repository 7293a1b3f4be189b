"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the package's own code paths: counting is done
with naive index loops, rule statistics by exhaustive enumeration over
the raw triple list, so agreement with the library is meaningful.
"""
import csv
import io
import math
from collections import Counter
from contextlib import contextmanager
from datetime import datetime
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from kcpm.errors import ConfigError, ParseError
from kcpm.logio import format_scalar, parse_scalar, parse_timestamp


def naive_df_counts(traces):
    """traces: list of activity-label lists."""
    counts = Counter()
    for acts in traces:
        for i in range(len(acts) - 1):
            counts[(acts[i], acts[i + 1])] += 1
    return dict(counts)


def naive_dependency(ab, ba):
    return (ab - ba) / (ab + ba + 1)


def naive_l1_measures(traces):
    counts = Counter()
    for acts in traces:
        for i in range(len(acts) - 1):
            if acts[i] == acts[i + 1]:
                counts[acts[i]] += 1
    return {a: n / (n + 1) for a, n in counts.items()}


def naive_l2_measures(traces):
    aba = Counter()
    for acts in traces:
        for i in range(len(acts) - 2):
            if acts[i] == acts[i + 2] and acts[i] != acts[i + 1]:
                aba[(acts[i], acts[i + 1])] += 1
    measures = {}
    for a, b in set(aba) | {(b, a) for a, b in aba}:
        total = aba.get((a, b), 0) + aba.get((b, a), 0)
        measures[(a, b)] = total / (total + 1)
    return measures


def naive_edges(traces, dependency_threshold, frequency_threshold,
                all_tasks_connected=False):
    """Edge set per the mining contract: df count at threshold, positive
    measure at threshold. With all_tasks_connected, then, activity by
    activity in name order: unless the activity starts a trace and none
    of its incoming pairs (its self-loop aside) is an edge yet, the
    strongest of them becomes one; then likewise for its outgoing pairs
    unless it ends a trace. The strongest pair has the highest measure,
    then the highest count, then is the least."""
    df = naive_df_counts(traces)

    def measure(pair):
        return naive_dependency(df[pair], df.get((pair[1], pair[0]), 0))

    edges = set()
    for (a, b), n in df.items():
        m = measure((a, b))
        if n >= frequency_threshold and m > 0 and m >= dependency_threshold:
            edges.add((a, b))
    if not all_tasks_connected:
        return edges
    starts = {acts[0] for acts in traces}
    ends = {acts[-1] for acts in traces}
    for act in sorted({a for acts in traces for a in acts}):
        incoming = [(a, b) for (a, b) in df if b == act and a != act]
        outgoing = [(a, b) for (a, b) in df if a == act and b != act]
        for exempt, pairs in ((starts, incoming), (ends, outgoing)):
            if act in exempt or not pairs or any(p in edges for p in pairs):
                continue
            top = max((measure(p), df[p]) for p in pairs)
            edges.add(min(p for p in pairs if (measure(p), df[p]) == top))
    return edges


# ---------------------------------------------------------------------------
# Rule mining
# ---------------------------------------------------------------------------

def naive_body_pairs(body_predicates, triples):
    """Exhaustive chain enumeration over the raw triple list."""
    def extend(prefix_pairs, predicate):
        out = set()
        for x, mid in prefix_pairs:
            for (s, p, o) in triples:
                if p == predicate and s == mid:
                    out.add((x, o))
        return out

    pairs = {(s, o) for (s, p, o) in triples if p == body_predicates[0]}
    for predicate in body_predicates[1:]:
        pairs = extend(pairs, predicate)
    return pairs


def naive_rule_stats(body_predicates, head_predicate, triples):
    pairs = naive_body_pairs(body_predicates, triples)
    head = {(s, o) for (s, p, o) in triples if p == head_predicate}
    support = sum(1 for pair in pairs if pair in head)
    std = support / len(pairs) if pairs else 0.0
    head_subjects = {s for s, _ in head}
    pca_den = sum(1 for x, _ in pairs if x in head_subjects)
    pca = support / pca_den if pca_den else 0.0
    return support, std, pca


def naive_mine(triples, max_len, min_support, min_pca):
    """All qualifying rules as (body_predicates, head, support, std, pca)."""
    predicates = sorted({p for (_, p, _) in triples})
    found = []
    for n in range(1, max_len + 1):
        for body in product(predicates, repeat=n):
            for head in predicates:
                if n == 1 and head == body[0]:
                    continue
                support, std, pca = naive_rule_stats(body, head, triples)
                if support >= min_support and pca >= min_pca - 1e-12:
                    found.append((body, head, support, std, pca))
    return found


def naive_body_confidences(body_predicates, conf):
    """(x, y) -> best product of body-fact confidences, by enumerating
    every chain of facts; conf maps (s, p, o) -> confidence and products
    are taken left to right."""
    paths = [((s, o), c) for (s, p, o), c in conf.items()
             if p == body_predicates[0]]
    for predicate in body_predicates[1:]:
        paths = [((x, o), c * c2) for (x, mid), c in paths
                 for (s, p, o), c2 in conf.items()
                 if p == predicate and s == mid]
    best = {}
    for pair, c in paths:
        best[pair] = max(best.get(pair, 0.0), c)
    return best


def naive_step(frontier, succ):
    """One join step, one object at a time: extend x -> z -> c by the
    relation z -> o -> c2, keeping the best positive c * c2 per (x, o)."""
    out = {}
    for x, zs in frontier.items():
        acc = {}
        for z, c in zs.items():
            for o, c2 in succ.get(z, {}).items():
                v = c * c2
                if v > acc.get(o, 0.0):
                    acc[o] = v
        if acc:
            out[x] = acc
    return out


def naive_closure(rules, triples, eps=1e-12):
    """Max-product forward chaining with no cap: every rule re-runs over
    every body chain until no fact rises by more than eps. rules are
    (body_predicates, head_predicate, pca_confidence); returns
    (s, p, o) -> confidence."""
    conf = {t: 1.0 for t in triples}
    changed = True
    while changed:
        changed = False
        for body, head, pca in rules:
            for (x, y), c in naive_body_confidences(body, conf).items():
                if c * pca > conf.get((x, head, y), 0.0) + eps:
                    conf[(x, head, y)] = c * pca
                    changed = True
    return conf


# ---------------------------------------------------------------------------
# Log repair
# ---------------------------------------------------------------------------

def naive_remove_chaotic(sequences, forbidden):
    """Remove the leftmost event forbidden right before its successor
    and rescan from the start, until no event is. forbidden is a set of
    (before, after) activity pairs. Returns the repaired sequences and
    (trace, input index, activity) of each removal, in order."""
    out, removed = [], []
    for n, acts in enumerate(sequences):
        work = list(enumerate(acts))
        while True:
            for i, (_, a) in enumerate(work[:-1]):
                if (a, work[i + 1][1]) in forbidden:
                    removed.append((n, work[i][0], a))
                    del work[i]
                    break
            else:
                break
        out.append([a for _, a in work])
    return out, removed


def edit_distance(truth, log):
    """Summed per-case Levenshtein distance between the activity
    sequences of truth's cases and the same cases of log: a case absent
    from log costs its full length. Unit-cost insert, delete and
    substitute, by the textbook table."""
    got = {t.case_id: t.activities for t in log.traces}
    total = 0
    for t in truth.traces:
        a, b = t.activities, got.get(t.case_id, ())
        row = list(range(len(b) + 1))
        for i, x in enumerate(a, start=1):
            prev, row = row, [i]
            for j, y in enumerate(b, start=1):
                row.append(min(prev[j] + 1, row[j - 1] + 1,
                               prev[j - 1] + (x != y)))
        total += row[-1]
    return total


def eager_infer_missing_events(log, closure, scorer, theta, alias=None):
    """Missing-event inference with the fallback counted up front: the
    same scan, consulting the given directly-follows share (or None) at
    every candidate the rule alone does not accept that has a
    predecessor. Prerequisites are sets of entity names, found missing by
    set difference and ordered by _order_by_precedence below. Returns
    the log, the report, and how many candidates reached the fallback."""
    from kcpm.augment import AugmentationReport, CandidateInsertion
    from kcpm.eventlog import Event, EventLog, Trace, insertion_time
    from kcpm.kg import MUST_PRECEDE

    prereq_facts = {}
    for s, o, conf, via in closure.facts(MUST_PRECEDE):
        prereq_facts.setdefault(o, {})[s] = (conf, via)
    reverse_alias = {}
    for act, ent in (alias or {}).items():
        reverse_alias.setdefault(ent, act)

    def activity_of(entity):
        return entity if alias is None else reverse_alias.get(entity, entity)

    inserted, traces, reached = [], [], 0
    for t in log.traces:
        work = list(t.events)
        inserted_here, seen = set(), set()
        i = 0
        while i < len(work):
            ent = (work[i].activity if alias is None
                   else alias.get(work[i].activity))
            prereqs = prereq_facts.get(ent)
            missing = prereqs.keys() - seen - inserted_here if prereqs else ()
            insert_at = i
            for p in _order_by_precedence(missing, prereq_facts):
                conf, rule_id = prereqs[p]
                accepted = None
                if conf >= theta:
                    accepted = CandidateInsertion(
                        t.case_id, activity_of(p), insert_at, conf, "rule",
                        rule_id)
                elif insert_at > 0:
                    reached += 1
                    degree = None if scorer is None else scorer.degree(
                        work[insert_at - 1].activity, activity_of(p), theta)
                    if degree is not None:
                        accepted = CandidateInsertion(
                            t.case_id, activity_of(p), insert_at, degree,
                            "embedding")
                if accepted is None:
                    continue
                work.insert(insert_at, Event(t.case_id, accepted.activity,
                                             insertion_time(work, insert_at),
                                             attributes={"synthetic": True}))
                inserted.append(accepted)
                inserted_here.add(p)
                insert_at += 1
            if insert_at == i:
                seen.add(ent)
                i += 1
        traces.append(Trace(t.case_id, tuple(work)))
    report = AugmentationReport(inserted=tuple(inserted),
                                thresholds={"theta": theta})
    return EventLog(tuple(traces), dict(log.meta)), report, reached


def _order_by_precedence(missing, prereq_facts: dict) -> list[str]:
    """Topological order of the missing prerequisites by their own
    must-precede entailments, alphabetical among unordered ones: the
    set-based ordering the int-mask one in kcpm.augment must match."""
    pending = sorted(missing)
    ordered: list[str] = []
    while pending:
        for p in pending:
            before = prereq_facts.get(p, {})
            if not any(q in pending and q != p for q in before):
                ordered.append(p)
                pending.remove(p)
                break
        else:  # cycle: fall back to alphabetical for the rest
            ordered.extend(pending)
            break
    return ordered


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------

def dense_relations(alphabet, present):
    """Every ordered pair of the alphabet mapped to its relation symbol,
    from the set of directly-follows pairs present."""
    rel = {}
    for a in sorted(alphabet):
        for b in sorted(alphabet):
            ab, ba = (a, b) in present, (b, a) in present
            rel[(a, b)] = "||" if (ab and ba) else "->" if ab else \
                "<-" if ba else "#"
    return rel


def naive_footprint(traces):
    df = naive_df_counts(traces)
    return dense_relations({a for acts in traces for a in acts},
                           {p for p, n in df.items() if n > 0})


def dense_conformance(log_side, model_side):
    """The all-pairs footprint comparison over the union alphabet, with
    pairs outside a side's alphabet counted as '#' there; each side is
    (alphabet, directly-follows pairs). Returns the report's JSON form."""
    log_rel, model_rel = dense_relations(*log_side), dense_relations(*model_side)
    alphabet = sorted(set(log_side[0]) | set(model_side[0]))
    directed = [{p for p, r in rel.items() if r in ("->", "||")}
                for rel in (log_rel, model_rel)]
    both = directed[0] & directed[1]
    fitness = len(both) / len(directed[0]) if directed[0] else 1.0
    precision = len(both) / len(directed[1]) if directed[1] else 1.0
    f = (2 * fitness * precision / (fitness + precision)
         if fitness > 0 and precision > 0 else 0.0)
    deviations = []
    for a in alphabet:
        for b in alphabet:
            lr, mr = log_rel.get((a, b), "#"), model_rel.get((a, b), "#")
            if lr != mr:
                deviations.append({"a": a, "b": b, "log": lr, "model": mr})
    return {"fitness": fitness, "precision": precision, "f_score": f,
            "deviations": deviations}


# ---------------------------------------------------------------------------
# The directly-follows fallback, one candidate at a time
# ---------------------------------------------------------------------------

def naive_df_share(traces, kg_pairs, pred, succ, theta):
    """The fallback's verdict on succ inserted after pred: the share of
    pred's observed successors that are succ, as a float, if pred has one
    and the share is at least theta read as its decimal text; else None.
    traces are activity-label lists, kg_pairs the (subject, object) of
    each timestamped directly_follows fact. Counted by index loops and
    compared as Fractions."""
    observed = [(acts[i], acts[i + 1]) for acts in traces
                for i in range(len(acts) - 1)]
    observed += list(kg_pairs)
    out = sum(1 for a, _ in observed if a == pred)
    if out == 0:
        return None
    share = Fraction(sum(1 for a, b in observed if (a, b) == (pred, succ)),
                     out)
    return float(share) if share >= Fraction(str(theta)) else None


# ---------------------------------------------------------------------------
# The fused graph and variant profiles, by names
# ---------------------------------------------------------------------------

def _entities(triples, temporal):
    return {x for t in [*triples, *(tt.triple for tt in temporal)]
            for x in (t.subject, t.object)}


def _activity_name(label, entities, alias):
    target = alias.get(label, label)
    return target if target in entities else "activity::" + label


def naive_fused_graph(log, triples, temporal=(), alias=None):
    """The construction rules of the kcpm.lpg docstring, on names: (the
    node-name set, the set of plain KG triples). triples are the plain KG
    triples and temporal the TemporalTriples. A KG entity that is also a
    name the log makes raises ValueError naming the least such one."""
    alias = alias or {}
    entities = _entities(triples, temporal)
    made = set()
    for trace in log.traces:
        made.add("case::" + trace.case_id)
        for e in trace.events:
            if alias.get(e.activity, e.activity) not in entities:
                made.add("activity::" + e.activity)
    clash = sorted(made & entities)
    if clash:
        raise ValueError(clash[0])
    return made | entities, set(triples)


def naive_case_features(trace, triples, temporal=(), alias=None):
    """The features of one trace by the kcpm.variants docstring, found by
    a scan of the KG: the node of each event's activity, and the object
    of every plain triple whose subject is that node."""
    alias = alias or {}
    entities = _entities(triples, temporal)
    features = set()
    for e in trace.events:
        node = _activity_name(e.activity, entities, alias)
        features.add(node)
        features.update(t.object for t in triples if t.subject == node)
    return features


def naive_profile_classify(train_log, labels, log, triples, temporal=(),
                           alias=None):
    """(assignment, scores, prior_assigned, loss) of the class profiles of
    train_log's labeled cases, one case of log at a time, with every score
    an exact Fraction: a class scores the sum over the case's features of
    the share of its labeled cases that have the feature, normalised to
    sum 1; the highest score wins, ties going to the least class id; a
    case whose every score is 0 gets the class prior. loss is the mean
    -log of each labeled case's score for its own class."""
    sizes, profiles = Counter(), {}
    for trace in train_log.traces:
        if trace.case_id in labels:
            cls = labels[trace.case_id]
            sizes[cls] += 1
            profiles.setdefault(cls, Counter()).update(
                naive_case_features(trace, triples, temporal, alias))
    classes = sorted(sizes)

    def scores_of(trace):
        features = naive_case_features(trace, triples, temporal, alias)
        raw = {c: sum((Fraction(profiles[c][f], sizes[c]) for f in features),
                      Fraction(0)) for c in classes}
        prior = not any(raw.values())
        if prior:
            raw = {c: Fraction(sizes[c]) for c in classes}
        total = sum(raw.values())
        return {c: raw[c] / total for c in classes}, prior

    assignment, scores, prior_assigned = {}, {}, set()
    for trace in log.traces:
        case_scores, prior = scores_of(trace)
        if prior:
            prior_assigned.add(trace.case_id)
        best = max(case_scores.values())
        assignment[trace.case_id] = min(c for c in classes
                                        if case_scores[c] == best)
        scores[trace.case_id] = case_scores
    own = [-math.log(scores_of(t)[0][labels[t.case_id]]) for t in train_log.traces
           if t.case_id in labels]
    return assignment, scores, frozenset(prior_assigned), sum(own) / len(own)


def _iso_timestamp(text):
    t = text.strip()
    return datetime.fromisoformat(t[:-1] + "+00:00" if t.endswith("Z") else t)


def _infer_cell(text):
    """One cell typed on its own: int, float, bool, ISO timestamp, else
    string."""
    def as_bool(t):
        if t.lower() not in ("true", "false"):
            raise ValueError(t)
        return t.lower() == "true"

    for parse in (int, float, as_bool, _iso_timestamp):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def per_cell_parse_csv_auto(text):
    """The former logio.parse_csv_auto on CSV text: a DictReader pass that
    types every extra cell on its own, so one column may hold several
    kinds."""
    from kcpm.eventlog import Event, make_log

    canonical = ("case_id", "activity", "timestamp", "resource")
    events = []
    for row in csv.DictReader(io.StringIO(text, newline="")):
        attrs = {col: _infer_cell(cell) for col, cell in row.items()
                 if col not in canonical and cell != ""}
        events.append(Event(row["case_id"], row["activity"],
                            _iso_timestamp(row["timestamp"]),
                            row.get("resource") or None, attrs))
    return make_log(events)


# ---------------------------------------------------------------------------
# The CSV reader and writer before the one-pass reader: a list of every
# row, kinds from a set of each column's cells, one parse per cell, one
# writerow per event. Verbatim but for _open_text, which here only wraps
# CSV text, the names of the imports, CsvMapping, which here stands in for
# the package's former record, and the parts only declared column roles,
# kinds and timestamp formats reached.
# ---------------------------------------------------------------------------

_KIND_NAMES = ("string", "int", "float", "bool", "timestamp")


class CsvMapping(NamedTuple):
    """The column roles parse_csv_auto read a log with."""
    resource: str | None
    attributes: dict[str, str]
    case: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"


@contextmanager
def _open_text(source):
    yield io.StringIO(source, newline="")


@contextmanager
def csv_rows(source, required):
    """(columns, rows) of a CSV: columns maps each header name to its
    position (the last one if repeated), and rows yields (row number,
    fields) for each data row, the header being row 1. Blank lines are
    skipped. A required column missing from the header is a ConfigError,
    and a row whose width differs from the header's a ParseError. Errors
    name a source path, as _open_text says."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ConfigError(f"columns missing from CSV header: {missing}")
        yield {name: i for i, name in enumerate(header)}, _sized_rows(
            reader, len(header))


def _sized_rows(reader, width: int):
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"row {rownum}: {len(row)} fields, header has {width}")
        yield rownum, row


def _parses(cells, kind: str) -> bool:
    try:
        for cell in cells:
            parse_scalar(cell, kind)
    except (ParseError, ValueError):
        return False
    return True


def _column_kinds(columns: dict[str, int], rows, skip) -> dict[str, str]:
    """Kind of each column not in skip: the first of int, float, bool and
    timestamp that parses all its non-empty cells, else string."""
    kinds = {}
    for name, i in columns.items():
        if name not in skip:
            cells = {row[i] for _, row in rows} - {""}
            kinds[name] = next((k for k in _KIND_NAMES[1:]
                                if _parses(cells, k)), "string")
    return kinds


def _events(columns: dict[str, int], rows, mapping: CsvMapping):
    from kcpm.eventlog import Event, make_log

    case = columns[mapping.case]
    activity = columns[mapping.activity]
    when = columns[mapping.timestamp]
    resource = None if mapping.resource is None else columns[mapping.resource]
    attributes = [(name, columns[name], kind)
                  for name, kind in mapping.attributes.items()]
    events: list[Event] = []
    for rownum, row in rows:
        try:
            ts = parse_timestamp(row[when])
        except (ParseError, ValueError) as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
        attrs = {}
        for name, i, kind in attributes:
            if row[i] == "":
                continue
            try:
                attrs[name] = parse_scalar(row[i], kind)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"row {rownum}, column {name!r}: {exc}") from None
        try:
            events.append(Event(row[case], row[activity], ts,
                                (row[resource] or None) if resource is not None
                                else None, attrs))
        except ValueError as exc:
            raise ParseError(f"row {rownum}: {exc}") from None
    return make_log(events)


_CANONICAL = ("case_id", "activity", "timestamp", "resource")


def parse_csv_auto(source):
    """Parse a CSV written by write_csv without an explicit mapping: ISO
    timestamps, a resource column if there is one, and every other
    column typed by _column_kinds."""
    with csv_rows(source, _CANONICAL[:3]) as (columns, rows):
        rows = list(rows)
        mapping = CsvMapping(
            resource="resource" if "resource" in columns else None,
            attributes=_column_kinds(columns, rows, _CANONICAL))
        return _events(columns, rows, mapping)


def write_csv(log, stream) -> None:
    """Write the log with canonical columns (case_id, activity, timestamp,
    resource) plus one column per attribute key, RFC-4180 quoting."""
    attr_cols = sorted({k for t in log.traces for e in t.events for k in e.attributes})
    writer = csv.writer(stream)
    writer.writerow(["case_id", "activity", "timestamp", "resource", *attr_cols])
    for t in log.traces:
        for e in t.events:
            row = [e.case_id, e.activity, e.timestamp.isoformat(),
                   e.resource if e.resource is not None else ""]
            for col in attr_cols:
                v = e.attributes.get(col)
                row.append("" if v is None else format_scalar(v))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Knowledge graph
# ---------------------------------------------------------------------------

def naive_kg(rows):
    """What a KG of (subject, predicate, object, timestamp or None) rows
    holds, as sets of tuples: (distinct facts, entities, plain facts,
    (fact, timestamp) of the temporal rows)."""
    facts = {(s, p, o) for s, p, o, _ in rows}
    plain = {(s, p, o) for s, p, o, ts in rows if ts is None}
    temporal = {((s, p, o), ts) for s, p, o, ts in rows if ts is not None}
    entities = {s for s, _, _ in facts} | {o for _, _, o in facts}
    return facts, entities, plain, temporal
