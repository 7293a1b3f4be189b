"""The directly-follows fallback for insertions that the rules alone do
not accept.

A candidate activity p, to be inserted directly after an event of
activity pred, scores the share of pred's observed successors that are
p: df(pred, p) / out(pred). The observations are the consecutive event
pairs of the log, plus one per timestamped directly_follows fact of the
knowledge graph. The share is accepted when it reaches theta, compared
in integers with theta read as the exact fraction of its decimal text
(0.3 is 3/10, not the double nearest it), so no rounding decides a tie.

bench/tracing.py wraps train_temporal_scorer and df_training_triples on
this module, so both keep their names and the one calls the other
through the module's namespace.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .eventlog import EventLog
from .kg import DIRECTLY_FOLLOWS, KnowledgeGraph


def df_training_triples(log: EventLog,
                        kg: KnowledgeGraph) -> list[tuple[str, str]]:
    """(predecessor, successor) observations: every pair of consecutive
    events of a trace, then every timestamped directly_follows fact of
    the knowledge graph, in sorted order."""
    pairs = []
    for t in log.traces:
        acts = t.activities
        pairs.extend(zip(acts, acts[1:]))
    pairs.extend(sorted((tt.triple.subject, tt.triple.object)
                        for tt in kg.temporal
                        if tt.triple.predicate == DIRECTLY_FOLLOWS))
    return pairs


class DirectlyFollowsShare:
    """How often each successor follows each predecessor among a set of
    observed pairs: df[pred, succ] and out[pred], the observations that
    start at pred."""

    __slots__ = ("df", "out")

    def __init__(self, pairs):
        self.df = Counter(pairs)
        self.out: Counter = Counter()
        for (pred, _), n in self.df.items():
            self.out[pred] += n

    def degree(self, pred: str, succ: str, theta: float) -> float | None:
        """df(pred, succ) / out(pred) if pred has an observed successor
        and the share reaches theta, else None."""
        out = self.out[pred]
        if not out:
            return None
        df = self.df[pred, succ]
        num, den = Fraction(repr(theta)).as_integer_ratio()
        return df / out if df * den >= num * out else None


def train_temporal_scorer(log: EventLog,
                          kg: KnowledgeGraph | None = None
                          ) -> DirectlyFollowsShare:
    """The directly-follows share of the log's and the KG's
    observations."""
    if kg is None:
        kg = KnowledgeGraph()
    return DirectlyFollowsShare(df_training_triples(log, kg))
