"""The package's records: equal and hashed by their fields, in the order
they declare them, so that set and dict orders, and with them the bytes
of every artifact, do not depend on how a record is implemented; frozen
unless it is the mutable one; with their custom repr and str."""
import copy
from datetime import datetime

import pytest

from kcpm.augment import AugmentationReport
from kcpm.config import PipelineConfig
from kcpm.conformance import (ConformanceReport, Deviation, FootprintMatrix,
                              Relation)
from kcpm.dfg import (DependencyEdge, DependencyGraph, FilterReport,
                      MiningThresholds, RemovedEdge)
from kcpm.eventlog import ContextTable, Event, EventLog, Trace
from kcpm.kg import TemporalTriple, Triple
from kcpm.rules import Atom, ClosedPathRule, RuleBase
from kcpm.synth import CorruptionSpec, GroundTruthModel
from kcpm.variants import VariantModel, VariantPartition

T0 = datetime(2024, 3, 1, 9)
EVENT = Event("c", "a", T0)
HEAD = Atom("q", "x", "y")
RULE = ClosedPathRule((Atom("p", "x", "y"),), HEAD, 2, 0.5, 0.75)
EDGE = DependencyEdge("a", "b", 1, 0.5)

# kind: "hash" is frozen and hashed by its fields; "unhashable" is frozen
# with a dict field, which no hash takes; "mutable" sets fields
RECORDS = {
    "Trace": (lambda: Trace("c", (EVENT,)), ("case_id", "events"),
              "unhashable"),
    "EventLog": (lambda: EventLog((Trace("c", (EVENT,)),), {"k": 1}),
                 ("traces", "meta"), "unhashable"),
    "ContextTable": (lambda: ContextTable({"c": {"age": 3}}), ("rows",),
                     "unhashable"),
    "Triple": (lambda: Triple("s", "p", "o"),
               ("subject", "predicate", "object"), "hash"),
    "TemporalTriple": (lambda: TemporalTriple(Triple("s", "p", "o"), T0),
                       ("triple", "timestamp"), "hash"),
    "PipelineConfig": (lambda: PipelineConfig(log="l.csv", theta_aug=0.3),
                       PipelineConfig.FIELDS, "mutable"),
    "Atom": (lambda: Atom("p", "x", "y"),
             ("predicate", "subject_var", "object_var"), "hash"),
    "ClosedPathRule": (lambda: ClosedPathRule((Atom("p", "x", "y"),), HEAD,
                                              2, 0.5, 0.75),
                       ("body", "head", "support", "std_confidence",
                        "pca_confidence"), "hash"),
    "RuleBase": (lambda: RuleBase((RULE,), 1, 0.5, 2),
                 ("rules", "min_support", "min_pca_conf", "max_body_len"),
                 "hash"),
    "AugmentationReport": (lambda: AugmentationReport((), ()),
                           ("removed_events", "inserted", "thresholds"),
                           "hash"),
    "MiningThresholds": (lambda: MiningThresholds(0.4, 2),
                         ("dependency_threshold", "frequency_threshold",
                          "all_tasks_connected"), "hash"),
    "DependencyEdge": (lambda: DependencyEdge("a", "b", 1, 0.5),
                       ("source", "target", "df_count", "dependency"),
                       "hash"),
    "DependencyGraph": (lambda: DependencyGraph(
                            frozenset("ab"), {("a", "b"): EDGE}, {}, {},
                            {"a": 1}, {"b": 1}),
                        ("activities", "edges", "l1_loops", "l2_loops",
                         "start_activities", "end_activities", "df_counts"),
                        "unhashable"),
    "RemovedEdge": (lambda: RemovedEdge("a", "b", None),
                    ("source", "target", "rule_id"), "hash"),
    "FilterReport": (lambda: FilterReport((), 3),
                     ("removed_edges", "kept_edges"), "hash"),
    "FootprintMatrix": (lambda: FootprintMatrix(("a", "b"),
                                                frozenset({("a", "b")})),
                        ("activities", "pairs"), "hash"),
    "Deviation": (lambda: Deviation(("a", "b"), Relation.CAUSAL,
                                    Relation.UNRELATED),
                  ("pair", "log_relation", "model_relation"), "hash"),
    "ConformanceReport": (lambda: ConformanceReport(0.5, 1.0, 2 / 3, ()),
                          ("fitness", "precision", "f_score", "deviations"),
                          "hash"),
    "VariantModel": (lambda: VariantModel({"x": 1}, {"x": {"f": 1}}, (0.5,)),
                     ("class_counts", "profiles", "loss_history"),
                     "unhashable"),
    "VariantPartition": (lambda: VariantPartition({"c": "x"},
                                                  {"c": {"x": 1.0}}),
                         ("assignment", "scores", "prior_assigned"),
                         "unhashable"),
    "GroundTruthModel": (lambda: GroundTruthModel(frozenset("ab"), {"a": 1.0},
                                                  {"a": {"b": 1.0}}),
                         ("activities", "start_probs", "transitions"),
                         "unhashable"),
    "CorruptionSpec": (lambda: CorruptionSpec(0.1, 0.2, frozenset("n"), 3),
                       ("drop_rate", "noise_rate", "noise_alphabet", "seed"),
                       "hash"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_equal_hashed_and_frozen_by_their_fields(name):
    make, fields, kind = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert copy.copy(a) == a
    values = tuple(getattr(a, f) for f in fields)
    if kind == "hash":
        assert hash(a) == hash(b) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if kind == "mutable":
        setattr(a, fields[0], ("changed",))
        assert a != b
    else:
        with pytest.raises(AttributeError):
            setattr(a, fields[0], values[0])
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        with pytest.raises(AttributeError):
            delattr(a, fields[0])


def test_custom_repr_and_str():
    assert repr(Triple("s", "p", "o")) == str(Triple("s", "p", "o")) == "p(s, o)"
    assert str(Atom("p", "x", "z1")) == "p(x,z1)"
    assert RULE.text() == "p(x,y) => q(x,y) [supp=2 conf=0.50 pca=0.75]"
