"""Knowledge-centric process mining toolkit.

Mines dependency graphs from event logs, constrains and repairs them
with rules mined from a knowledge graph, classifies traces into
context-aware variants via graph embeddings, and quantifies log/model
quality with footprint-based fitness, precision and F-score.
"""

__version__ = "0.1.0"

from .augment import (AugmentationReport, CandidateInsertion,
                      check_guideline_latency, filter_chaotic_events,
                      infer_missing_events)
from .conformance import (ConformanceReport, FootprintMatrix, Relation,
                          conformance, f_score, footprint_of_log,
                          footprint_of_model)
from .dfg import (DependencyGraph, FilterReport, MiningThresholds,
                  dependency_measure, filter_dependency_graph,
                  mine_dependency_graph)
from .errors import ConfigError, DataError, KcpmError, ParseError
from .eventlog import (ContextTable, Event, EventLog, Trace, annotate_context,
                       directly_follows_counts, eventually_follows_counts,
                       log_statistics, make_log)
from .kg import (DIRECTLY_FOLLOWS, FORBIDDEN_BEFORE, MUST_PRECEDE,
                 KnowledgeGraph, TemporalTriple, Triple, load_triples)
from .logio import (CsvMapping, mapping_for_log, parse_csv, parse_xes,
                    read_context_csv, write_csv, write_xes)
from .lpg import LabeledPropertyGraph, build_lpg
from .rules import (Atom, ClosedPathRule, Closure, EntailmentResult, RuleBase,
                    entails, mine_rules)
from .synth import CorruptionSpec, GroundTruthModel, corrupt, dropped_events, simulate
from .temporal import (ScorerParams, TemporalScorer, directly_follows_degree,
                       train_temporal_scorer)
from .variants import (CohortClass, VariantModel, VariantParams,
                       VariantPartition, classify_log, score_trace,
                       train_variant_model)

__all__ = [name for name in dir() if not name.startswith("_")]
