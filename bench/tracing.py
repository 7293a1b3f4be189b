"""In-memory span recorder and the wrappers that trace an in-process
`kcpm` CLI run from outside the package.

The wrappers are installed on the module attributes the CLI looks up at
call time (for example ``kcpm.cli.mine_rules`` or ``kcpm.augment.Closure``),
so ``src/`` is not edited. Each span records name, start, end, parent and
the run it belongs to, plus counters taken from the call's arguments and
result. A span's self time is its duration minus the part of it that
its child spans cover.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Spans of one traced process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """fn traced as `name`; count(result, args, kwargs) -> counters."""
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(result, args, kwargs))
            return result
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's
        intervals (children of one span never overlap in a single thread,
        but the union is taken anyway)."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out = []
        for i, sp in enumerate(self.spans):
            covered, reach = 0.0, sp.start
            for ch in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(sp.end - sp.start - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counters."""
        out: dict[str, dict[str, float]] = {}
        for sp, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += sp.end - sp.start
            agg["self_s"] += self_s
            for k, v in sp.counts.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def to_json(self) -> list[dict]:
        return [dict(asdict(sp), self_s=s)
                for sp, s in zip(self.spans, self.self_times())]


class Patches:
    """Replace module attributes, and put every original back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def install_cli_wrappers(rec: Recorder, patches: Patches) -> None:
    """Trace every layer the CLI subcommands call, at the attribute the
    caller looks up."""
    # `from kcpm import conformance` yields the function of that name,
    # which shadows the submodule, so look the modules up by name
    augment, cli, conformance, dfg, logio, rules, temporal, variants = (
        importlib.import_module(f"kcpm.{name}") for name in (
            "augment", "cli", "conformance", "dfg", "logio", "rules",
            "temporal", "variants"))

    def wrap(module, attr, name, count=None):
        patches.set(module, attr, rec.wrap(getattr(module, attr), name, count))

    wrap(logio, "parse_csv_auto", "logio.parse",
         lambda r, a, k: {"bytes_in": _size(a[0])})
    wrap(logio, "write_csv", "logio.write")
    wrap(cli, "load_triples", "kg.load", lambda r, a, k: {"triples": len(r)})
    wrap(cli, "mine_rules", "rules.mine", lambda r, a, k: {"rules": len(r)})
    closure = rec.wrap(rules.Closure, "rules.closure",
                       lambda r, a, k: {"builds": 1,
                                        "facts": len(r.confidence)})
    patches.set(augment, "Closure", closure)
    patches.set(dfg, "Closure", closure)
    wrap(augment, "filter_chaotic_events", "augment.remove",
         lambda r, a, k: {"removed": len(r[1].removed_events)})
    wrap(augment, "infer_missing_events", "augment.insert",
         lambda r, a, k: {"inserted": len(r[1].inserted),
                          "embedding_insertions": sum(
                              c.provenance == "embedding" for c in r[1].inserted)})
    wrap(temporal, "train_temporal_scorer", "temporal.train")
    wrap(temporal, "df_training_triples", "temporal.rows",
         lambda r, a, k: {"rows": len(r), "distinct_rows": len(set(r))})
    df_counts = rec.wrap(dfg.directly_follows_counts, "eventlog.df_counts",
                         lambda r, a, k: {"events": a[0].n_events})
    patches.set(dfg, "directly_follows_counts", df_counts)
    patches.set(conformance, "directly_follows_counts", df_counts)
    wrap(dfg, "mine_dependency_graph", "dfg.mine",
         lambda r, a, k: {"edges": len(r.edges)})
    wrap(dfg, "filter_dependency_graph", "dfg.filter",
         lambda r, a, k: {"removed_edges": len(r[1].removed_edges)})
    wrap(cli, "footprint_of_log", "conformance.footprint")
    wrap(cli, "footprint_of_model", "conformance.footprint")
    wrap(cli, "conformance", "conformance.compare")
    wrap(cli, "build_lpg", "lpg.build",
         lambda r, a, k: {"nodes": len(r.nodes), "edges": len(r.edges)})
    wrap(variants, "train_variant_model", "variants.train",
         lambda r, a, k: {"epochs": len(r.loss_history)})
    wrap(variants, "classify_log", "variants.classify")
    wrap(cli, "write_manifest", "manifest.write")


def install_synth_wrappers(rec: Recorder, patches: Patches) -> None:
    synth = importlib.import_module("kcpm.synth")
    patches.set(synth, "simulate", rec.wrap(synth.simulate, "synth.simulate"))
    patches.set(synth, "corrupt", rec.wrap(synth.corrupt, "synth.corrupt"))


# (metric name, unit, span name, field); field is total_s, self_s or a
# counter. Absent spans read 0: the workload does not use that layer.
LAYER_METRICS = [
    ("temporal.train_s", "s", "temporal.train", "total_s"),
    ("temporal.rows", "count", "temporal.rows", "rows"),
    ("temporal.distinct_rows", "count", "temporal.rows", "distinct_rows"),
    ("temporal.embedding_insertions", "count", "augment.insert",
     "embedding_insertions"),
    ("rules.mine_s", "s", "rules.mine", "total_s"),
    ("rules.n_rules", "count", "rules.mine", "rules"),
    ("rules.closure_s", "s", "rules.closure", "total_s"),
    ("rules.closure_builds", "count", "rules.closure", "builds"),
    ("rules.closure_facts", "count", "rules.closure", "max_facts"),
    ("augment.remove_self_s", "s", "augment.remove", "self_s"),
    ("augment.insert_self_s", "s", "augment.insert", "self_s"),
    ("augment.removed", "count", "augment.remove", "removed"),
    ("augment.inserted", "count", "augment.insert", "inserted"),
    ("logio.parse_s", "s", "logio.parse", "total_s"),
    ("logio.write_s", "s", "logio.write", "total_s"),
    ("logio.bytes_in", "bytes", "logio.parse", "bytes_in"),
    ("eventlog.df_counts_s", "s", "eventlog.df_counts", "total_s"),
    ("eventlog.n_events", "count", "eventlog.df_counts", "events"),
    ("dfg.mine_s", "s", "dfg.mine", "total_s"),
    ("dfg.filter_self_s", "s", "dfg.filter", "self_s"),
    ("dfg.edges", "count", "dfg.mine", "edges"),
    ("dfg.removed_edges", "count", "dfg.filter", "removed_edges"),
    ("conformance.footprint_s", "s", "conformance.footprint", "total_s"),
    ("conformance.compare_s", "s", "conformance.compare", "total_s"),
    ("kg.load_s", "s", "kg.load", "total_s"),
    ("kg.triples", "count", "kg.load", "triples"),
    ("lpg.build_s", "s", "lpg.build", "total_s"),
    ("lpg.nodes", "count", "lpg.build", "nodes"),
    ("lpg.edges", "count", "lpg.build", "edges"),
    ("variants.train_s", "s", "variants.train", "total_s"),
    ("variants.epochs", "count", "variants.train", "epochs"),
    ("variants.classify_s", "s", "variants.classify", "total_s"),
    ("manifest.write_s", "s", "manifest.write", "total_s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("synth.simulate_s", "s", "synth.simulate", "total_s"),
    ("synth.corrupt_s", "s", "synth.corrupt", "total_s"),
]


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    totals = rec.totals()
    facts = [sp.counts.get("facts", 0) for sp in rec.spans
             if sp.name == "rules.closure"]
    if "rules.closure" in totals:
        totals["rules.closure"]["max_facts"] = max(facts)
    return {metric: (totals.get(span, {}).get(key, 0), unit)
            for metric, unit, span, key in LAYER_METRICS}
