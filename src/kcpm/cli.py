"""Command line interface.

Subcommands: ingest, stats, mine-rules, mine-dfg, filter, augment,
variants-train, variants-classify, conform, synth and pipeline. Every
run writes its artifacts plus a manifest.json into --out. Exit codes:
0 success, 1 usage error, 2 data/config error.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import logio
from .config import PipelineConfig, load_config
from .errors import ConfigError, DataError, KcpmError, ParseError
from .eventlog import EventLog, annotate_context, log_statistics
from .kg import KnowledgeGraph, load_triples
from .lpg import build_lpg
from .manifest import write_manifest

if TYPE_CHECKING:
    from .dfg import DependencyGraph
    from .rules import BodyJoins, RuleBase


# bench/tracing.py wraps these four names on this module, so each stays a
# module attribute that the subcommands call. Each imports its module on
# its first call, as the subcommands import kcpm.rules, kcpm.dfg and
# kcpm.conformance where they run: the variant subcommands load none.

def mine_rules(*args, **kwargs):
    from .rules import mine_rules
    return mine_rules(*args, **kwargs)


def footprint_of_log(*args, **kwargs):
    from .conformance import footprint_of_log
    return footprint_of_log(*args, **kwargs)


def footprint_of_model(*args, **kwargs):
    from .conformance import footprint_of_model
    return footprint_of_model(*args, **kwargs)


def conformance(*args, **kwargs):
    from .conformance import conformance
    return conformance(*args, **kwargs)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def read_log(path: str, context: str | None = None,
             xes_on_malformed: str = "fail") -> EventLog:
    if path.endswith(".xes"):
        log = logio.parse_xes(path, on_malformed=xes_on_malformed)
    else:
        log = logio.parse_csv_auto(path)
    if context:
        ctx = logio.read_context_csv(context)
        log, _ = annotate_context(log, ctx)
    return log


def read_alias(path: str | None) -> dict[str, str] | None:
    """The alias CSV: activity, entity columns, one row per mapped
    activity. An empty cell or an activity mapped twice is a ParseError
    naming the row."""
    if path is None:
        return None
    with logio.csv_rows(path, ("activity", "entity")) as (columns, rows):
        act_col, ent_col = columns["activity"], columns["entity"]
        alias: dict[str, str] = {}
        for rownum, row in rows:
            activity, entity = row[act_col], row[ent_col]
            if not activity or not entity:
                column = "entity" if activity else "activity"
                raise ParseError(f"row {rownum}: empty {column}")
            if activity in alias:
                raise ParseError(f"row {rownum}: activity {activity!r} is "
                                 "mapped twice")
            alias[activity] = entity
        return alias


def _write(out_dir: str, name: str, writer) -> str:
    """Write one artifact, creating out_dir first: a run refused before
    its first artifact leaves no output directory behind."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)
    return path


def _json_out(out_dir: str, name: str, payload) -> str:
    """payload as one line of JSON with sorted keys, through the C
    encoder, which json.dump and any indent would not use."""
    return _write(out_dir, name, lambda fh: fh.write(
        json.dumps(payload, sort_keys=True) + "\n"))


def _config_from_args(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    for name in cfg.FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


def _read_json(path: str, decode):
    """decode() applied to the JSON in path; a file that is not JSON or
    does not decode is a ParseError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return decode(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not JSON: {exc.msg}") from None
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def _reference_graph(obj) -> DependencyGraph:
    """A dependency graph, or a ground-truth model as its dependency graph."""
    if "transitions" in obj:
        from . import synth

        return synth.model_from_json(obj).to_dependency_graph()
    from .dfg import dfg_from_json

    return dfg_from_json(obj)


def _read_rules(path: str) -> RuleBase:
    from .rules import read_rules_jsonl

    with logio._open_text(path) as fh:
        return read_rules_jsonl(fh)


def _load_rules(cfg: PipelineConfig, args, kg: KnowledgeGraph
                ) -> tuple[RuleBase, BodyJoins]:
    """The --rules file where the subcommand takes one and it was given,
    else the rules mined from the KG; with them the base joins that
    mining recorded, for the closure to take, or none for a file."""
    rules_path = getattr(args, "rules", None)
    if rules_path:
        return _read_rules(rules_path), {}
    joins: BodyJoins = {}
    rb = mine_rules(kg, max_body_len=2, min_support=cfg.min_support,
                    min_pca_conf=cfg.min_pca_conf, joins=joins)
    return rb, joins


def _train_scorer_or_none(cfg: PipelineConfig, log: EventLog,
                          kg: KnowledgeGraph):
    """The directly-follows fallback, or None where no share, which is at
    most 1, can reach theta_aug."""
    if cfg.theta_aug > 1:
        return None
    from . import temporal

    return temporal.train_temporal_scorer(log, kg)


def _read_repair_log(cfg: PipelineConfig) -> EventLog:
    """The log to repair; one without traces is rejected before any
    artifact is written."""
    log = read_log(cfg.log, cfg.context)
    if not log.traces:
        raise DataError(f"{cfg.log}: the log has no traces")
    return log


# ---------------------------------------------------------------------------
# Subcommand bodies: each writes its artifacts; main writes the manifest
# ---------------------------------------------------------------------------

def _cmd_ingest(cfg: PipelineConfig, args) -> None:
    log = read_log(cfg.log, cfg.context, args.xes_on_malformed)
    _write(cfg.out, "log.csv", lambda fh: logio.write_csv(log, fh))
    _json_out(cfg.out, "stats.json", log_statistics(log))


def _cmd_stats(cfg: PipelineConfig, args) -> None:
    log = read_log(cfg.log, cfg.context)
    stats = log_statistics(log)
    _json_out(cfg.out, "stats.json", stats)
    print(json.dumps(stats, indent=2, sort_keys=True))


def _cmd_mine_rules(cfg: PipelineConfig, args) -> None:
    from .rules import write_rules_jsonl, write_rules_text

    kg = load_triples(cfg.kg)
    rb = mine_rules(kg, max_body_len=args.max_body_len,
                    min_support=cfg.min_support,
                    min_pca_conf=cfg.min_pca_conf)
    _write(cfg.out, "rules.jsonl", lambda fh: write_rules_jsonl(rb, fh))
    _write(cfg.out, "rules.txt", lambda fh: write_rules_text(rb, fh))
    print(f"mined {len(rb)} rules")


def _cmd_mine_dfg(cfg: PipelineConfig, args) -> None:
    from . import dfg as dfgmod

    log = read_log(cfg.log, cfg.context)
    th = dfgmod.MiningThresholds(cfg.dependency_threshold,
                                 cfg.frequency_threshold,
                                 cfg.all_tasks_connected,
                                 args.long_distance)
    dg = dfgmod.mine_dependency_graph(log, th)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(dg))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(dg, fh))
    print(f"{len(dg.edges)} edges over {len(dg.activities)} activities")


def _cmd_filter(cfg: PipelineConfig, args) -> None:
    from . import dfg as dfgmod

    dg = _read_json(args.dfg, dfgmod.dfg_from_json)
    kg = load_triples(cfg.kg)
    rb = _read_rules(args.rules)
    alias = read_alias(cfg.alias)
    filtered, report = dfgmod.filter_dependency_graph(
        dg, dfgmod.Closure(rb, kg), alias)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(filtered))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(filtered, fh))
    _json_out(cfg.out, "filter_report.json",
              dfgmod.filter_report_to_json(report))
    print(dfgmod.filter_report_table(report), end="")


def _augment_log(cfg: PipelineConfig, log: EventLog, kg: KnowledgeGraph,
                 closure, alias):
    from . import augment as aug

    filtered, removal_report = aug.filter_chaotic_events(log, closure, alias)
    # the fallback is counted only if an insertion asks for it
    make_scorer = ((lambda: _train_scorer_or_none(cfg, filtered, kg))
                   if cfg.use_embedding else None)
    augmented, insert_report = aug.infer_missing_events(
        filtered, closure, make_scorer, cfg.theta_aug, alias)
    return augmented, aug.merge_reports(removal_report, insert_report)


def _cmd_augment(cfg: PipelineConfig, args) -> None:
    from . import augment as aug

    log = _read_repair_log(cfg)
    kg = load_triples(cfg.kg)
    rb, joins = _load_rules(cfg, args, kg)
    alias = read_alias(cfg.alias)
    augmented, report = _augment_log(cfg, log, kg,
                                     aug.Closure(rb, kg, joins), alias)
    _write(cfg.out, "augmented.csv", lambda fh: logio.write_csv(augmented, fh))
    _write(cfg.out, "augmented.xes", lambda fh: logio.write_xes(augmented, fh))
    _write(cfg.out, "augment_report.json",
           lambda fh: aug.write_report_json(report, fh))
    print(f"removed {len(report.removed_events)} events, "
          f"inserted {len(report.inserted)}")


def _cmd_variants_train(cfg: PipelineConfig, args) -> None:
    from . import variants

    log = read_log(cfg.log, cfg.context)
    kg = load_triples(cfg.kg)
    labels = variants.read_labels_csv(cfg.labels)
    graph = build_lpg(log, kg, read_alias(cfg.alias))
    model = variants.train_variant_model(graph, labels)
    _write(cfg.out, "variant_model.json",
           lambda fh: variants.save_model(model, fh))
    print(f"trained on {len(labels)} labeled cases, "
          f"final loss {model.loss_history[-1]:.4f}")


def _cmd_variants_classify(cfg: PipelineConfig, args) -> None:
    from . import variants

    log = read_log(cfg.log, cfg.context)
    kg = load_triples(cfg.kg)
    model = variants.load_model(cfg.model)
    graph = build_lpg(log, kg, read_alias(cfg.alias))
    partition = variants.classify_log(model, graph)
    _write(cfg.out, "variants.json",
           lambda fh: variants.write_partition_json(partition, fh))
    _write(cfg.out, "variants.csv",
           lambda fh: variants.partition_to_csv(partition, fh))
    sizes = {cid: len(partition.cases_of(cid)) for cid in model.class_ids()}
    print(json.dumps(sizes, sort_keys=True))


def _cmd_conform(cfg: PipelineConfig, args) -> None:
    from .conformance import comparison_table

    log = read_log(cfg.log, cfg.context)
    model = _read_json(cfg.model, _reference_graph)
    report = conformance(footprint_of_log(log), footprint_of_model(model))
    _write(cfg.out, "report.json", lambda fh: _write_conformance(fh, report))
    table = comparison_table([(os.path.basename(cfg.log), report)])
    _write(cfg.out, "table.txt", lambda fh: fh.write(table))
    print(table, end="")


def _cmd_synth(cfg: PipelineConfig, args) -> None:
    from . import synth

    if args.cases < 1:
        raise ConfigError("--cases must be >= 1")
    alphabet = frozenset(a for a in args.noise_alphabet.split(",") if a)
    try:
        spec = synth.CorruptionSpec(args.drop, args.noise, alphabet, cfg.seed)
    except ValueError as exc:  # a rate outside [0, 1], or noise without labels
        raise ConfigError(str(exc)) from None
    model = _read_json(cfg.model, synth.model_from_json)
    log = synth.simulate(model, args.cases, cfg.seed)
    _write(cfg.out, "log.csv", lambda fh: logio.write_csv(log, fh))
    if args.drop > 0 or args.noise > 0:
        corrupted = synth.corrupt(log, spec)
        _write(cfg.out, "corrupted.csv",
               lambda fh: logio.write_csv(corrupted, fh))
    print(f"simulated {len(log)} cases, {log.n_events} events")


def _write_conformance(fh, report) -> None:
    """conform's report.json, one deviation at a time."""
    from .conformance import write_report_json

    write_report_json(report, fh)
    fh.write("\n")


def _write_pipeline_report(fh, counts: dict, reports: dict) -> None:
    """The pipeline's report.json, byte for byte as _json_out would
    write {"augmentation": counts, **reports}: the counts, then each
    conformance report in key order, one deviation at a time."""
    from .conformance import write_report_json

    fh.write(f'{{"augmentation": {json.dumps(counts, sort_keys=True)}')
    for key in sorted(reports):
        fh.write(f', "{key}": ')
        write_report_json(reports[key], fh)
    fh.write("}\n")


def _cmd_pipeline(cfg: PipelineConfig, args) -> None:
    # every stage's module is loaded before the log is read, so the
    # memory that compiling them takes is freed before the log is built
    from . import augment as aug
    from . import dfg as dfgmod
    from .conformance import comparison_table, footprint_of_counts
    from .rules import write_rules_jsonl

    # parse_args leaves a few hundred objects in reference cycles, which
    # the collector, off for the run, would keep to its end; freed here,
    # after the imports, the log reuses their memory and the run's peak
    # RSS is no higher than with the stages imported at start-up
    gc.collect(0)
    log = _read_repair_log(cfg)
    kg = load_triples(cfg.kg)
    alias = read_alias(cfg.alias)
    reference = (_read_json(cfg.model, _reference_graph) if cfg.model
                 else None)

    rb, joins = _load_rules(cfg, args, kg)
    _write(cfg.out, "rules.jsonl", lambda fh: write_rules_jsonl(rb, fh))

    # one closure serves removal, insertion and edge filtering; building it
    # through the name kcpm.augment imports lets a wrapper there (such as
    # bench/tracing.py installs) time it. Its first pass takes the joins
    # that mining recorded and empties the dict.
    closure = aug.Closure(rb, kg, joins)
    augmented, report = _augment_log(cfg, log, kg, closure, alias)
    _write(cfg.out, "augmented.csv", lambda fh: logio.write_csv(augmented, fh))
    _write(cfg.out, "augment_report.json",
           lambda fh: aug.write_report_json(report, fh))

    th = dfgmod.MiningThresholds(cfg.dependency_threshold,
                                 cfg.frequency_threshold,
                                 cfg.all_tasks_connected)
    dg_aug = dfgmod.mine_dependency_graph(augmented, th)
    dg_filtered, filter_report = dfgmod.filter_dependency_graph(
        dg_aug, closure, alias)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(dg_filtered))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(dg_filtered, fh))
    _json_out(cfg.out, "filter_report.json",
              dfgmod.filter_report_to_json(filter_report))

    counts = {"inserted": len(report.inserted),
              "removed": len(report.removed_events)}
    reports = {}
    table = ""
    if reference is not None:
        model_fp = footprint_of_model(reference)
        raw_rep = conformance(footprint_of_log(log), model_fp)
        # the repaired log's footprint from the counts its graph was
        # mined from, without a third directly-follows pass
        aug_rep = conformance(
            footprint_of_counts(dg_aug.activities, dg_aug.df_counts),
            model_fp)
        table = comparison_table([("raw", raw_rep), ("augmented", aug_rep)])
        reports = {"raw": raw_rep, "augmented": aug_rep}
    _write(cfg.out, "report.json",
           lambda fh: _write_pipeline_report(fh, counts, reports))
    _write(cfg.out, "table.txt", lambda fh: fh.write(table))
    if table:
        print(table, end="")


# ---------------------------------------------------------------------------
# The subcommand table
# ---------------------------------------------------------------------------

# Every option, keyed by the PipelineConfig field it sets, or by the
# argparse dest a body reads where no field holds it.
_FLAGS: dict[str, tuple[str, dict]] = {
    "config": ("--config", dict(help="INI config file")),
    "out": ("--out", dict(help="output directory")),
    # input paths
    "log": ("--log", dict(help="event log (.xes or .csv)")),
    "kg": ("--kg", dict(help="knowledge graph TSV: subject, predicate, "
                             "object[, ISO-8601 timestamp]")),
    "context": ("--context", dict(help="context table CSV")),
    "alias": ("--alias", dict(help="activity-to-entity alias CSV")),
    "labels": ("--labels", dict(help="labels CSV (case_id,class)")),
    "model": ("--model", dict(help="model JSON: a dependency graph or "
                              "ground-truth model, or for variants-classify "
                              "a variant profile checkpoint")),
    "dfg": ("--dfg", dict(help="dependency graph JSON")),
    "rules": ("--rules", dict(help="rule base JSONL (augment: mined from "
                              "the KG when absent)")),
    # tuning
    "seed": ("--seed", dict(type=int, help="synth: the simulation and "
                            "corruption seed; elsewhere recorded in the "
                            "manifest only")),
    "min_support": ("--min-support", dict(type=int)),
    "min_pca_conf": ("--min-pca-conf", dict(type=float)),
    "dependency_threshold": ("--dependency-threshold", dict(type=float)),
    "frequency_threshold": ("--frequency-threshold", dict(type=int)),
    "all_tasks_connected": ("--all-tasks-connected",
                            dict(action="store_const", const=True)),
    "theta_aug": ("--theta-aug", dict(type=float)),
    "use_embedding": ("--no-embedding",
                      dict(action="store_const", const=False,
                           help="accept insertions by rule only, without "
                                "the directly-follows fallback")),
    "xes_on_malformed": ("--xes-on-malformed",
                         dict(choices=("fail", "skip"), default="fail")),
    "max_body_len": ("--max-body-len",
                     dict(type=int, default=2, choices=(1, 2, 3))),
    "long_distance": ("--long-distance", dict(action="store_true")),
    "cases": ("--cases", dict(type=int, required=True)),
    "drop": ("--drop", dict(type=float, default=0.0)),
    "noise": ("--noise", dict(type=float, default=0.0)),
    "noise_alphabet": ("--noise-alphabet",
                       dict(default="",
                            help="comma-separated noise activity labels")),
}


class _Command(NamedTuple):
    run: Callable[[PipelineConfig, argparse.Namespace], None]
    help: str
    paths: tuple[str, ...]     # input files; each one given is digested
    required: tuple[str, ...]  # paths that a flag or --config must give
    flags: tuple[str, ...] = ()


_REPAIR_FLAGS = ("seed", "theta_aug", "use_embedding", "min_support",
                 "min_pca_conf")

_COMMANDS = {
    "ingest": _Command(
        _cmd_ingest, "parse a log, write canonical CSV + stats",
        ("log", "context"), ("log",), ("xes_on_malformed",)),
    "stats": _Command(
        _cmd_stats, "log statistics as JSON", ("log", "context"), ("log",)),
    "mine-rules": _Command(
        _cmd_mine_rules, "mine closed-path rules from a KG", ("kg",), ("kg",),
        ("max_body_len", "min_support", "min_pca_conf")),
    "mine-dfg": _Command(
        _cmd_mine_dfg, "mine the dependency graph of a log",
        ("log", "context"), ("log",),
        ("dependency_threshold", "frequency_threshold", "all_tasks_connected",
         "long_distance")),
    "filter": _Command(
        _cmd_filter, "filter a dependency graph against rules",
        ("dfg", "rules", "kg", "alias"), ("dfg", "rules", "kg")),
    "augment": _Command(
        _cmd_augment, "repair a log: drop chaotic events, insert missing ones",
        ("log", "kg", "context", "alias", "rules"), ("log", "kg"),
        _REPAIR_FLAGS),
    "variants-train": _Command(
        _cmd_variants_train, "train the variant classifier",
        ("log", "kg", "labels", "context", "alias"), ("log", "kg", "labels")),
    "variants-classify": _Command(
        _cmd_variants_classify, "partition a log into variants",
        ("log", "kg", "model", "context", "alias"), ("log", "kg", "model")),
    "conform": _Command(
        _cmd_conform, "footprint conformance of a log against a model",
        ("log", "model", "context"), ("log", "model")),
    "synth": _Command(
        _cmd_synth, "simulate a ground-truth model, optionally corrupt it",
        ("model",), ("model",),
        ("seed", "cases", "drop", "noise", "noise_alphabet")),
    "pipeline": _Command(
        _cmd_pipeline, "ingest, mine rules, repair, mine DFG, filter, and "
                       "compare raw vs augmented",
        ("log", "kg", "model", "context", "alias"), ("log", "kg"),
        (*_REPAIR_FLAGS, "dependency_threshold", "frequency_threshold")),
}


def build_parser() -> _Parser:
    # no option is read from a prefix of its name: a removed flag, such
    # as --mode, would otherwise be taken as the option it begins (--model)
    parser = _Parser(prog="kcpm", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for dest in ("config", "out", *command.paths, *command.flags):
            option, kwargs = _FLAGS[dest]
            p.add_argument(option, dest=dest, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector off, and
    restore the collector's state on the way out. The events, triples
    and closure facts a run keeps alive form no reference cycles, so
    reference counting frees them all, and the collector's repeated
    scans over tens of thousands of them would only cost time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = _COMMANDS[args.command]
        cfg = _config_from_args(args)
        # a path set by its flag or by --config [paths]
        given = vars(args) | cfg.as_dict()
        missing = [name for name in (*command.required, "out")
                   if not given[name]]
        if missing:
            raise _UsageError("missing required option(s): "
                              + ", ".join("--" + m for m in missing))
        command.run(cfg, args)
        os.makedirs(cfg.out, exist_ok=True)
        write_manifest(os.path.join(cfg.out, "manifest.json"), args.command,
                       cfg.as_dict(),
                       {name: given[name] for name in command.paths
                        if given[name]},
                       cfg.seed)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (KcpmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
