"""Command line interface.

Subcommands: ingest, stats, mine-rules, mine-dfg, filter, augment,
variants-train, variants-classify, conform, synth and pipeline. Every
run writes its artifacts plus a manifest.json into --out. Exit codes:
0 success, 1 usage error, 2 data/config error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import augment as aug
from . import dfg as dfgmod
from . import logio, synth
from .conformance import (comparison_table, conformance, footprint_of_log,
                          footprint_of_model)
from .conformance import report_to_json as conformance_report_json
from .config import PipelineConfig, load_config
from .errors import DataError, KcpmError, ParseError
from .eventlog import EventLog, annotate_context, log_statistics
from .kg import KnowledgeGraph, load_triples
from .lpg import build_lpg
from .manifest import write_manifest
from .rules import RuleBase, mine_rules, read_rules_jsonl, write_rules_jsonl, write_rules_text


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
    if path is None:
        return None
    with logio.csv_rows(path, ("activity", "entity")) as (columns, rows):
        activity, entity = columns["activity"], columns["entity"]
        return {row[activity]: row[entity] for _, row in rows}


def _write(out_dir: str, name: str, writer) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)
    return path


def _json_out(out_dir: str, name: str, payload) -> str:
    return _write(out_dir, name,
                  lambda fh: (json.dump(payload, fh, indent=2, sort_keys=True),
                              fh.write("\n")))


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _config_from_args(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    return _apply_overrides(cfg, args)


def _add_common(p: argparse.ArgumentParser, *names) -> None:
    opts = {
        "config": lambda: p.add_argument("--config", help="INI config file"),
        "out": lambda: p.add_argument("--out", required=True,
                                      help="output directory"),
        "log": lambda: p.add_argument("--log", help="event log (.xes or .csv)"),
        "kg": lambda: p.add_argument("--kg", help="knowledge graph (TSV/N-Triples)"),
        "context": lambda: p.add_argument("--context", help="context table CSV"),
        "alias": lambda: p.add_argument("--alias",
                                        help="activity-to-entity alias CSV"),
        "seed": lambda: p.add_argument("--seed", type=int),
    }
    for name in names:
        opts[name]()


def build_parser() -> _Parser:
    parser = _Parser(prog="kcpm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a log, write canonical CSV + stats")
    _add_common(p, "config", "out", "log", "context")
    p.add_argument("--xes-on-malformed", choices=("fail", "skip"), default="fail")

    p = sub.add_parser("stats", help="log statistics as JSON")
    _add_common(p, "config", "out", "log", "context")

    p = sub.add_parser("mine-rules", help="mine closed-path rules from a KG")
    _add_common(p, "config", "out", "kg")
    p.add_argument("--max-body-len", type=int, default=2, choices=(1, 2, 3))
    p.add_argument("--min-support", type=int, dest="min_support")
    p.add_argument("--min-pca-conf", type=float, dest="min_pca_conf")

    p = sub.add_parser("mine-dfg", help="mine the dependency graph of a log")
    _add_common(p, "config", "out", "log", "context")
    p.add_argument("--dependency-threshold", type=float,
                   dest="dependency_threshold")
    p.add_argument("--frequency-threshold", type=int,
                   dest="frequency_threshold")
    p.add_argument("--all-tasks-connected", action="store_const", const=True,
                   dest="all_tasks_connected")
    p.add_argument("--long-distance", action="store_true")

    p = sub.add_parser("filter", help="filter a dependency graph against rules")
    _add_common(p, "config", "out", "kg", "alias")
    p.add_argument("--dfg", required=True, help="dependency graph JSON")
    p.add_argument("--rules", required=True, help="rule base JSONL")
    p.add_argument("--mode", choices=("strict", "permissive"),
                   dest="filter_mode")

    p = sub.add_parser("augment", help="repair a log: drop chaotic events, insert missing ones")
    _add_common(p, "config", "out", "log", "context", "kg", "alias", "seed")
    p.add_argument("--rules", help="rule base JSONL (default: mine from the KG)")
    p.add_argument("--theta-aug", type=float, dest="theta_aug")
    p.add_argument("--strict-ordering", action="store_const", const=True,
                   dest="strict_ordering")
    p.add_argument("--no-embedding", action="store_const", const=False,
                   dest="use_embedding")
    p.add_argument("--min-support", type=int, dest="min_support")
    p.add_argument("--min-pca-conf", type=float, dest="min_pca_conf")

    p = sub.add_parser("variants-train", help="train the variant classifier")
    _add_common(p, "config", "out", "log", "context", "kg", "alias", "seed")
    p.add_argument("--labels", required=True, help="labels CSV (case_id,class)")
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("variants-classify", help="partition a log into variants")
    _add_common(p, "config", "out", "log", "context", "kg", "alias")
    p.add_argument("--model", required=True, help="variant model checkpoint")

    p = sub.add_parser("conform", help="footprint conformance of a log against a model")
    _add_common(p, "config", "out", "log", "context")
    p.add_argument("--model", required=True,
                   help="dependency graph or ground-truth model JSON")

    p = sub.add_parser("synth", help="simulate a ground-truth model, optionally corrupt it")
    _add_common(p, "config", "out", "seed")
    p.add_argument("--model", required=True, help="ground-truth model JSON")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--noise-alphabet", default="",
                   help="comma-separated noise activity labels")

    p = sub.add_parser("pipeline", help="ingest, mine rules, repair, mine DFG, "
                                        "filter, and compare raw vs augmented")
    _add_common(p, "config", "out", "log", "context", "kg", "alias", "seed")
    p.add_argument("--model", help="reference model JSON for conformance")
    p.add_argument("--theta-aug", type=float, dest="theta_aug")
    p.add_argument("--strict-ordering", action="store_const", const=True,
                   dest="strict_ordering")
    p.add_argument("--no-embedding", action="store_const", const=False,
                   dest="use_embedding")
    p.add_argument("--min-support", type=int, dest="min_support")
    p.add_argument("--min-pca-conf", type=float, dest="min_pca_conf")
    p.add_argument("--dependency-threshold", type=float,
                   dest="dependency_threshold")
    p.add_argument("--frequency-threshold", type=int,
                   dest="frequency_threshold")
    p.add_argument("--mode", choices=("strict", "permissive"),
                   dest="filter_mode")
    return parser


def _require(cfg: PipelineConfig, *keys) -> None:
    missing = [k for k in keys if not getattr(cfg, k)]
    if missing:
        raise _UsageError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


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


def _reference_graph(obj) -> dfgmod.DependencyGraph:
    """A dependency graph, or a ground-truth model as its dependency graph."""
    if "transitions" in obj:
        return synth.model_from_json(obj).to_dependency_graph()
    return dfgmod.dfg_from_json(obj)


def _load_rules(cfg: PipelineConfig, args, kg: KnowledgeGraph) -> RuleBase:
    rules_path = getattr(args, "rules", None)
    if rules_path:
        with open(rules_path, encoding="utf-8") as fh:
            return read_rules_jsonl(fh)
    return mine_rules(kg, max_body_len=2, min_support=cfg.min_support,
                      min_pca_conf=cfg.min_pca_conf)


def _train_scorer_or_none(cfg: PipelineConfig, log: EventLog,
                          kg: KnowledgeGraph):
    """The temporal scorer, or None where no degree it gives can reach
    theta_aug."""
    from . import temporal

    if cfg.theta_aug > temporal.TemporalScorer.MAX_DEGREE:
        return None
    params = temporal.ScorerParams(
        dim=cfg.dim, margin=cfg.margin, learning_rate=cfg.learning_rate,
        epochs=cfg.epochs, negatives=cfg.negatives,
        time_buckets=cfg.time_buckets, seed=cfg.seed)
    try:
        return temporal.train_temporal_scorer(log, kg, params)
    except DataError:
        return None  # single-activity or pairless logs proceed rule-only


def _read_repair_log(cfg: PipelineConfig) -> EventLog:
    """The log to repair; one without traces is rejected before any
    artifact is written."""
    log = read_log(cfg.log, cfg.context)
    if not log.traces:
        raise DataError(f"{cfg.log}: the log has no traces")
    return log


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_ingest(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "out")
    log = read_log(cfg.log, cfg.context, args.xes_on_malformed)
    _write(cfg.out, "log.csv", lambda fh: logio.write_csv(log, fh))
    _json_out(cfg.out, "stats.json", log_statistics(log))
    write_manifest(os.path.join(cfg.out, "manifest.json"), args.command,
                   cfg.as_dict(), [cfg.log, cfg.context or ""], cfg.seed)
    return 0


def _cmd_stats(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "out")
    log = read_log(cfg.log, cfg.context)
    stats = log_statistics(log)
    _json_out(cfg.out, "stats.json", stats)
    write_manifest(os.path.join(cfg.out, "manifest.json"), "stats",
                   cfg.as_dict(), [cfg.log, cfg.context or ""], cfg.seed)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_mine_rules(cfg: PipelineConfig, args) -> int:
    _require(cfg, "kg", "out")
    kg = load_triples(cfg.kg)
    rb = mine_rules(kg, max_body_len=args.max_body_len,
                    min_support=cfg.min_support,
                    min_pca_conf=cfg.min_pca_conf)
    _write(cfg.out, "rules.jsonl", lambda fh: write_rules_jsonl(rb, fh))
    _write(cfg.out, "rules.txt", lambda fh: write_rules_text(rb, fh))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "mine-rules",
                   cfg.as_dict(), [cfg.kg], cfg.seed)
    print(f"mined {len(rb)} rules")
    return 0


def _cmd_mine_dfg(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "out")
    log = read_log(cfg.log, cfg.context)
    th = dfgmod.MiningThresholds(cfg.dependency_threshold,
                                 cfg.frequency_threshold,
                                 cfg.all_tasks_connected,
                                 getattr(args, "long_distance", False))
    dg = dfgmod.mine_dependency_graph(log, th)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(dg))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(dg, fh))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "mine-dfg",
                   cfg.as_dict(), [cfg.log, cfg.context or ""], cfg.seed)
    print(f"{len(dg.edges)} edges over {len(dg.activities)} activities")
    return 0


def _cmd_filter(cfg: PipelineConfig, args) -> int:
    _require(cfg, "kg", "out")
    dg = _read_json(args.dfg, dfgmod.dfg_from_json)
    kg = load_triples(cfg.kg)
    with open(args.rules, encoding="utf-8") as fh:
        rb = read_rules_jsonl(fh)
    alias = read_alias(cfg.alias)
    filtered, report = dfgmod.filter_dependency_graph(
        dg, dfgmod.Closure(rb, kg), alias, cfg.filter_mode)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(filtered))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(filtered, fh))
    _json_out(cfg.out, "filter_report.json",
              dfgmod.filter_report_to_json(report))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "filter",
                   cfg.as_dict(), [args.dfg, args.rules, cfg.kg], cfg.seed)
    print(dfgmod.filter_report_table(report), end="")
    return 0


def _augment_log(cfg: PipelineConfig, args, log: EventLog,
                 kg: KnowledgeGraph, closure, alias):
    filtered, removal_report = aug.filter_chaotic_events(
        log, closure, alias, strict_ordering=cfg.strict_ordering)
    scorer = None  # trained only if an insertion asks for it

    def make_scorer():
        nonlocal scorer
        scorer = _train_scorer_or_none(cfg, filtered, kg)
        return scorer

    augmented, insert_report = aug.infer_missing_events(
        filtered, closure, make_scorer if cfg.use_embedding else None,
        cfg.theta_aug, alias)
    return augmented, aug.merge_reports(removal_report, insert_report), scorer


def _write_scorer(out_dir: str, scorer) -> None:
    if scorer is not None:
        from . import temporal

        _write(out_dir, "scorer.json",
               lambda fh: temporal.save_scorer(scorer, fh))


def _cmd_augment(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "kg", "out")
    log = _read_repair_log(cfg)
    kg = load_triples(cfg.kg)
    rb = _load_rules(cfg, args, kg)
    alias = read_alias(cfg.alias)
    augmented, report, scorer = _augment_log(cfg, args, log, kg,
                                             aug.Closure(rb, kg), alias)
    _write(cfg.out, "augmented.csv", lambda fh: logio.write_csv(augmented, fh))
    _write(cfg.out, "augmented.xes", lambda fh: logio.write_xes(augmented, fh))
    _json_out(cfg.out, "augment_report.json", aug.report_to_json(report))
    _write_scorer(cfg.out, scorer)
    write_manifest(os.path.join(cfg.out, "manifest.json"), "augment",
                   cfg.as_dict(),
                   [cfg.log, cfg.kg, cfg.context or "", cfg.alias or ""],
                   cfg.seed)
    print(f"removed {len(report.removed_events)} events, "
          f"inserted {len(report.inserted)}")
    return 0


def _cmd_variants_train(cfg: PipelineConfig, args) -> int:
    from . import variants

    _require(cfg, "log", "kg", "out")
    log = read_log(cfg.log, cfg.context)
    kg = load_triples(cfg.kg)
    labels = variants.read_labels_csv(args.labels)
    graph = build_lpg(log, kg, read_alias(cfg.alias))
    params = variants.VariantParams(
        dim=cfg.dim, margin=cfg.margin, learning_rate=cfg.learning_rate,
        epochs=cfg.epochs, negatives=cfg.negatives, seed=cfg.seed)
    model = variants.train_variant_model(graph, labels, params)
    _write(cfg.out, "variant_model.json",
           lambda fh: variants.save_model(model, fh))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "variants-train",
                   cfg.as_dict(),
                   [cfg.log, cfg.kg, args.labels, cfg.context or ""],
                   cfg.seed)
    print(f"trained on {len(labels)} labeled cases, "
          f"final loss {model.loss_history[-1]:.4f}")
    return 0


def _cmd_variants_classify(cfg: PipelineConfig, args) -> int:
    from . import variants

    _require(cfg, "log", "kg", "out")
    log = read_log(cfg.log, cfg.context)
    kg = load_triples(cfg.kg)
    model = variants.load_model(cfg.model)
    graph = build_lpg(log, kg, read_alias(cfg.alias))
    partition = variants.classify_log(model, graph, log)
    _json_out(cfg.out, "variants.json", variants.partition_to_json(partition))
    _write(cfg.out, "variants.csv",
           lambda fh: variants.partition_to_csv(partition, fh))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "variants-classify",
                   cfg.as_dict(),
                   [cfg.log, cfg.kg, cfg.model, cfg.context or ""], cfg.seed)
    sizes = {cid: len(partition.cases_of(cid)) for cid in model.class_ids()}
    print(json.dumps(sizes, sort_keys=True))
    return 0


def _cmd_conform(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "out")
    log = read_log(cfg.log, cfg.context)
    model = _read_json(cfg.model, _reference_graph)
    report = conformance(footprint_of_log(log), footprint_of_model(model))
    _json_out(cfg.out, "report.json", conformance_report_json(report))
    table = comparison_table([(os.path.basename(cfg.log), report)])
    _write(cfg.out, "table.txt", lambda fh: fh.write(table))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "conform",
                   cfg.as_dict(), [cfg.log, cfg.model], cfg.seed)
    print(table, end="")
    return 0


def _cmd_synth(cfg: PipelineConfig, args) -> int:
    _require(cfg, "out")
    model = _read_json(cfg.model, synth.model_from_json)
    log = synth.simulate(model, args.cases, cfg.seed)
    _write(cfg.out, "log.csv", lambda fh: logio.write_csv(log, fh))
    if args.drop > 0 or args.noise > 0:
        alphabet = frozenset(a for a in args.noise_alphabet.split(",") if a)
        spec = synth.CorruptionSpec(args.drop, args.noise, alphabet, cfg.seed)
        corrupted = synth.corrupt(log, spec)
        _write(cfg.out, "corrupted.csv",
               lambda fh: logio.write_csv(corrupted, fh))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "synth",
                   cfg.as_dict(), [cfg.model], cfg.seed)
    print(f"simulated {len(log)} cases, {log.n_events} events")
    return 0


def _cmd_pipeline(cfg: PipelineConfig, args) -> int:
    _require(cfg, "log", "kg", "out")
    log = _read_repair_log(cfg)
    kg = load_triples(cfg.kg)
    alias = read_alias(cfg.alias)
    reference = (_read_json(cfg.model, _reference_graph) if cfg.model
                 else None)

    rb = mine_rules(kg, max_body_len=2, min_support=cfg.min_support,
                    min_pca_conf=cfg.min_pca_conf)
    _write(cfg.out, "rules.jsonl", lambda fh: write_rules_jsonl(rb, fh))

    # one closure serves removal, insertion and edge filtering; building it
    # through the name kcpm.augment imports lets a wrapper there (such as
    # bench/tracing.py installs) time it
    closure = aug.Closure(rb, kg)
    augmented, report, scorer = _augment_log(cfg, args, log, kg, closure,
                                             alias)
    _write(cfg.out, "augmented.csv", lambda fh: logio.write_csv(augmented, fh))
    _json_out(cfg.out, "augment_report.json", aug.report_to_json(report))
    _write_scorer(cfg.out, scorer)

    th = dfgmod.MiningThresholds(cfg.dependency_threshold,
                                 cfg.frequency_threshold,
                                 cfg.all_tasks_connected)
    dg_aug = dfgmod.mine_dependency_graph(augmented, th)
    dg_filtered, filter_report = dfgmod.filter_dependency_graph(
        dg_aug, closure, alias, cfg.filter_mode)
    _json_out(cfg.out, "dfg.json", dfgmod.dfg_to_json(dg_filtered))
    _write(cfg.out, "dfg.dot", lambda fh: dfgmod.dfg_to_dot(dg_filtered, fh))
    _json_out(cfg.out, "filter_report.json",
              dfgmod.filter_report_to_json(filter_report))

    payload: dict = {"augmentation": {
        "removed": len(report.removed_events),
        "inserted": len(report.inserted),
    }}
    table = ""
    if reference is not None:
        model_fp = footprint_of_model(reference)
        raw_rep = conformance(footprint_of_log(log), model_fp)
        aug_rep = conformance(footprint_of_log(augmented), model_fp)
        table = comparison_table([("raw", raw_rep), ("augmented", aug_rep)])
        payload["raw"] = conformance_report_json(raw_rep)
        payload["augmented"] = conformance_report_json(aug_rep)
    _json_out(cfg.out, "report.json", payload)
    _write(cfg.out, "table.txt", lambda fh: fh.write(table))
    write_manifest(os.path.join(cfg.out, "manifest.json"), "pipeline",
                   cfg.as_dict(),
                   [cfg.log, cfg.kg, cfg.model or "", cfg.context or "",
                    cfg.alias or ""],
                   cfg.seed)
    if table:
        print(table, end="")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "mine-rules": _cmd_mine_rules,
    "mine-dfg": _cmd_mine_dfg,
    "filter": _cmd_filter,
    "augment": _cmd_augment,
    "variants-train": _cmd_variants_train,
    "variants-classify": _cmd_variants_classify,
    "conform": _cmd_conform,
    "synth": _cmd_synth,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (KcpmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
