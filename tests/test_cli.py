import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import kcpm
from kcpm import cli, rules, temporal
from kcpm.cli import main
from kcpm.config import PipelineConfig
from kcpm.logio import write_csv
from kcpm.kg import KnowledgeGraph
from kcpm.synth import GroundTruthModel, write_model

from conftest import log_from_sequences

KG_TSV = (
    "al\tworksAt\tuow\n"
    "uow\tlocatedIn\twgg\n"
    "al\tlivesIn\twgg\n"
    "bo\tworksAt\tunr\n"
    "unr\tlocatedIn\trno\n"
)

XES = """<?xml version="1.0" encoding="UTF-8"?>
<log>
  <trace>
    <string key="concept:name" value="c1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2024-03-01T09:00:00Z"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2024-03-01T09:10:00Z"/>
    </event>
  </trace>
</log>
"""


def validate(schema_name: str, payload) -> None:
    ref = resources.files("kcpm") / "schemas" / f"{schema_name}.schema.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(payload, schema)


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "kg.tsv").write_text(KG_TSV)
    (tmp_path / "log.xes").write_text(XES)
    log = log_from_sequences([["a", "b", "c"], ["a", "c"], ["a", "b", "c"]])
    with open(tmp_path / "log.csv", "w", newline="") as fh:
        write_csv(log, fh)
    model = GroundTruthModel(
        frozenset({"a", "b", "c"}), {"a": 1.0},
        {"a": {"b": 0.7, "c": 0.3}, "b": {"c": 1.0}})
    with open(tmp_path / "model.json", "w") as fh:
        write_model(model, fh)
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_ingest_xes(workdir, capsys):
    out = workdir / "out"
    assert run("ingest", "--log", workdir / "log.xes", "--out", out) == 0
    validate("stats", load_json(out / "stats.json"))
    validate("manifest", load_json(out / "manifest.json"))
    assert (out / "log.csv").exists()


def test_stats_csv(workdir, capsys):
    out = workdir / "out"
    assert run("stats", "--log", workdir / "log.csv", "--out", out) == 0
    stats = load_json(out / "stats.json")
    validate("stats", stats)
    assert stats["n_traces"] == 3
    assert "n_events" in capsys.readouterr().out


@pytest.mark.parametrize("column", ["activity", "timestamp", "resource"])
def test_ingest_refuses_a_context_column_named_after_an_event_field(
        workdir, capsys, column):
    ctx = workdir / "ctx.csv"
    ctx.write_text(f"case_id,{column}\nc0,x\n")
    out = workdir / "out"
    assert run("ingest", "--log", workdir / "log.csv", "--context", ctx,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {ctx}: context column '{column}' has the name "
                   "of an event field\n")
    assert not out.exists()


def test_a_log_that_names_a_column_twice_exits_2(workdir, capsys):
    log = workdir / "twice.csv"
    log.write_text("case_id,activity,timestamp,activity\n"
                   "c0,a,2024-03-01T09:00:00Z,x\n")
    assert run("stats", "--log", log, "--out", workdir / "out") == 2
    assert capsys.readouterr().err == (
        f"error: {log}: column 'activity' is named more than once in the CSV "
        "header\n")


def test_json_artifacts_are_compact_and_stats_stdout_stays_indented(
        workdir, capsys):
    out = workdir / "out"
    assert run("stats", "--log", workdir / "log.csv", "--out", out) == 0
    stats = load_json(out / "stats.json")
    assert (out / "stats.json").read_text() == json.dumps(
        stats, sort_keys=True) + "\n"
    assert capsys.readouterr().out == json.dumps(stats, indent=2,
                                                 sort_keys=True) + "\n"
    assert (out / "manifest.json").read_text().startswith("{\n  ")


def test_mine_rules(workdir, capsys):
    out = workdir / "out"
    assert run("mine-rules", "--kg", workdir / "kg.tsv", "--out", out,
               "--min-support", 1, "--min-pca-conf", 0.5) == 0
    lines = (out / "rules.jsonl").read_text().splitlines()
    assert lines
    for line in lines:
        validate("rule", json.loads(line))
    assert "worksAt(x,z1) & locatedIn(z1,y) => livesIn(x,y)" in \
        (out / "rules.txt").read_text()


def test_mine_dfg_and_conform(workdir, capsys):
    out1 = workdir / "dfg"
    assert run("mine-dfg", "--log", workdir / "log.csv", "--out", out1,
               "--dependency-threshold", 0.3) == 0
    dfg = load_json(out1 / "dfg.json")
    validate("dfg", dfg)
    assert (out1 / "dfg.dot").read_text().startswith("digraph")

    out2 = workdir / "conf"
    assert run("conform", "--log", workdir / "log.csv",
               "--model", out1 / "dfg.json", "--out", out2) == 0
    report = load_json(out2 / "report.json")
    validate("conformance_report", report)
    assert report["fitness"] == 1.0
    assert "Fitness" in capsys.readouterr().out


def test_conform_against_ground_truth_model(workdir, capsys):
    out = workdir / "conf2"
    assert run("conform", "--log", workdir / "log.csv",
               "--model", workdir / "model.json", "--out", out) == 0
    validate("conformance_report", load_json(out / "report.json"))
    assert_dumps_layout(out / "report.json")


def test_filter_subcommand(workdir, capsys):
    rules_dir = workdir / "rules"
    assert run("mine-rules", "--kg", workdir / "kg.tsv", "--out", rules_dir) == 0
    dfg_dir = workdir / "dfg"
    assert run("mine-dfg", "--log", workdir / "log.csv", "--out", dfg_dir,
               "--dependency-threshold", 0.3) == 0
    out = workdir / "filtered"
    assert run("filter", "--dfg", dfg_dir / "dfg.json",
               "--rules", rules_dir / "rules.jsonl",
               "--kg", workdir / "kg.tsv", "--out", out) == 0
    validate("filter_report", load_json(out / "filter_report.json"))
    validate("dfg", load_json(out / "dfg.json"))


def test_augment_subcommand(workdir, capsys):
    kg = workdir / "aug_kg.tsv"
    kg.write_text("a\tmust_precede\tb\nn\tforbidden_before\tb\n")
    log = log_from_sequences([["b", "c"], ["a", "n", "b"]])
    log_path = workdir / "aug_log.csv"
    with open(log_path, "w", newline="") as fh:
        write_csv(log, fh)
    out = workdir / "aug_out"
    assert run("augment", "--log", log_path, "--kg", kg, "--out", out,
               "--theta-aug", 0.9, "--no-embedding") == 0
    report = load_json(out / "augment_report.json")
    validate("augment_report", report)
    assert len(report["inserted"]) == 1
    assert len(report["removed_events"]) == 1
    assert (out / "augmented.csv").exists()
    assert (out / "augmented.xes").exists()


def test_synth_subcommand(workdir, capsys):
    out = workdir / "synth"
    assert run("synth", "--model", workdir / "model.json", "--cases", 25,
               "--seed", 5, "--out", out, "--drop", 0.1, "--noise", 0.1,
               "--noise-alphabet", "zz") == 0
    assert (out / "log.csv").exists()
    assert (out / "corrupted.csv").exists()
    validate("manifest", load_json(out / "manifest.json"))


def test_variants_train_and_classify(workdir, capsys):
    log = log_from_sequences(
        [["intake", "fast_track", "done"]] * 6 +
        [["intake", "full_workup", "done"]] * 6)
    log_path = workdir / "var_log.csv"
    with open(log_path, "w", newline="") as fh:
        write_csv(log, fh)
    labels = "case_id,class\n" + "".join(
        f"c{i},fast\n" for i in range(6)) + "".join(
        f"c{i},full\n" for i in range(6, 12))
    labels_path = workdir / "labels.csv"
    labels_path.write_text(labels)
    kg = workdir / "empty_kg.tsv"
    kg.write_text("")
    out1 = workdir / "vt"
    assert run("variants-train", "--log", log_path, "--kg", kg,
               "--labels", labels_path, "--out", out1) == 0
    assert (out1 / "variant_model.json").exists()
    out2 = workdir / "vc"
    assert run("variants-classify", "--log", log_path, "--kg", kg,
               "--model", out1 / "variant_model.json", "--out", out2) == 0
    payload = load_json(out2 / "variants.json")
    validate("variants", payload)
    assert len(payload["assignment"]) == 12
    assert (out2 / "variants.csv").read_text().startswith("case_id,class")


@pytest.fixture(scope="module")
def variant_inputs(tmp_path_factory):
    """A labeled two-class log, an empty KG and the checkpoint trained on
    them (as parsed JSON)."""
    work = tmp_path_factory.mktemp("variants")
    log = log_from_sequences([["a", "b", "c"]] * 3 + [["a", "c"]] * 3)
    with open(work / "log.csv", "w", newline="") as fh:
        write_csv(log, fh)
    (work / "labels.csv").write_text("case_id,class\n" + "".join(
        f"c{i},{'long' if i < 3 else 'short'}\n" for i in range(6)))
    (work / "kg.tsv").write_text("")
    assert run("variants-train", "--log", work / "log.csv", "--kg",
               work / "kg.tsv", "--labels", work / "labels.csv",
               "--out", work / "vt") == 0
    return work, load_json(work / "vt" / "variant_model.json")


def _set(key, value):
    return lambda m: m.update({key: value})


def _as_embedding_format(m):
    """The header of the embedding checkpoint that the profile replaced."""
    m.update(format="kcpm-variant-model", version=2)


@pytest.mark.parametrize("mutate, message", [
    (_as_embedding_format,
     "not a variant profile checkpoint: 'kcpm-variant-model'"),
    (_set("version", 2), "unsupported checkpoint version 2"),
    (_set("class_counts", {}),
     "class_counts must map class ids to positive counts"),
    (lambda m: m["class_counts"].update(long=0), "class_counts must map"),
    (lambda m: m["profiles"].pop("short"), "profiles must map each class id"),
    (lambda m: m["profiles"]["short"].update({"activity::a": 4}),
     "profiles must map each class id"),
    (_set("loss_history", 0.5), "loss_history is malformed"),
], ids=["embedding-format", "version-2", "empty-class-counts",
        "zero-class-count", "missing-profile", "count-above-class-size",
        "loss-history-not-a-list"])
def test_hostile_variant_checkpoint_is_data_error(variant_inputs, tmp_path,
                                                  capsys, mutate, message):
    work, checkpoint = variant_inputs
    checkpoint = json.loads(json.dumps(checkpoint))
    mutate(checkpoint)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(checkpoint))
    capsys.readouterr()
    out = tmp_path / "vc"
    assert run("variants-classify", "--log", work / "log.csv", "--kg",
               work / "kg.tsv", "--model", model, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_a_missing_variant_model_leaves_no_out_directory(variant_inputs,
                                                        tmp_path, capsys):
    work, _ = variant_inputs
    model = tmp_path / "nonexistent.json"
    out = tmp_path / "vc"
    capsys.readouterr()
    assert run("variants-classify", "--log", work / "log.csv", "--kg",
               work / "kg.tsv", "--model", model, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(model) in err
    assert not out.exists()


def test_kg_triple_into_a_case_node_is_plain_knowledge(variant_inputs,
                                                       tmp_path):
    """A KG triple labelled BELONGS_TO into a case:: node that the log
    does not make is knowledge, not a case member: training on it and
    classifying under it both succeed, and the classification equals the
    one under the KG without the triple."""
    work, _ = variant_inputs
    kg = tmp_path / "kg.tsv"
    kg.write_text("foo\tBELONGS_TO\tcase::x\n")
    assert run("variants-train", "--log", work / "log.csv", "--kg", kg,
               "--labels", work / "labels.csv", "--out", tmp_path / "vt") == 0
    model = tmp_path / "vt" / "variant_model.json"
    for out, graph in (("with", kg), ("without", work / "kg.tsv")):
        assert run("variants-classify", "--log", work / "log.csv",
                   "--kg", graph, "--model", model,
                   "--out", tmp_path / out) == 0
    payload = (tmp_path / "with" / "variants.json").read_text()
    assert payload == (tmp_path / "without" / "variants.json").read_text()
    assert json.loads(payload)["prior_assigned"] == []


@pytest.mark.parametrize("flag", [["--epochs", "5"], ["--dim", "8"],
                                  ["--seed", "3"]])
def test_embedding_flags_of_variants_train_are_usage_errors(
        variant_inputs, tmp_path, capsys, flag):
    """The class profile has no epochs, dimension or seed: each of the
    embedding's flags exits 1 with the usage line, and writes no --out."""
    work, _ = variant_inputs
    out = tmp_path / "vt"
    capsys.readouterr()
    assert run("variants-train", "--log", work / "log.csv", "--kg",
               work / "kg.tsv", "--labels", work / "labels.csv", *flag,
               "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"usage error: unrecognized arguments: {' '.join(flag)}"
    assert not out.exists()


@pytest.mark.parametrize("triple, entity", [
    ("bar\tBELONGS_TO\tcase::c0", "case::c0"),
    ("case::c1\tp\tevent::c1::0", "case::c1"),
    ("x\tp\tactivity::c", "activity::c"),
    ("activity::a\tp\tx", "activity::a"),
])
def test_a_kg_entity_named_like_a_log_node_refuses_training(
        variant_inputs, tmp_path, capsys, triple, entity):
    """A KG entity that names a case or activity node of the log would
    silently become that node: variants-train exits 2 with one line
    naming it, and writes no --out."""
    work, _ = variant_inputs
    kg = tmp_path / "kg.tsv"
    kg.write_text(triple + "\n")
    out = tmp_path / "vt"
    capsys.readouterr()
    assert run("variants-train", "--log", work / "log.csv", "--kg", kg,
               "--labels", work / "labels.csv", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(entity) in err
    assert not out.exists()


def test_pipeline_end_to_end(workdir, capsys):
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\nb\tmust_precede\tc\n")
    out = workdir / "pipe"
    assert run("pipeline", "--log", workdir / "log.csv",
               "--kg", kg, "--model", workdir / "model.json",
               "--out", out, "--no-embedding") == 0
    for name in ("rules.jsonl", "augmented.csv", "augment_report.json",
                 "dfg.json", "dfg.dot", "filter_report.json", "report.json",
                 "table.txt", "manifest.json"):
        assert (out / name).exists(), name
    payload = load_json(out / "report.json")
    validate("pipeline_report", payload)
    validate("augment_report", load_json(out / "augment_report.json"))
    assert_dumps_layout(out / "report.json")
    assert_dumps_layout(out / "augment_report.json")
    validate("filter_report", load_json(out / "filter_report.json"))
    validate("dfg", load_json(out / "dfg.json"))
    validate("manifest", load_json(out / "manifest.json"))
    assert "raw" in payload and "augmented" in payload
    table = (out / "table.txt").read_text()
    assert "raw" in table and "augmented" in table
    # without a reference model, report.json holds the counts alone
    bare = workdir / "pipe-bare"
    assert run("pipeline", "--log", workdir / "log.csv", "--kg", kg,
               "--out", bare, "--no-embedding") == 0
    assert_dumps_layout(bare / "report.json")
    assert load_json(bare / "report.json") == {
        "augmentation": payload["augmentation"]}


def assert_dumps_layout(path):
    """The reports are written piece by piece, in json.dumps's layout."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


def test_pipeline_byte_identical_across_runs(workdir):
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\n")
    outs = []
    for name in ("r1", "r2"):
        out = workdir / name
        assert run("pipeline", "--log", workdir / "log.csv", "--kg", kg,
                   "--model", workdir / "model.json", "--out", out,
                   "--seed", 7) == 0
        outs.append(out)
    for name in ("rules.jsonl", "augmented.csv", "report.json", "table.txt",
                 "manifest.json", "dfg.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_unknown_flag_is_usage_error(workdir, capsys):
    assert run("conform", "--bogus") == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_file_is_data_error(workdir, capsys):
    out = workdir / "x"
    assert run("stats", "--log", workdir / "nope.csv", "--out", out) == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_key_rejected(workdir, capsys):
    cfgfile = workdir / "bad.ini"
    cfgfile.write_text("[thresholds]\nbogus_key = 3\n")
    out = workdir / "y"
    assert run("stats", "--log", workdir / "log.csv", "--out", out,
               "--config", cfgfile) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_config_file_supplies_values(workdir):
    cfgfile = workdir / "ok.ini"
    cfgfile.write_text(
        "[paths]\nlog = %s\n\n[thresholds]\ndependency_threshold = 0.3\n"
        % (workdir / "log.csv"))
    out = workdir / "cfg_out"
    assert run("mine-dfg", "--config", cfgfile, "--out", out) == 0
    dfg = load_json(out / "dfg.json")
    manifest = load_json(out / "manifest.json")
    assert manifest["config"]["dependency_threshold"] == 0.3
    assert dfg["edges"]


def test_threads_option_is_gone(workdir, monkeypatch, capsys):
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\n")
    assert run("pipeline", "--log", workdir / "log.csv", "--kg", kg,
               "--out", workdir / "flagrun", "--no-embedding",
               "--threads", 2) == 1
    assert "--threads" in capsys.readouterr().err
    monkeypatch.setenv("KCPM_THREADS", "3")
    assert run("pipeline", "--log", workdir / "log.csv", "--kg", kg,
               "--out", workdir / "envrun", "--no-embedding") == 0


def test_blank_activity_is_data_error(workdir, capsys):
    log = workdir / "blank.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,A,2024-03-01T09:00:00\n"
                   "c1, ,2024-03-01T10:00:00\n")
    assert run("stats", "--log", log, "--out", workdir / "blank_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {log}: row 3: event activity must be nonempty"]


def test_mixed_timezone_awareness_is_data_error(workdir, capsys):
    log = workdir / "mixed.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,A,2024-03-01T09:00:00\n"
                   "c1,B,2024-03-01T10:00:00+00:00\n")
    assert run("stats", "--log", log, "--out", workdir / "mixed_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [
        f"error: {log}: trace 'c1' mixes naive and offset-aware timestamps"]


def test_filter_with_alias_map(workdir):
    # mined edge (B, A) contradicts must_precede over aliased entities
    log = log_from_sequences([["B", "A"]] * 3)
    log_path = workdir / "alias_log.csv"
    with open(log_path, "w", newline="") as fh:
        write_csv(log, fh)
    dfg_dir = workdir / "alias_dfg"
    assert run("mine-dfg", "--log", log_path, "--out", dfg_dir,
               "--dependency-threshold", 0.3) == 0
    kg = workdir / "alias_kg.tsv"
    kg.write_text("ent_a\tmust_precede\tent_b\n")
    alias = workdir / "alias.csv"
    alias.write_text("activity,entity\nA,ent_a\nB,ent_b\n")
    rules_dir = workdir / "alias_rules"
    assert run("mine-rules", "--kg", kg, "--out", rules_dir) == 0
    out = workdir / "alias_filtered"
    assert run("filter", "--dfg", dfg_dir / "dfg.json",
               "--rules", rules_dir / "rules.jsonl", "--kg", kg,
               "--alias", alias, "--out", out) == 0
    report = load_json(out / "filter_report.json")
    assert [r["source"] for r in report["removed_edges"]] == ["B"]
    assert load_json(out / "dfg.json")["edges"] == []


def test_pipeline_builds_one_closure(workdir, monkeypatch):
    built = []
    init = rules.Closure.__init__

    def counting_init(self, rb, kg):
        built.append(kg)
        init(self, rb, kg)

    monkeypatch.setattr(rules.Closure, "__init__", counting_init)
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\nb\tmust_precede\tc\n")
    assert run("pipeline", "--log", workdir / "log.csv", "--kg", kg,
               "--model", workdir / "model.json", "--out", workdir / "one",
               "--no-embedding") == 0
    assert len(built) == 1


_RULE = {"body": [{"predicate": "worksAt", "subject": "x", "object": "z1"},
                  {"predicate": "locatedIn", "subject": "z1", "object": "y"}],
         "head": {"predicate": "livesIn", "subject": "x", "object": "y"},
         "support": 1, "std_confidence": 0.5, "pca_confidence": 1.0}


@pytest.mark.parametrize("line, message", [
    ("{not json", "error: rules line 1: not JSON: "),
    (json.dumps({k: v for k, v in _RULE.items() if k != "support"}),
     "error: rules line 1: missing key 'support'"),
    (json.dumps(dict(_RULE, support=-1)),
     "error: rules line 1: support must be nonnegative"),
    (json.dumps(dict(_RULE, pca_confidence=1.5)),
     "error: rules line 1: pca_confidence must be in [0, 1]"),
    (json.dumps(dict(_RULE, std_confidence=-0.1)),
     "error: rules line 1: std_confidence must be in [0, 1]"),
    (json.dumps(dict(_RULE, body=[])),
     "error: rules line 1: body must have at least one atom"),
    ("[1, 2]", "error: rules line 1: a rule must be a JSON object"),
])
def test_bad_rules_file_is_data_error(workdir, capsys, line, message):
    dfg_dir = workdir / "dfg"
    assert run("mine-dfg", "--log", workdir / "log.csv", "--out", dfg_dir) == 0
    bad = workdir / "bad_rules.jsonl"
    bad.write_text(line + "\n")
    capsys.readouterr()
    assert run("filter", "--dfg", dfg_dir / "dfg.json", "--rules", bad,
               "--kg", workdir / "kg.tsv", "--out", workdir / "f") == 2
    err = capsys.readouterr().err.strip().splitlines()
    named = message.replace("error: ", f"error: {bad}: ", 1)
    assert len(err) == 1 and err[0].startswith(named)


def test_short_csv_row_is_data_error(workdir, capsys):
    log = workdir / "short.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,A,2024-03-01T09:00:00\n"
                   "c1\n")
    assert run("stats", "--log", log, "--out", workdir / "short_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {log}: row 3: 1 fields, header has 3"]


@pytest.mark.parametrize("key", ["dim", "epochs", "margin", "learning_rate",
                                 "negatives", "time_buckets"])
def test_bad_hyperparameter_fails_before_any_artifact(workdir, capsys, key):
    """The embedding's hyperparameters are gone: a config file that still
    sets one exits 2 with one line naming the key, before any artifact."""
    cfgfile = workdir / "hp.ini"
    cfgfile.write_text(f"[hyperparameters]\n{key} = 1\n")
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\n")
    out = workdir / "hp_out"
    assert run("pipeline", "--config", cfgfile, "--log", workdir / "log.csv",
               "--kg", kg, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: unknown key {key!r} in [hyperparameters]"]
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[paths]\nlog = a%20b.csv\n",
     "error: [Errno 2] No such file or directory: 'a%20b.csv'"),
    ("log = x.csv\n", "error: {cfg}: File contains no section headers."),
    ("[paths]\nlog = x.csv\nlog = y.csv\n",
     "error: {cfg}: While reading from {cfg!r} [line  3]: option 'log' in "
     "section 'paths' already exists"),
    (b"[paths]\nlog = \xff.csv\n",
     "error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 14: "
     "invalid start byte"),
    ("[paths]\nlog = x.csv\n[paths]\nkg = y.tsv\n",
     "error: {cfg}: While reading from {cfg!r} [line  3]: section 'paths' "
     "already exists"),
    ("[paths]\njusttext\n",
     "error: {cfg}: Source contains parsing errors: {cfg!r}"),
], ids=["percent-in-path", "no-section-header", "duplicate-key",
        "not-utf-8", "duplicate-section", "line-without-value"])
def test_malformed_config_file_fails_before_any_artifact(workdir, capsys,
                                                         text, message):
    """A config file configparser cannot read, or whose % would be an
    interpolation, exits 2 with one stderr line and no --out. The % is
    read literally, so that file names a log that is not there."""
    cfgfile = workdir / "bad.ini"
    if isinstance(text, bytes):
        cfgfile.write_bytes(text)
    else:
        cfgfile.write_text(text)
    out = workdir / "cfg_out"
    capsys.readouterr()
    assert run("stats", "--config", cfgfile, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        message.format(cfg=str(cfgfile))]
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "augment"])
def test_log_without_traces_fails_before_any_artifact(workdir, capsys, command):
    log = workdir / "header_only.csv"
    log.write_text("case_id,activity,timestamp\n")
    out = workdir / "empty_out"
    assert run(command, "--log", log, "--kg", workdir / "kg.tsv",
               "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("the log has no traces")
    assert not out.exists()


_UNKNOWN_EDGE = {"activities": ["a"], "edges": [
    {"source": "a", "target": "z", "df_count": 1, "dependency": 0.5}]}


@pytest.mark.parametrize("command", ["conform", "filter", "pipeline"])
@pytest.mark.parametrize("text, message", [
    ("{not json", "not JSON: "),
    (json.dumps({"foo": 1}), "missing key 'edges'"),
    # a --model file with "transitions" is read as a ground-truth model;
    # a --dfg file is always a dependency graph
    (json.dumps({"transitions": 5}), "missing key 'activities'"),
    (json.dumps(_UNKNOWN_EDGE), "edge ('a', 'z') uses unknown activity"),
], ids=["not-json", "no-edges", "transitions-without-activities",
        "unknown-activity"])
def test_bad_graph_file_fails_before_any_artifact(workdir, capsys, command,
                                                  text, message):
    if command == "filter" and "transitions" in text:
        message = "missing key 'edges'"
    bad = workdir / "bad_graph.json"
    bad.write_text(text)
    rules_file = workdir / "one_rule.jsonl"
    rules_file.write_text(json.dumps(_RULE) + "\n")
    out = workdir / "bad_graph_out"
    inputs = {
        "conform": ["--log", workdir / "log.csv", "--model", bad],
        "filter": ["--dfg", bad, "--rules", rules_file,
                   "--kg", workdir / "kg.tsv"],
        "pipeline": ["--log", workdir / "log.csv", "--kg", workdir / "kg.tsv",
                     "--model", bad],
    }[command]
    assert run(command, *inputs, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("{not json", "not JSON: "),
    (json.dumps({"foo": 1}), "missing key 'activities'"),
    (json.dumps({"activities": ["a"], "start_probs": {"a": 0.5},
                 "transitions": {}}), "start probabilities must sum to 1"),
], ids=["not-json", "no-activities", "bad-start-probabilities"])
def test_bad_synth_model_is_data_error(workdir, capsys, text, message):
    bad = workdir / "bad_model.json"
    bad.write_text(text)
    out = workdir / "bad_synth_out"
    assert run("synth", "--model", bad, "--cases", 2, "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--cases", 0], "--cases must be >= 1"),
    (["--cases", 5, "--drop", 1.5], "drop_rate must be in [0, 1]"),
    (["--cases", 5, "--noise", 0.3],
     "noise_rate > 0 requires a noise alphabet"),
], ids=["no-cases", "drop-above-one", "noise-without-alphabet"])
def test_bad_synth_arguments_fail_before_any_artifact(workdir, capsys, flags,
                                                      message):
    out = workdir / "bad_args_out"
    assert run("synth", "--model", workdir / "model.json", *flags,
               "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.fixture(scope="module")
def ward_inputs(tmp_path_factory):
    from test_acceptance import NOISE_LABELS, precedence_kb_lines, ward_model

    from kcpm.synth import CorruptionSpec, corrupt, simulate

    work = tmp_path_factory.mktemp("ward")
    (work / "kg.tsv").write_text("\n".join(precedence_kb_lines()) + "\n")
    corrupted = corrupt(simulate(ward_model(), 150, seed=3),
                        CorruptionSpec(0.10, 0.20, frozenset(NOISE_LABELS), seed=4))
    with open(work / "log.csv", "w", newline="") as fh:
        write_csv(corrupted, fh)
    return work


@pytest.fixture
def trained(monkeypatch):
    """The calls to the fallback's trainer, which still trains."""
    calls = []
    train = temporal.train_temporal_scorer

    def counting(*args):
        calls.append(None)
        return train(*args)

    monkeypatch.setattr(temporal, "train_temporal_scorer", counting)
    return calls


@pytest.mark.parametrize("command", ["pipeline", "augment"])
def test_scorer_is_trained_only_where_it_can_be_consulted(ward_inputs,
                                                          command, trained):
    """Every must_precede confidence of the ward KB is 1.0: at the default
    theta_aug of 0.5, or at 1.0, the rule alone accepts every candidate,
    so the fallback is not counted and the run equals one with
    --no-embedding. At 1.5 the rule is unsure, but no share, which is
    at most 1, can reach 1.5, so it is not counted either."""
    def artifacts(name, *flags):
        out = ward_inputs / command / name
        assert run(command, "--log", ward_inputs / "log.csv",
                   "--kg", ward_inputs / "kg.tsv", "--out", out,
                   "--seed", 17, *flags) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json"}

    assert artifacts("default") == artifacts("no_embedding", "--no-embedding")
    for theta in (1.0, 1.5):
        got = artifacts(f"theta_{theta}", "--theta-aug", theta)
        assert got == artifacts(f"theta_{theta}_no_embedding",
                                "--theta-aug", theta, "--no-embedding")
    assert b'"inserted": []' in got["augment_report.json"]
    assert trained == []


def test_scorer_is_trained_only_below_the_degree_ceiling(workdir, trained):
    """A must_precede fact at confidence 0.2 leaves the rule unsure at
    every theta_aug above it. In 30 of 31 traces x is followed by a, so
    the fallback inserts the missing a at 0.4 and at 0.6, which the
    embedding's ceiling of 0.5 ruled out; at 1.0 it is counted and
    rejects, and the run equals one with --no-embedding; above 1 it is
    not counted."""
    (workdir / "hint_kg.tsv").write_text("a\thint\tb\n")
    rule = {"body": [{"predicate": "hint", "subject": "x", "object": "y"}],
            "head": {"predicate": "must_precede", "subject": "x",
                     "object": "y"},
            "support": 1, "std_confidence": 0.2, "pca_confidence": 0.2}
    (workdir / "hint_rules.jsonl").write_text(json.dumps(rule) + "\n")
    log = log_from_sequences([["x", "b"]] + [["x", "a", "b"]] * 30)
    with open(workdir / "hint_log.csv", "w", newline="") as fh:
        write_csv(log, fh)

    def artifacts(name, *flags):
        out = workdir / name
        assert run("augment", "--log", workdir / "hint_log.csv",
                   "--kg", workdir / "hint_kg.tsv",
                   "--rules", workdir / "hint_rules.jsonl", "--out", out,
                   "--seed", 3, *flags) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json"}

    for theta in (0.4, 0.6):
        report = json.loads(artifacts(f"theta_{theta}", "--theta-aug",
                                      theta)["augment_report.json"])
        assert [(i["activity"], i["provenance"], i["score"])
                for i in report["inserted"]] == [("a", "embedding", 30 / 31)]
    assert len(trained) == 2
    for theta in (1.0, 1.5):
        assert artifacts(f"theta_{theta}", "--theta-aug", theta) == artifacts(
            f"theta_{theta}_no_embedding", "--theta-aug", theta,
            "--no-embedding")
    assert len(trained) == 3


@pytest.mark.parametrize("theta", [1.0000001, 1.5, 2.0])
def test_cli_scorer_factory_trains_nothing_above_the_ceiling(workdir,
                                                            monkeypatch,
                                                            theta):
    trained = []
    monkeypatch.setattr(temporal, "train_temporal_scorer",
                        lambda *a: trained.append(a))
    log = log_from_sequences([["a", "b"], ["b", "a"]])
    kg = KnowledgeGraph()
    assert cli._train_scorer_or_none(PipelineConfig(theta_aug=theta),
                                     log, kg) is None
    assert trained == []
    cli._train_scorer_or_none(PipelineConfig(theta_aug=1.0), log, kg)
    assert len(trained) == 1


@pytest.mark.parametrize("theta", [0, 0.5000001, 0.6, 1.0])
def test_cli_scorer_factory_trains_up_to_the_ceiling(monkeypatch, theta):
    """A share can reach 1, so the fallback is counted at every theta_aug
    from 0 to 1, above the embedding's old ceiling of 0.5 too."""
    trained = []
    monkeypatch.setattr(temporal, "train_temporal_scorer",
                        lambda *a: trained.append(a) or "share")
    log = log_from_sequences([["a", "b"], ["b", "a"]])
    kg = KnowledgeGraph()
    assert cli._train_scorer_or_none(PipelineConfig(theta_aug=theta),
                                     log, kg) == "share"
    assert trained == [(log, kg)]


def test_manifest_records_every_config_field_but_out(workdir):
    """manifest.json's config holds each PipelineConfig field but the
    output directory, sorted: 15 of 16, and none of the embedding's six
    removed hyperparameters."""
    out = workdir / "manifest_fields"
    assert run("stats", "--log", workdir / "log.csv", "--out", out) == 0
    config = load_json(out / "manifest.json")["config"]
    assert list(config) == sorted(set(PipelineConfig.FIELDS) - {"out"})
    assert len(config) == 15
    assert not {"dim", "epochs", "margin", "learning_rate", "negatives",
                "time_buckets"} & config.keys()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_unusable_theta_aug_fails_before_any_artifact(ward_inputs, tmp_path,
                                                      capsys, via, value):
    """A theta_aug that is not finite and >= 0 exits 2 with one line and
    writes nothing: NaN would accept no candidate and reach the manifest
    and the report as a bare NaN, which is not JSON."""
    if via == "flag":
        given = [f"--theta-aug={value}"]  # "-inf" would read as a flag
    else:
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(f"[thresholds]\ntheta_aug = {value}\n")
        given = ["--config", cfgfile]
    out = tmp_path / "aug"
    capsys.readouterr()
    assert run("augment", "--log", ward_inputs / "log.csv",
               "--kg", ward_inputs / "kg.tsv", *given, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: theta_aug must be finite and >= 0"]
    assert not out.exists()


def test_strict_ordering_flag_is_a_usage_error(ward_inputs, tmp_path, capsys):
    """Removal has one rule, so --strict-ordering is an unknown flag: exit
    1 with the usage line, and no --out."""
    out = tmp_path / "aug"
    capsys.readouterr()
    assert run("augment", "--log", ward_inputs / "log.csv",
               "--kg", ward_inputs / "kg.tsv", "--strict-ordering",
               "--no-embedding", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "usage error: unrecognized arguments: --strict-ordering"
    assert err[1].startswith("usage: kcpm ")
    assert not out.exists()


def test_strict_ordering_config_key_is_refused(ward_inputs, tmp_path, capsys):
    """A config file that still names strict_ordering, even as false,
    exits 2 with one line naming the key, and leaves no --out."""
    cfgfile = tmp_path / "old.ini"
    cfgfile.write_text("[modes]\nstrict_ordering = false\n")
    out = tmp_path / "aug"
    capsys.readouterr()
    assert run("augment", "--log", ward_inputs / "log.csv",
               "--kg", ward_inputs / "kg.tsv", "--config", cfgfile,
               "--no-embedding", "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown key 'strict_ordering' in [modes]"]
    assert not out.exists()


def test_every_subcommand_runs_without_numpy(workdir, variant_inputs):
    """With numpy's import refused by a meta-path finder, the CLI imports
    and every subcommand runs, among them an augment whose directly-
    follows fallback decides an insertion."""
    vwork, _ = variant_inputs
    (workdir / "hint_kg.tsv").write_text("a\thint\tb\n")
    rule = {"body": [{"predicate": "hint", "subject": "x", "object": "y"}],
            "head": {"predicate": "must_precede", "subject": "x",
                     "object": "y"},
            "support": 1, "std_confidence": 0.2, "pca_confidence": 0.2}
    (workdir / "rules.jsonl").write_text(json.dumps(rule) + "\n")
    with open(workdir / "hint_log.csv", "w", newline="") as fh:
        write_csv(log_from_sequences([["x", "b"]] + [["x", "a", "b"]] * 3),
                  fh)
    out = workdir / "nonumpy"
    w, v = str(workdir), str(vwork)
    runs = [
        ["ingest", "--log", f"{w}/log.xes"],
        ["stats", "--log", f"{w}/log.csv"],
        ["mine-rules", "--kg", f"{w}/kg.tsv"],
        ["mine-dfg", "--log", f"{w}/log.csv"],
        ["filter", "--dfg", f"{out}/mine-dfg/dfg.json",
         "--rules", f"{w}/rules.jsonl", "--kg", f"{w}/kg.tsv"],
        ["augment", "--log", f"{w}/hint_log.csv", "--kg", f"{w}/hint_kg.tsv",
         "--rules", f"{w}/rules.jsonl", "--theta-aug", "0.6"],
        ["variants-train", "--log", f"{v}/log.csv", "--kg", f"{v}/kg.tsv",
         "--labels", f"{v}/labels.csv"],
        ["variants-classify", "--log", f"{v}/log.csv", "--kg", f"{v}/kg.tsv",
         "--model", f"{out}/variants-train/variant_model.json"],
        ["conform", "--log", f"{w}/log.csv", "--model", f"{w}/model.json"],
        ["synth", "--model", f"{w}/model.json", "--cases", "5"],
        ["pipeline", "--log", f"{w}/log.csv", "--kg", f"{w}/kg.tsv",
         "--model", f"{w}/model.json"],
    ]
    assert sorted(r[0] for r in runs) == sorted(cli._COMMANDS)
    script = (
        "import json, sys\n"
        "class NoNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            raise ImportError('numpy is blocked')\n"
        "sys.meta_path.insert(0, NoNumpy())\n"
        "from kcpm.cli import main\n"
        "out, runs = sys.argv[1], json.loads(sys.argv[2])\n"
        "for argv in runs:\n"
        "    assert main([*argv, '--out', f'{out}/{argv[0]}']) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n")
    src = str(Path(kcpm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, str(out),
                           json.dumps(runs)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = load_json(out / "augment" / "augment_report.json")
    assert [i["provenance"] for i in report["inserted"]] == ["embedding"]


def test_cli_imports_only_what_a_subcommand_runs(variant_inputs, tmp_path):
    """In a fresh interpreter, importing the CLI loads neither the repair,
    rule, dependency-graph, conformance, simulation and fallback modules
    nor the INI and XML parsers; a variants-train and a
    variants-classify run load neither repair, rules, dependency graphs
    and conformance nor simulation, nor the directly-follows fallback.
    A pipeline run then loads rules, dependency graphs and
    conformance. No step loads dataclasses or inspect: every record is
    a NamedTuple or a plain class. The manifest still names the
    interpreter's version."""
    import platform

    work, _ = variant_inputs
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from kcpm.cli import main\n"
        "stages = ('kcpm.rules', 'kcpm.dfg', 'kcpm.conformance')\n"
        "records = ('dataclasses', 'inspect')\n"
        "lazy = ('kcpm.augment', 'kcpm.synth', 'kcpm.temporal',\n"
        "        'kcpm.variants', 'configparser',\n"
        "        'xml.etree.ElementTree', *stages, *records)\n"
        "loaded = [m for m in lazy if m in set(sys.modules) - before]\n"
        "assert not loaded, ('import kcpm.cli', loaded)\n"
        "log, kg, labels, out = sys.argv[1:]\n"
        "unused = ('kcpm.augment', 'kcpm.synth', 'kcpm.temporal', *stages,\n"
        "          *records)\n"
        "assert main(['variants-train', '--log', log, '--kg', kg,\n"
        "             '--labels', labels, '--out', out + '/vt']) == 0\n"
        "assert main(['variants-classify', '--log', log, '--kg', kg,\n"
        "             '--model', out + '/vt/variant_model.json',\n"
        "             '--out', out + '/vc']) == 0\n"
        "loaded = [m for m in unused if m in set(sys.modules) - before]\n"
        "assert not loaded, ('variants-train, variants-classify', loaded)\n"
        "assert main(['pipeline', '--log', log, '--kg', kg,\n"
        "             '--out', out + '/pipeline']) == 0\n"
        "missing = [m for m in stages if m not in sys.modules]\n"
        "assert not missing, ('pipeline', missing)\n"
        "loaded = [m for m in records if m in set(sys.modules) - before]\n"
        "assert not loaded, ('pipeline', loaded)\n")
    src = str(Path(kcpm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(work / "log.csv"),
         str(work / "kg.tsv"), str(work / "labels.csv"), str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for run_dir in ("vt", "vc"):
        manifest = load_json(tmp_path / run_dir / "manifest.json")
        assert manifest["versions"]["python"] == platform.python_version()


# The names bench/tracing.py wraps on kcpm.cli: a subcommand must call each
# through the module attribute, or its layer goes untraced.
_TRACED_CLI_NAMES = ("load_triples", "mine_rules", "build_lpg",
                     "footprint_of_log", "footprint_of_model", "conformance",
                     "write_manifest")


@pytest.mark.parametrize("command, calls", [
    ("pipeline", {"load_triples": 1, "mine_rules": 1, "footprint_of_log": 2,
                  "footprint_of_model": 1, "conformance": 2,
                  "write_manifest": 1}),
    ("variants-train", {"load_triples": 1, "build_lpg": 1,
                        "write_manifest": 1}),
    ("variants-classify", {"load_triples": 1, "build_lpg": 1,
                           "write_manifest": 1}),
])
def test_subcommands_call_traced_names_through_the_cli_module(
        workdir, variant_inputs, monkeypatch, command, calls):
    """Each name that bench/tracing.py wraps on kcpm.cli, replaced there by
    a counting wrapper, is called as often as the subcommand runs its
    layer: a pipeline with a reference model takes two log footprints."""
    counted = dict.fromkeys(_TRACED_CLI_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _TRACED_CLI_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    work, _ = variant_inputs
    argv = {
        "pipeline": ["--log", workdir / "log.csv", "--kg", workdir / "kg.tsv",
                     "--model", workdir / "model.json"],
        "variants-train": ["--log", work / "log.csv", "--kg", work / "kg.tsv",
                           "--labels", work / "labels.csv"],
        "variants-classify": ["--log", work / "log.csv", "--kg",
                              work / "kg.tsv", "--model",
                              work / "vt" / "variant_model.json"],
    }[command]
    assert run(command, *argv, "--out", workdir / "out") == 0
    assert counted == dict(dict.fromkeys(_TRACED_CLI_NAMES, 0), **calls)


_HEADER = "case_id,activity,timestamp\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("stats", "--context", "case_id,age\nc0,1,2\n",
     "row 2: 3 fields, header has 2"),
    ("stats", "--context", "case_id,age\nc0,1\n,2\n",
     "row 3: empty case_id"),
    ("stats", "--context", "case_id,age\nc0,1\nc0,2\n",
     "row 3: case 'c0' is listed twice"),
    ("variants-train", "--labels", "case_id,class\nc0,fast\nc001\n",
     "row 3: 1 fields, header has 2"),
    ("variants-train", "--labels", "case_id,class\nc0,fast\nc0,slow\n",
     "row 3: case 'c0' is labeled twice"),
    ("variants-train", "--labels", "case_id,class\nc0,fast\n,slow\n",
     "row 3: empty case_id"),
    ("variants-train", "--labels", "case_id,class\nc0,fast\nc1,\n",
     "row 3: empty class"),
    ("stats", "--log", _HEADER + "c1,A,2024-03-01T09:00:00,x\n",
     "row 2: 4 fields, header has 3"),
    ("pipeline", "--alias", "activity,entity\na,ent_a\nb,ent_b,x\n",
     "row 3: 3 fields, header has 2"),
    ("pipeline", "--alias", "a,ent_a\nb,ent_b\n",
     "columns missing from CSV header: ['activity', 'entity']"),
    ("pipeline", "--alias", "activity,entity\na,ent_a\na,ent_b\n",
     "row 3: activity 'a' is mapped twice"),
    ("pipeline", "--alias", "activity,entity\na,ent_a\n,ent_b\n",
     "row 3: empty activity"),
    ("pipeline", "--alias", "activity,entity\na,ent_a\nb,\n",
     "row 3: empty entity"),
    ("mine-rules", "--kg", "a\tb\n",
     "line 1: expected 3 or 4 tab-separated columns, got 2"),
], ids=["context-extra-field", "context-empty-case", "context-case-twice",
        "labels-short-row", "labels-case-twice", "labels-empty-case",
        "labels-empty-class", "log-extra-field", "alias-extra-field",
        "alias-no-header", "alias-activity-twice", "alias-empty-activity",
        "alias-empty-entity", "kg-short-line"])
def test_bad_tabular_input_is_one_line_data_error(workdir, capsys, command,
                                                  name, text, message):
    bad = workdir / "bad.csv"
    bad.write_text(text)
    inputs = {"--log": workdir / "log.csv"}
    if command != "stats":
        inputs["--kg"] = workdir / "kg.tsv"
    if command == "mine-rules":
        del inputs["--log"]
    inputs[name] = bad
    out = workdir / "bad_out"
    args = [a for pair in inputs.items() for a in pair]
    assert run(command, *args, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {bad}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, name", [
    ("stats", "--log", "bin.csv"), ("stats", "--context", "bin.csv"),
    ("variants-train", "--labels", "bin.csv"),
    ("pipeline", "--alias", "bin.csv"), ("mine-rules", "--kg", "bin.tsv"),
    ("augment", "--rules", "bin.jsonl"), ("filter", "--rules", "bin.jsonl"),
])
def test_non_utf8_input_is_one_line_data_error(workdir, capsys, command, flag,
                                               name):
    bad = workdir / name
    bad.write_bytes(b"\xff\xfec\x00a\x00s\x00e\x00\n\x00")
    inputs = {"--log": workdir / "log.csv", "--kg": workdir / "kg.tsv"}
    if command == "stats":
        del inputs["--kg"]
    if command in ("mine-rules", "filter"):
        del inputs["--log"]
    if command == "filter":
        graph = workdir / "graph.json"
        graph.write_text(json.dumps({"activities": ["a"], "edges": []}))
        inputs["--dfg"] = graph
    inputs[flag] = bad
    args = [a for pair in inputs.items() for a in pair]
    out = workdir / "bin_out"
    assert run(command, *args, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {bad}: not UTF-8 text (invalid start byte)"]
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("conform", "--model"),
                                           ("stats", "--log")])
def test_directory_as_input_file_is_data_error(workdir, capsys, command, flag):
    a_dir = workdir / "a_dir"
    a_dir.mkdir()
    inputs = {"--log": workdir / "log.csv"}
    if command == "conform":
        inputs["--model"] = workdir / "model.json"
    inputs[flag] = a_dir
    args = [a for pair in inputs.items() for a in pair]
    assert run(command, *args, "--out", workdir / "dir_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(a_dir) in err[0]


@pytest.mark.parametrize("transitions", [
    {"a": {"b": 1.0}, "b": {"a": 0.5, "c": 0.5}},
    {"a": {"a": 0.5, "b": 0.5}, "b": {"c": 1.0}},
], ids=["two-cycle", "self-loop"])
def test_cyclic_simulated_model_is_a_reference(workdir, capsys, transitions):
    model = workdir / "cyclic.json"
    with open(model, "w") as fh:
        write_model(GroundTruthModel(frozenset("abc"), {"a": 1.0},
                                     transitions), fh)
    sim = workdir / "sim"
    assert run("synth", "--model", model, "--cases", 20, "--seed", 1,
               "--out", sim) == 0
    out = workdir / "cyclic_conf"
    assert run("conform", "--log", sim / "log.csv", "--model", model,
               "--out", out) == 0
    assert load_json(out / "report.json")["fitness"] == 1.0


def test_ingest_reads_xes_through_the_skip_option(workdir):
    xes = workdir / "malformed.xes"
    xes.write_text(XES.replace('<string key="concept:name" value="A"/>', ""))
    assert run("ingest", "--log", xes, "--out", workdir / "fail") == 2
    out = workdir / "skip"
    assert run("ingest", "--log", xes, "--out", out,
               "--xes-on-malformed", "skip") == 0
    assert load_json(out / "stats.json")["n_events"] == 1


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# every input path option of each subcommand, each given a file of its own
# basename
_PATH_OPTIONS = {
    "ingest": {"--log": "log.csv", "--context": "ctx.csv"},
    "stats": {"--log": "log.csv", "--context": "ctx.csv"},
    "mine-rules": {"--kg": "kg.tsv"},
    "mine-dfg": {"--log": "log.csv", "--context": "ctx.csv"},
    "filter": {"--dfg": "graph.json", "--rules": "rules.jsonl",
               "--kg": "kg.tsv", "--alias": "alias.csv"},
    "augment": {"--log": "log.csv", "--context": "ctx.csv", "--kg": "kg.tsv",
                "--alias": "alias.csv", "--rules": "rules.jsonl"},
    "variants-train": {"--log": "log.csv", "--context": "ctx.csv",
                       "--kg": "kg.tsv", "--alias": "alias.csv",
                       "--labels": "labels.csv"},
    "variants-classify": {"--log": "log.csv", "--context": "ctx.csv",
                          "--kg": "kg.tsv", "--alias": "alias.csv",
                          "--model": "vt/variant_model.json"},
    "conform": {"--log": "log.csv", "--context": "ctx.csv",
                "--model": "model.json"},
    "synth": {"--model": "model.json"},
    "pipeline": {"--log": "log.csv", "--context": "ctx.csv", "--kg": "kg.tsv",
                 "--alias": "alias.csv", "--model": "model.json"},
}
_OTHER_OPTIONS = {"synth": ["--cases", 2]}


def test_path_options_cover_every_subcommand():
    assert sorted(_PATH_OPTIONS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(_PATH_OPTIONS))
def test_manifest_digests_every_input_given(workdir, command):
    (workdir / "ctx.csv").write_text("case_id,age\nc0,30\nc1,41\nc2,52\n")
    (workdir / "alias.csv").write_text("activity,entity\na,ent_a\nb,ent_b\n")
    (workdir / "labels.csv").write_text(
        "case_id,class\nc0,long\nc1,short\nc2,long\n")
    (workdir / "rules.jsonl").write_text(json.dumps(_RULE) + "\n")
    (workdir / "graph.json").write_text(
        json.dumps({"activities": ["a", "b", "c"], "edges": []}))
    if command == "variants-classify":
        assert run("variants-train", "--log", workdir / "log.csv",
                   "--kg", workdir / "kg.tsv", "--labels", workdir / "labels.csv",
                   "--out", workdir / "vt") == 0
    files = {flag: workdir / name for flag, name in _PATH_OPTIONS[command].items()}
    out = workdir / "digested"
    assert run(command, *(a for pair in files.items() for a in pair),
               *_OTHER_OPTIONS.get(command, ()), "--out", out) == 0
    manifest = load_json(out / "manifest.json")
    validate("manifest", manifest)
    assert manifest["version"] == 2
    assert manifest["inputs"] == {flag[2:]: sha256_of(path)
                                  for flag, path in files.items()}


def test_manifest_keeps_inputs_of_one_basename_apart(workdir):
    for name, text in (("a", (workdir / "log.csv").read_text()),
                       ("b", "case_id,age\nc0,30\nc1,41\nc2,52\n")):
        (workdir / name).mkdir()
        (workdir / name / "data.csv").write_text(text)
    out = workdir / "same_basename"
    assert run("stats", "--log", workdir / "a" / "data.csv",
               "--context", workdir / "b" / "data.csv", "--out", out) == 0
    assert load_json(out / "manifest.json")["inputs"] == {
        "log": sha256_of(workdir / "a" / "data.csv"),
        "context": sha256_of(workdir / "b" / "data.csv")}


def test_required_path_may_come_from_the_config(workdir, capsys):
    out = workdir / "no_model"
    assert run("conform", "--log", workdir / "log.csv", "--out", out) == 1
    assert "missing required option(s): --model" in capsys.readouterr().err
    assert not out.exists()
    cfgfile = workdir / "paths.ini"
    cfgfile.write_text(f"[paths]\nmodel = {workdir / 'model.json'}\n")
    out = workdir / "model_from_config"
    assert run("conform", "--config", cfgfile, "--log", workdir / "log.csv",
               "--out", out) == 0
    assert load_json(out / "manifest.json")["inputs"] == {
        "log": sha256_of(workdir / "log.csv"),
        "model": sha256_of(workdir / "model.json")}


@pytest.mark.parametrize("command", sorted(_PATH_OPTIONS))
def test_every_subcommand_formats_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--out" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector_state(workdir, monkeypatch, enabled):
    """main runs the subcommand with the cyclic collector off and leaves
    it as it found it, on success and on an exit-2 error."""
    during = []
    stats = cli._COMMANDS["stats"]

    def spy(cfg, args):
        during.append(gc.isenabled())
        stats.run(cfg, args)

    monkeypatch.setitem(cli._COMMANDS, "stats", stats._replace(run=spy))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run("stats", "--log", workdir / "log.csv",
                   "--out", workdir / "out") == 0
        assert gc.isenabled() is enabled
        assert run("stats", "--log", workdir / "absent.csv",
                   "--out", workdir / "out") == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert during == [False, False]


def test_pipeline_leaves_no_cycles_per_event(tmp_path):
    """A pipeline run with the collector off relies on reference counting
    to free what it made. The cyclic garbage one run leaves must not grow
    with the log: 400 cases leave about as much as 40."""
    from test_acceptance import NOISE_LABELS, precedence_kb_lines, ward_model

    from kcpm.synth import CorruptionSpec, corrupt, simulate

    (tmp_path / "kg.tsv").write_text("\n".join(precedence_kb_lines()) + "\n")
    with open(tmp_path / "model.json", "w") as fh:
        write_model(ward_model(), fh)
    for cases in (40, 400):
        log = corrupt(simulate(ward_model(), cases, seed=3),
                      CorruptionSpec(0.10, 0.20, frozenset(NOISE_LABELS), seed=4))
        with open(tmp_path / f"log{cases}.csv", "w", newline="") as fh:
            write_csv(log, fh)
    del log

    was = gc.isenabled()
    found = {}
    try:
        gc.disable()
        # the first run pays for lazy imports; only later runs are compared
        for name, cases in (("warm-up", 40), ("small", 40), ("large", 400)):
            gc.collect()
            assert run("pipeline", "--log", tmp_path / f"log{cases}.csv",
                       "--kg", tmp_path / "kg.tsv",
                       "--model", tmp_path / "model.json",
                       "--out", tmp_path / name, "--seed", 17) == 0
            found[name] = gc.collect()
    finally:
        if was:
            gc.enable()
    # 360 more cases hold thousands more events; one cycle per event,
    # trace or closure fact would add at least that many objects
    assert abs(found["large"] - found["small"]) < 100, found


_INTAKE_CHECKS = ("consent", "id_check", "allergy_check", "weight")


def small_pathway():
    """A 24-stage pathway with a branch after every 4th stage, and the
    lines of its KG: precedence (adjacent pairs and a seeded 85% of
    transitive pairs, so the closure derives facts below confidence 1),
    the chaos taxonomy, and four intake checks that must precede every
    stage but not one another."""
    from test_acceptance import NOISE_LABELS

    from kcpm.kg import FORBIDDEN_BEFORE, MUST_PRECEDE

    stages = [f"s{i:02d}" for i in range(24)]
    transitions, activities = {}, set(stages)
    for i, (a, b) in enumerate(zip(stages, stages[1:])):
        if (i + 1) % 4:
            transitions[a] = {b: 1.0}
            continue
        x, y = f"{a}x", f"{a}y"
        activities |= {x, y}
        transitions[a] = {x: 0.5, y: 0.5}
        transitions[x] = transitions[y] = {b: 1.0}
    model = GroundTruthModel(frozenset(activities), {stages[0]: 1.0},
                             transitions)
    rng = random.Random(0)
    lines = [f"{a}\t{MUST_PRECEDE}\t{b}"
             for i, a in enumerate(stages) for j, b in enumerate(stages)
             if j == i + 1 or (j > i + 1 and rng.random() < 0.85)]
    lines += [f"{c}\t{MUST_PRECEDE}\t{s}" for c in _INTAKE_CHECKS
              for s in stages]
    covered = sorted(activities) + NOISE_LABELS
    lines += [f"{n}\tcategory\tchaos" for n in NOISE_LABELS]
    lines += [f"chaos\tcovers\t{c}" for c in covered]
    lines += [f"glitch_x\t{FORBIDDEN_BEFORE}\t{c}" for c in covered]
    return model, lines


def _small_pathway(tmp_path):
    """small_pathway's model and KG, and a corrupted 30-case log of it."""
    from test_acceptance import NOISE_LABELS

    from kcpm.synth import CorruptionSpec, corrupt, simulate

    model, lines = small_pathway()
    (tmp_path / "kg.tsv").write_text("\n".join(lines) + "\n")
    with open(tmp_path / "model.json", "w") as fh:
        write_model(model, fh)
    log = corrupt(simulate(model, 30, seed=5),
                  CorruptionSpec(0.10, 0.20, frozenset(NOISE_LABELS), seed=6))
    with open(tmp_path / "log.csv", "w", newline="") as fh:
        write_csv(log, fh)


def test_pipeline_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """The closure joins sets of entity names, whose iteration order
    follows the string hash seed; no artifact may."""
    _small_pathway(tmp_path)
    src = str(Path(kcpm.__file__).resolve().parent.parent)
    artifacts = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "kcpm.cli", "pipeline",
             "--log", str(tmp_path / "log.csv"), "--kg", str(tmp_path / "kg.tsv"),
             "--model", str(tmp_path / "model.json"), "--out", str(out),
             "--no-embedding"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert artifacts[0] == artifacts[1]
    report = json.loads(artifacts[0]["augment_report.json"])
    # derived precedence below confidence 1 drove insertions, and the
    # unordered intake checks were inserted together
    assert any(0.0 < c["score"] < 1.0 for c in report["inserted"])
    assert {c["activity"] for c in report["inserted"]} >= set(_INTAKE_CHECKS)
    assert report["removed_events"]
