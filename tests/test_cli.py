import json
from importlib import resources

import jsonschema
import pytest

from kcpm import rules
from kcpm.cli import main
from kcpm.logio import write_csv
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
               "--labels", labels_path, "--out", out1,
               "--dim", 8, "--epochs", 120) == 0
    assert (out1 / "variant_model.json").exists()
    out2 = workdir / "vc"
    assert run("variants-classify", "--log", log_path, "--kg", kg,
               "--model", out1 / "variant_model.json", "--out", out2) == 0
    payload = load_json(out2 / "variants.json")
    validate("variants", payload)
    assert len(payload["assignment"]) == 12
    assert (out2 / "variants.csv").read_text().startswith("case_id,class")


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
    validate("filter_report", load_json(out / "filter_report.json"))
    validate("dfg", load_json(out / "dfg.json"))
    validate("manifest", load_json(out / "manifest.json"))
    assert "raw" in payload and "augmented" in payload
    table = (out / "table.txt").read_text()
    assert "raw" in table and "augmented" in table


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
    assert err == ["error: row 3: event activity must be nonempty"]


def test_mixed_timezone_awareness_is_data_error(workdir, capsys):
    log = workdir / "mixed.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,A,2024-03-01T09:00:00\n"
                   "c1,B,2024-03-01T10:00:00+00:00\n")
    assert run("stats", "--log", log, "--out", workdir / "mixed_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: trace 'c1' mixes naive and offset-aware timestamps"]


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
    assert len(err) == 1 and err[0].startswith(message)


def test_short_csv_row_is_data_error(workdir, capsys):
    log = workdir / "short.csv"
    log.write_text("case_id,activity,timestamp\n"
                   "c1,A,2024-03-01T09:00:00\n"
                   "c1\n")
    assert run("stats", "--log", log, "--out", workdir / "short_out") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: row 3: 1 fields, header has 3"]


@pytest.mark.parametrize("key, message", [
    ("time_buckets", "error: time_buckets must be in 1..1440"),
    ("negatives", "error: negatives must be >= 1"),
])
def test_bad_hyperparameter_fails_before_any_artifact(workdir, capsys, key,
                                                      message):
    cfgfile = workdir / "hp.ini"
    cfgfile.write_text(f"[hyperparameters]\n{key} = 0\n")
    kg = workdir / "pipe_kg.tsv"
    kg.write_text("a\tmust_precede\tb\n")
    out = workdir / "hp_out"
    assert run("pipeline", "--config", cfgfile, "--log", workdir / "log.csv",
               "--kg", kg, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert not (out / "rules.jsonl").exists()


@pytest.mark.parametrize("command", ["pipeline", "augment"])
def test_log_without_traces_fails_before_any_artifact(workdir, capsys, command):
    log = workdir / "header_only.csv"
    log.write_text("case_id,activity,timestamp\n")
    out = workdir / "empty_out"
    assert run(command, "--log", log, "--kg", workdir / "kg.tsv",
               "--out", out) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("the log has no traces")
    assert list(out.iterdir()) == []


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
    assert list(out.iterdir()) == []


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
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("command", ["pipeline", "augment"])
def test_scorer_is_trained_only_where_it_can_be_consulted(ward_inputs, command):
    """Every must_precede confidence of the ward KB is 1.0: at the default
    theta_aug of 0.5, or at 1.0, no insertion can ask the scorer, so none
    is trained and the run equals one with --no-embedding; at 1.5 it is
    trained."""
    def artifacts(name, *flags):
        out = ward_inputs / command / name
        assert run(command, "--log", ward_inputs / "log.csv",
                   "--kg", ward_inputs / "kg.tsv", "--out", out,
                   "--seed", 17, *flags) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json"}

    default = artifacts("default")
    assert "scorer.json" not in default
    assert default == artifacts("no_embedding", "--no-embedding")
    assert "scorer.json" not in artifacts("theta_1.0", "--theta-aug", 1.0)
    assert "scorer.json" in artifacts("theta_1.5", "--theta-aug", 1.5)


_HEADER = "case_id,activity,timestamp\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("stats", "--context", "case_id,age\nc0,1,2\n",
     "error: row 2: 3 fields, header has 2"),
    ("stats", "--context", "case_id,age\nc0,1\n,2\n",
     "error: row 3: empty case_id"),
    ("variants-train", "--labels", "case_id,class\nc0,fast\nc001\n",
     "error: row 3: 1 fields, header has 2"),
    ("stats", "--log", _HEADER + "c1,A,2024-03-01T09:00:00,x\n",
     "error: row 2: 4 fields, header has 3"),
    ("pipeline", "--alias", "activity,entity\na,ent_a\nb,ent_b,x\n",
     "error: row 3: 3 fields, header has 2"),
    ("pipeline", "--alias", "a,ent_a\nb,ent_b\n",
     "error: columns missing from CSV header: ['activity', 'entity']"),
], ids=["context-extra-field", "context-empty-case", "labels-short-row",
        "log-extra-field", "alias-extra-field", "alias-no-header"])
def test_bad_tabular_input_is_one_line_data_error(workdir, capsys, command,
                                                  name, text, message):
    bad = workdir / "bad.csv"
    bad.write_text(text)
    inputs = {"--log": workdir / "log.csv"}
    if command != "stats":
        inputs["--kg"] = workdir / "kg.tsv"
    inputs[name] = bad
    out = workdir / "bad_out"
    args = [a for pair in inputs.items() for a in pair]
    assert run(command, *args, "--out", out) == 2
    assert capsys.readouterr().err.strip().splitlines() == [message]
    assert list(out.iterdir()) == []


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
