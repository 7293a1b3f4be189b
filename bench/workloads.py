"""Seeded workload generators and the CLI calls each workload makes.

Every input is generated here from the workload seed with ``kcpm.synth``,
so nothing is downloaded and nothing is imported from ``tests/``.
``ward_model``, ``precedence_kb_lines`` and ``cohort_log`` reproduce the
acceptance-suite generators exactly; the pathway model and knowledge
graph are the benchmark's own.

A workload's ``setup`` writes the inputs of a seed, ``commands`` lists
the CLI calls of one run, and ``check`` gates a run's artifacts.
``truth`` holds only the compact facts the checks need, so the large
in-memory logs can be freed before anything is timed.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from checks import check_closure, check_pipeline, check_variants
from kcpm import synth
from kcpm.eventlog import ContextTable, Event, EventLog, Trace, annotate_context
from kcpm.kg import FORBIDDEN_BEFORE, MUST_PRECEDE
from kcpm.logio import write_csv

# ---------------------------------------------------------------------------
# Ward model and precedence KB (acceptance criteria 5 and 6)
# ---------------------------------------------------------------------------

ACTIVITIES = ["register", "triage", "screen", "labs_a", "labs_b", "assess",
              "treat", "ward_a", "ward_b", "review", "prep", "discharge"]
PRECEDENCE = [
    ("register", "triage"), ("triage", "screen"), ("screen", "assess"),
    ("assess", "treat"), ("treat", "review"), ("review", "prep"),
    ("prep", "discharge"), ("register", "assess"), ("screen", "treat"),
    ("register", "discharge"),
]
NOISE_LABELS = ["glitch_x", "glitch_y"]
DROP_RATE = 0.10
NOISE_RATE = 0.20


def ward_model() -> synth.GroundTruthModel:
    return synth.GroundTruthModel(
        frozenset(ACTIVITIES), {"register": 1.0},
        {
            "register": {"triage": 1.0},
            "triage": {"screen": 1.0},
            "screen": {"labs_a": 0.5, "labs_b": 0.5},
            "labs_a": {"assess": 1.0},
            "labs_b": {"assess": 1.0},
            "assess": {"treat": 1.0},
            "treat": {"ward_a": 0.5, "ward_b": 0.5},
            "ward_a": {"review": 1.0},
            "ward_b": {"review": 1.0},
            "review": {"prep": 1.0},
            "prep": {"discharge": 1.0},
        })


def chaos_taxonomy_lines(covered: list[str]) -> list[str]:
    """The noise labels' chaos category, which lets rule mining generalize
    forbidden-before facts from one noise label to the other."""
    lines = [f"{n}\tcategory\tchaos" for n in NOISE_LABELS]
    lines += [f"chaos\tcovers\t{c}" for c in covered]
    lines += [f"glitch_x\t{FORBIDDEN_BEFORE}\t{c}" for c in covered]
    return lines


def precedence_kb_lines() -> list[str]:
    """Ten hand-written precedence constraints plus the chaos taxonomy."""
    lines = [f"{a}\t{MUST_PRECEDE}\t{b}" for a, b in PRECEDENCE]
    return lines + chaos_taxonomy_lines(ACTIVITIES + NOISE_LABELS)


# ---------------------------------------------------------------------------
# Long-pathway model and knowledge graph
# ---------------------------------------------------------------------------

PATHWAY_STAGES = 200
PATHWAY_XOR_EVERY = 4
PATHWAY_TRANSITIVE_SHARE = 0.85
# The pathway KG is fixed domain knowledge, so it does not follow the
# workload seed: which transitive pairs it omits sets how many forward-
# chaining passes the closure needs, and a seeded KG made closure time
# vary by half between seeds. Only the log varies with the seed.
PATHWAY_KG_SEED = 0


def stage(i: int) -> str:
    return f"s{i:03d}"


def pathway_model() -> synth.GroundTruthModel:
    """200 mandatory stages; after every 4th stage one of two branch
    activities. Simulation truncates traces at synth.MAX_TRACE_LEN events,
    so a trace covers the first 160 stages and 40 branches."""
    transitions: dict[str, dict[str, float]] = {}
    activities = {stage(i) for i in range(PATHWAY_STAGES)}
    for i in range(PATHWAY_STAGES - 1):
        nxt = stage(i + 1)
        if (i + 1) % PATHWAY_XOR_EVERY:
            transitions[stage(i)] = {nxt: 1.0}
            continue
        a, b = f"x{i:03d}a", f"x{i:03d}b"
        activities |= {a, b}
        transitions[stage(i)] = {a: 0.5, b: 0.5}
        transitions[a] = {nxt: 1.0}
        transitions[b] = {nxt: 1.0}
    return synth.GroundTruthModel(frozenset(activities), {stage(0): 1.0},
                                  transitions)


def pathway_kb_lines(model: synth.GroundTruthModel, seed: int) -> list[str]:
    """must_precede for every adjacent stage pair and a seeded 85% of the
    transitive pairs, so mining must find must_precede o must_precede =>
    must_precede and the closure must derive the rest; the chaos taxonomy;
    and eight unrelated relation families over their own layered entities,
    which chain into no head predicate and so only add volume."""
    rng = random.Random(seed)
    lines = []
    for i in range(PATHWAY_STAGES):
        for j in range(i + 1, PATHWAY_STAGES):
            if j == i + 1 or rng.random() < PATHWAY_TRANSITIVE_SHARE:
                lines.append(f"{stage(i)}\t{MUST_PRECEDE}\t{stage(j)}")
    lines += chaos_taxonomy_lines(sorted(model.activities) + NOISE_LABELS)

    def family(pred, sources, n_targets, prefix):
        return [f"{s}\t{pred}\t{prefix}{rng.randrange(n_targets):04d}"
                for s in sources]

    acts = sorted(model.activities)
    staff = [f"staff{i:04d}" for i in range(2000)]
    lines += family("handled_by", acts, 20, "dept")
    lines += family("uses_equipment", acts, 50, "equip")
    lines += family("part_of", [f"dept{i:04d}" for i in range(20)], 5, "division")
    lines += family("located_in", [f"division{i:04d}" for i in range(5)], 3, "site")
    lines += family("supplied_by", [f"equip{i:04d}" for i in range(50)], 10, "vendor")
    lines += family("member_of", staff, 100, "team")
    lines += family("trained_in", staff, 40, "course")
    lines += family("belongs_to", [f"team{i:04d}" for i in range(100)], 20, "unit")
    return lines


# ---------------------------------------------------------------------------
# Cohort log (acceptance criterion 8)
# ---------------------------------------------------------------------------

T0 = datetime(2024, 3, 1, 9, 0, 0, tzinfo=timezone.utc)


def cohort_log(n_per_class=12, seed=0, prefix="c"):
    """Three cohorts whose context attribute determines an extra branch
    activity, mirroring care variants driven by patient profile. prefix
    names the cases, so two logs can have disjoint case ids."""
    rng = random.Random(seed)
    flows = {
        "effective": ["intake", "screen", "standard_course", "review", "done"],
        "preference": ["intake", "screen", "alt_course", "review", "done"],
        "supply": ["intake", "screen", "queue_wait", "review", "done"],
    }
    events, ctx_rows, labels = [], {}, {}
    i = 0
    for cls, flow in flows.items():
        for _ in range(n_per_class):
            case = f"{prefix}{i:03d}"
            i += 1
            base = T0 + timedelta(hours=i)
            seq = list(flow)
            if rng.random() < 0.3:  # shared optional activity, class-neutral
                seq.insert(2, "extra_labs")
            for j, act in enumerate(seq):
                events.append(Event(case, act, base + timedelta(minutes=j)))
            ctx_rows[case] = {"profile": cls}
            labels[case] = cls
    traces = {}
    for e in events:
        traces.setdefault(e.case_id, []).append(e)
    log = EventLog(tuple(Trace(c, tuple(evs)) for c, evs in traces.items()))
    log, _ = annotate_context(log, ContextTable(ctx_rows))
    return log, labels


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    files: dict[str, Path]
    n_events: int              # input events read by one run's CLI calls
    generated: dict = field(default_factory=dict)  # in memory, for truth()
    parts: list[Inputs] = field(default_factory=list)  # of a SequenceWorkload

    def release(self) -> None:
        """Drop the in-memory logs once truth() has what it needs."""
        self.generated = {}
        for part in self.parts:
            part.release()


def _write_log(path: Path, log: EventLog) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(log, fh)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")


@dataclass(frozen=True)
class PipelineWorkload:
    """Simulate a model, corrupt it, and run `kcpm pipeline` on the result."""
    name: str
    cases: int
    pathway: bool = False
    cli_flags: tuple[str, ...] = ()

    def setup(self, seed: int, work: Path) -> Inputs:
        work.mkdir(parents=True, exist_ok=True)
        model = pathway_model() if self.pathway else ward_model()
        kb = (pathway_kb_lines(model, PATHWAY_KG_SEED) if self.pathway
              else precedence_kb_lines())
        clean = synth.simulate(model, self.cases, seed)
        corrupted = synth.corrupt(clean, synth.CorruptionSpec(
            DROP_RATE, NOISE_RATE, frozenset(NOISE_LABELS), seed + 1))
        files = {"model": work / "gt.json", "kg": work / "kg.tsv",
                 "log": work / "corrupted.csv"}
        with open(files["model"], "w", encoding="utf-8") as fh:
            synth.write_model(model, fh)
        _write_lines(files["kg"], kb)
        _write_log(files["log"], corrupted)
        return Inputs(files, corrupted.n_events,
                      {"clean": clean, "corrupted": corrupted})

    def truth(self, inputs: Inputs) -> dict:
        """Per case, (activity, injected) of every corrupted-log event and
        the dropped activities, as tuples: the garbage collector stops
        tracking tuples of atoms, so holding these costs timed runs
        nothing."""
        clean, corrupted = inputs.generated["clean"], inputs.generated["corrupted"]
        dropped = synth.dropped_events(clean, corrupted)
        return {
            "events": {t.case_id: tuple((e.activity,
                                         bool(e.attributes.get("injected")))
                                        for e in t.events)
                       for t in corrupted.traces},
            "dropped": {case: tuple(sorted(c.items()))
                        for case, c in dropped.items()},
        }

    def check(self, out: Path, inputs: Inputs, truth: dict):
        quality, failures = check_pipeline(out, truth)
        if self.pathway:
            closure_quality, closure_failures = check_closure(out, inputs.files["kg"])
            quality.update(closure_quality)
            failures += closure_failures
        return quality, failures

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        f = inputs.files
        return [["pipeline", "--log", str(f["log"]), "--kg", str(f["kg"]),
                 "--model", str(f["model"]), "--out", str(out),
                 "--seed", "17", *self.cli_flags]]


TRAIN_PER_CLASS = 100
CLASSIFY_PER_CLASS = 1000
TRAIN_LABEL_SHARE = 0.7


@dataclass(frozen=True)
class VariantsWorkload:
    """Train the variant classifier on a labeled cohort log, then classify
    a separately generated cohort log with disjoint case ids."""
    name: str

    def setup(self, seed: int, work: Path) -> Inputs:
        work.mkdir(parents=True, exist_ok=True)
        train_log, train_labels = cohort_log(TRAIN_PER_CLASS, seed)
        held_log, held_labels = cohort_log(CLASSIFY_PER_CLASS, seed + 1, "h")
        cases = sorted(train_labels)
        keep = set(random.Random(seed + 2).sample(
            cases, k=round(len(cases) * TRAIN_LABEL_SHARE)))
        files = {"train_log": work / "train.csv", "labels": work / "labels.csv",
                 "classify_log": work / "cohort.csv", "kg": work / "kg.tsv"}
        _write_log(files["train_log"], train_log)
        _write_log(files["classify_log"], held_log)
        _write_lines(files["kg"], [])
        with open(files["labels"], "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["case_id", "class"])
            for c in cases:
                if c in keep:
                    w.writerow([c, train_labels[c]])
        return Inputs(files, train_log.n_events + held_log.n_events,
                      {"labels": held_labels})

    def truth(self, inputs: Inputs) -> dict:
        return {"labels": inputs.generated["labels"]}

    def check(self, out: Path, inputs: Inputs, truth: dict):
        return check_variants(out, truth)

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        f = inputs.files
        return [
            ["variants-train", "--log", str(f["train_log"]), "--kg", str(f["kg"]),
             "--labels", str(f["labels"]), "--out", str(out / "train")],
            ["variants-classify", "--log", str(f["classify_log"]),
             "--kg", str(f["kg"]),
             "--model", str(out / "train" / "variant_model.json"),
             "--out", str(out / "classify")],
        ]


@dataclass(frozen=True)
class SequenceWorkload:
    """Several workloads run one after the other as one run; each part
    keeps its own inputs, artifacts (under a directory named after it)
    and checks."""
    name: str
    parts: tuple

    def setup(self, seed: int, work: Path) -> Inputs:
        parts = [p.setup(seed, work / p.name) for p in self.parts]
        return Inputs({}, sum(i.n_events for i in parts), parts=parts)

    def truth(self, inputs: Inputs) -> dict:
        return {p.name: p.truth(i) for p, i in zip(self.parts, inputs.parts)}

    def check(self, out: Path, inputs: Inputs, truth: dict):
        quality, failures = {}, []
        for p, i in zip(self.parts, inputs.parts):
            q, f = p.check(out / p.name, i, truth[p.name])
            quality.update(q)
            failures += [f"{p.name}: {x}" for x in f]
        return quality, failures

    def commands(self, inputs: Inputs, out: Path) -> list[list[str]]:
        return [argv for p, i in zip(self.parts, inputs.parts)
                for argv in p.commands(i, out / p.name)]


WARD_3K = PipelineWorkload("ward-3k", 3000)
VARIANTS = VariantsWorkload("variants")

# BENCHMARK.json lists the workloads the benchmark is judged on, and why
# each was chosen: ward-3k-variants and pathway-kg. The ward-3k,
# ward-30k-noemb and variants workloads can be run by name for a closer
# look at one layer.
WORKLOADS = {w.name: w for w in (
    SequenceWorkload("ward-3k-variants", (WARD_3K, VARIANTS)),
    PipelineWorkload("pathway-kg", 200, pathway=True,
                     cli_flags=("--no-embedding",)),
    WARD_3K,
    PipelineWorkload("ward-30k-noemb", 30000, cli_flags=("--no-embedding",)),
    VARIANTS,
)}
