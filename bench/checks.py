"""Correctness gates on a run's artifacts.

Each check returns the quality figures it computed and a list of the
gates that failed (empty when the run is correct). The thresholds are
those of acceptance criteria 5, 6 and 8; a failing gate is a defect in
the program, not a reason to change the workload.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

from kcpm.kg import load_triples
from kcpm.rules import Closure, read_rules_jsonl

MIN_F_SCORE_GAIN = 0.05
MIN_REMOVAL_PRECISION = 0.9
MIN_INSERTION_MATCH = 0.9
MIN_HELDOUT_ACCURACY = 0.9
_EPS = 1e-12


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pipeline(out: Path, truth: dict) -> tuple[dict, list[str]]:
    """F-score gain, and removal precision and insertion match computed
    from the `injected` attribute and the dropped events as criterion 6
    does."""
    report = _load(out / "report.json")
    gain = report["augmented"]["f_score"] - report["raw"]["f_score"]

    aug = _load(out / "augment_report.json")
    events = truth["events"]
    removed = aug["removed_events"]
    injected = 0
    for r in removed:
        trace = events.get(r["case_id"], ())
        # the activity must match too, so a shifted index cannot pass
        if r["index"] < len(trace) and trace[r["index"]] == (r["activity"], True):
            injected += 1
    precision = injected / len(removed) if removed else 0.0

    inserted = Counter((i["case_id"], i["activity"]) for i in aug["inserted"])
    dropped = {case: dict(items) for case, items in truth["dropped"].items()}
    matched = sum(min(n, dropped.get(case, {}).get(act, 0))
                  for (case, act), n in inserted.items())
    total = sum(inserted.values())
    match = matched / total if total else 0.0

    quality = {"f_score_gain": gain, "removal_precision": precision,
               "insertion_match": match}
    failures = [name for name, ok in (
        (f"f_score_gain {gain:.4f} < {MIN_F_SCORE_GAIN}", gain >= MIN_F_SCORE_GAIN),
        (f"removal_precision {precision:.4f} < {MIN_REMOVAL_PRECISION}",
         precision >= MIN_REMOVAL_PRECISION),
        (f"insertion_match {match:.4f} < {MIN_INSERTION_MATCH}",
         match >= MIN_INSERTION_MATCH),
    ) if not ok]
    return quality, failures


def closure_fixpoint_gap(rules_path: Path, kg_path: Path) -> int:
    """Facts that one more pass of every rule over the closure would add
    or improve; 0 when the closure is a true fixpoint."""
    with open(rules_path, encoding="utf-8") as fh:
        rb = read_rules_jsonl(fh)
    closure = Closure(rb, load_triples(str(kg_path)))
    by_pred: dict[str, dict[tuple[str, str], float]] = {}
    for t, c in closure.confidence.items():
        by_pred.setdefault(t.predicate, {})[(t.subject, t.object)] = c
    gap = 0
    for rule in rb:
        preds = rule.body_predicates
        frontier = dict(by_pred.get(preds[0], {}))
        for pred in preds[1:]:
            succ: dict[str, list[tuple[str, float]]] = {}
            for (s, o), c in by_pred.get(pred, {}).items():
                succ.setdefault(s, []).append((o, c))
            nxt: dict[tuple[str, str], float] = {}
            for (x, mid), c in frontier.items():
                for o, c2 in succ.get(mid, ()):
                    if c * c2 > nxt.get((x, o), 0.0):
                        nxt[(x, o)] = c * c2
            frontier = nxt
        head = by_pred.get(rule.head.predicate, {})
        gap += sum(1 for pair, c in frontier.items()
                   if c * rule.pca_confidence > head.get(pair, 0.0) + _EPS)
    return gap


def check_closure(out: Path, kg_path: Path) -> tuple[dict, list[str]]:
    gap = closure_fixpoint_gap(out / "rules.jsonl", kg_path)
    failures = [] if gap == 0 else [
        f"closure is not a fixpoint: one more pass derives {gap} new or "
        f"better facts"]
    return {"closure_fixpoint_gap": gap}, failures


def check_variants(out: Path, truth: dict) -> tuple[dict, list[str]]:
    """Held-out accuracy on the classified cohort, and a partition that
    covers every case exactly once."""
    labels = truth["labels"]
    assignment = _load(out / "classify" / "variants.json")["assignment"]
    with open(out / "classify" / "variants.csv", newline="",
              encoding="utf-8") as fh:
        rows = Counter(row["case_id"] for row in csv.DictReader(fh))
    accuracy = sum(assignment.get(c) == cls for c, cls in labels.items()) / len(labels)
    failures = []
    if accuracy < MIN_HELDOUT_ACCURACY:
        failures.append(f"heldout_accuracy {accuracy:.4f} < {MIN_HELDOUT_ACCURACY}")
    if set(assignment) != set(labels) or set(rows) != set(labels) \
            or any(n != 1 for n in rows.values()):
        failures.append("partition does not cover every case exactly once")
    return {"heldout_accuracy": accuracy}, failures
