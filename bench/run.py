"""Benchmark of the `kcpm` command line, end to end and per layer.

    python3 bench/run.py --workload pathway-kg --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
--seed, then the real CLI runs as a child process, one run at a time with
a single client (a closed loop): at least two runs, then as many more as
fit in --seconds. The inputs are generated again before every run
(repeatedly, up to 1.5 s, when that is cheap; at least five times in
all) to time the set-up. Every run's artifacts are checked. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics (wall time, events per second,
peak RSS of the child, set-up time). Wall and set-up times are scaled to
the host's reference speed by the probe times bench/launch.py measures
while they run; bench/README.md says why. --trace 1 instead runs the workload
once untraced as a child and once in-process with wrappers around every
layer, checks that both produce the same bytes, and reports per-layer
time, self time and counts. Full results, the spans and the run
environment go to .bench_work/results/.

The child environment drops KCPM_* variables (so --threads keeps its
default of 1), pins BLAS/OpenMP pools to one thread and PYTHONHASHSEED to
0. Without kcpm sources at src/kcpm the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from launch import probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_RUNS = 2
MIN_SETUPS = 5
SETUP_SLOT_S = 1.5
SETUP_SLOT_MAX = 5
STARTUP_REPEATS = 3
# launch.probe() in seconds on a 2-vCPU Xeon (2.1 GHz) host in a quiet
# phase. Timings are scaled by this over the mean probe time measured
# while they ran, to read as on that host when quiet (bench/README.md).
PROBE_REF_S = 0.008
SETUP_PROBES = 3         # probes before and after each set-up
TIME_LIMIT_S = 165.0     # the whole benchmark process must end within 180 s
STARTED = time.perf_counter()
QUALITY_UNITS = {"f_score_gain": "F-score", "removal_precision": "ratio",
                 "insertion_match": "ratio", "heldout_accuracy": "ratio",
                 "closure_fixpoint_gap": "count"}


def pin_environment() -> dict[str, str]:
    """Pin this process's environment (numpy is not imported yet) and
    return the one every CLI child gets."""
    for var in [v for v in os.environ if v.startswith("KCPM_")]:
        del os.environ[var]
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def time_left() -> float:
    return TIME_LIMIT_S - (time.perf_counter() - STARTED)


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Exit code, wall seconds, peak RSS in MB (from the child's own
    rusage) and probe times of one child process, measured by
    bench/launch.py; the child is killed when the time runs out."""
    result = log.with_name("launch.json")
    timeout = max(1.0, time_left())
    with open(log, "ab") as fh:
        subprocess.run([sys.executable, "-I", str(LAUNCHER), str(result),
                        str(timeout), *argv], cwd=ROOT, env=env, stdout=fh,
                       stderr=subprocess.STDOUT, check=True,
                       timeout=timeout + 10)
    got = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return got


def run_cli(calls: list[list[str]], env: dict, log: Path) -> dict:
    """One run of a workload: its CLI calls in order, as child processes.
    wall_s is their wall time as measured; scaled_wall_s is the same
    scaled to the reference speed by the probes taken while they ran."""
    wall, rss, probes, failures = 0.0, 0.0, [], []
    for argv in calls:
        got = run_child([sys.executable, "-m", "kcpm.cli", *argv], env, log)
        wall += got["wall_s"]
        rss = max(rss, got["peak_rss_mb"])
        probes += got["probes_s"]
        if got["exit_code"] != 0:
            failures.append(f"`kcpm {argv[0]}` exited with {got['exit_code']} "
                            f"(see {log})")
            break
    probe_s = statistics.fmean(probes)
    return {"wall_s": wall, "scaled_wall_s": wall * PROBE_REF_S / probe_s,
            "probe_s": probe_s, "peak_rss_mb": rss, "failures": failures}


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under directory, by relative path."""
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        out[str(path.relative_to(directory))] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return out


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def environment(kcpm_module) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "kcpm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0")
            src.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "kcpm": kcpm_module.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "child_pythonhashseed": 0, "platform": platform.platform()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload, seed: int, seconds: float, env: dict):
        self.workload, self.seed, self.seconds, self.env = (
            workload, seed, seconds, env)
        self.work = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        self.log = self.work / "cli.log"
        self.quality: dict = {}
        self.truth: dict = {}
        self.inputs = None

    def freeze_setup_state(self) -> None:
        """Keep only the compact truth; move what is left into the
        collector's permanent generation, so the timed runs do not pay to
        scan the benchmark's own objects."""
        self.truth = self.workload.truth(self.inputs)
        self.inputs.release()
        gc.collect()
        gc.freeze()

    def check(self, out: Path) -> list[str]:
        try:
            self.quality, failures = self.workload.check(out, self.inputs,
                                                         self.truth)
        except (OSError, KeyError, ValueError) as exc:
            return [f"artifacts unreadable: {exc!r}"]
        return failures

    # -- end-to-end ---------------------------------------------------------

    def set_up(self, setup_times: list[tuple[float, float]],
               input_digests: list) -> None:
        """Set up once; record (seconds, seconds scaled to the reference
        speed by the probes just before and after)."""
        probes = [probe() for _ in range(SETUP_PROBES)]
        t = time.perf_counter()
        inputs = self.workload.setup(self.seed, self.work / "inputs")
        seconds = time.perf_counter() - t
        probes += [probe() for _ in range(SETUP_PROBES)]
        setup_times.append(
            (seconds, seconds * PROBE_REF_S / statistics.fmean(probes)))
        input_digests.append(digests(self.work / "inputs"))
        if self.inputs is None:
            self.inputs = inputs
            self.freeze_setup_state()
        inputs.release()

    def end_to_end(self) -> tuple[dict, int, int, dict]:
        start = time.perf_counter()
        setup_times, input_digests = [], []
        runs, reference, iterations = [], None, []
        while True:
            # a run costs its set-up slot, its CLI calls and their pauses;
            # stop before one that would overrun --seconds, so a slow
            # machine does fewer runs
            iteration_start = time.perf_counter()
            estimate = max(iterations, default=0.0)
            if (len(runs) >= MIN_RUNS
                    and iteration_start - start + estimate > self.seconds):
                break
            if runs and estimate * 1.5 > time_left():
                break
            # set up again before every run, so the set-up median samples
            # the same stretch of time as the runs; a cheap set-up repeats
            # until SETUP_SLOT_S is spent
            slot_end = time.perf_counter() + SETUP_SLOT_S
            for _ in range(SETUP_SLOT_MAX):
                self.set_up(setup_times, input_digests)
                if time.perf_counter() >= slot_end:
                    break
            out = self.work / f"out{len(runs)}"
            run = run_cli(self.workload.commands(self.inputs, out),
                          self.env, self.log)
            if not run["failures"]:
                got = digests(out)
                if reference is None:
                    reference = got
                    run["failures"] = self.check(out)
                    gate_failures = run["failures"]
                elif got != reference:
                    run["failures"] = [f"artifacts differ from the first run "
                                       f"of this seed: {differing(reference, got)}"]
                else:
                    run["failures"] = list(gate_failures)
            shutil.rmtree(out, ignore_errors=True)
            runs.append(run)
            iterations.append(time.perf_counter() - iteration_start)
        while len(setup_times) < MIN_SETUPS:
            self.set_up(setup_times, input_digests)
        if any(d != input_digests[0] for d in input_digests):
            runs[0]["failures"].append("generated inputs differ between set-ups")

        walls = [r["scaled_wall_s"] for r in runs]
        q1, wall, q3 = quartiles(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "events_per_s": (self.inputs.n_events / wall, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
            "setup_s": (statistics.median(t for _, t in setup_times), "s"),
        }
        failed = sum(1 for r in runs if r["failures"])
        detail = {"wall_s_q1": q1, "wall_s_q3": q3, "runs": len(runs),
                  "wall_s_samples": walls,
                  "raw_wall_s_samples": [r["wall_s"] for r in runs],
                  "probe_s_samples": [r["probe_s"] for r in runs],
                  "setup_s_samples": [t for _, t in setup_times],
                  "raw_setup_s_samples": [t for t, _ in setup_times],
                  "input_events": self.inputs.n_events,
                  "error_rate": failed / len(runs),
                  "failures": [f for r in runs for f in r["failures"]]}
        return metrics, len(runs), failed, detail

    # -- traced -------------------------------------------------------------

    def traced(self) -> tuple[dict, int, int, dict]:
        import tracing
        from kcpm import cli

        rec, patches = tracing.Recorder(), tracing.Patches()
        rec.run = "setup"
        tracing.install_synth_wrappers(rec, patches)
        try:
            self.inputs = self.workload.setup(self.seed, self.work / "inputs")
        finally:
            patches.restore()
        self.freeze_setup_state()

        startup = statistics.median(
            run_child([sys.executable, "-c", "import kcpm.cli"], self.env,
                      self.log)["wall_s"]
            for _ in range(STARTUP_REPEATS))

        calls_a = self.workload.commands(self.inputs, self.work / "untraced")
        untraced = run_cli(calls_a, self.env, self.log)
        failures_a = untraced["failures"] or self.check(self.work / "untraced")

        out_b = self.work / "traced"
        failures_b = []
        tracing.install_cli_wrappers(rec, patches)
        start = time.perf_counter()
        try:
            for argv in self.workload.commands(self.inputs, out_b):
                rec.run = argv[0]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err, \
                        rec.span("cli.main"):
                    code = cli.main(argv)
                if code != 0:
                    failures_b.append(f"in-process `kcpm {argv[0]}` returned "
                                      f"{code}: {err.getvalue().strip()}")
                    break
        except Exception as exc:  # a crash is a failed run, not a crashed benchmark
            failures_b.append(f"in-process run raised {exc!r}")
        finally:
            traced_wall = time.perf_counter() - start
            patches.restore()
        if not failures_b and not untraced["failures"]:
            diff = differing(digests(self.work / "untraced"), digests(out_b))
            if diff:
                failures_b.append(f"traced artifacts differ from untraced: {diff}")

        metrics = tracing.layer_metrics(rec)
        metrics["cli.startup_s"] = (startup, "s")
        # the child pays interpreter start-up per call; the in-process run does not
        metrics["trace.overhead_s"] = (
            traced_wall - (untraced["wall_s"] - startup * len(calls_a)), "s")
        failed = bool(failures_a) + bool(failures_b)
        detail = {"untraced_wall_s": untraced["wall_s"],
                  "traced_wall_s": traced_wall,
                  "error_rate": failed / 2,
                  "failures": failures_a + failures_b,
                  "spans": rec.to_json()}
        return metrics, 2, failed, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kcpm" / "cli.py").is_file():
        print(f"error: no kcpm sources under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    import kcpm

    if Path(kcpm.__file__).resolve().parent != (SRC / "kcpm").resolve():
        print(f"error: imported kcpm from {kcpm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, env)
    if bench.work.exists():
        shutil.rmtree(bench.work)
    bench.work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, detail = bench.traced()
        else:
            metrics, attempted, failed, detail = bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(kcpm),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "quality": bench.quality, **detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

    env_info = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"git={env_info['git_sha']} src={env_info['src_sha256'][:12]} "
          f"python={env_info['python']} numpy={env_info['numpy']} "
          f"cpus={env_info['cpus']} blas_threads={BLAS_THREADS}")
    if not args.trace:
        raw = detail["raw_wall_s_samples"]
        print(f"# wall_s median {metrics['wall_s'][0]:.4f} s, quartiles "
              f"{detail['wall_s_q1']:.4f}..{detail['wall_s_q3']:.4f} s, "
              f"n={detail['runs']}, scaled to the reference speed; "
              f"as measured: median {statistics.median(raw):.4f} s, "
              f"mean probe {statistics.median(detail['probe_s_samples']) * 1e3:.3f} ms "
              f"(median over runs; reference {PROBE_REF_S * 1e3:g} ms)")
    for name, value in sorted(bench.quality.items()):
        print(f"# {name} {value:.6g} {QUALITY_UNITS[name]}")
    print(f"# error_rate {detail['error_rate']:.6g} ratio "
          f"({failed}/{attempted})")
    for failure in detail["failures"]:
        print(f"# FAILED: {failure}")
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
