"""Run one command and write its exit code, wall time, peak RSS and the
host's speed while it ran as JSON.

    python3 -I bench/launch.py RESULT.json TIMEOUT_S COMMAND...

The benchmark starts every CLI call through this small process. Linux
folds the peak RSS of the process that spawns a program into the
program's own peak (it is recorded when exec replaces the spawner's
memory), so a CLI started straight from the benchmark, which holds the
generated logs, would report the benchmark's peak instead of its own.
The command is killed with SIGKILL when TIMEOUT_S runs out.

On a shared host the speed of memory-bound code swings by up to 1.9x in
phases that last from a second to minutes, and the CLI slows with it.
So once before the command starts and then every PROBE_EVERY_S while it
runs, the command is stopped (SIGSTOP), `probe()` times a fixed
memory-bound task on the otherwise idle machine, and the command is
continued (SIGCONT). The paused time is left out of `wall_s`; the probe
times go to `probes_s`, from which the benchmark scales the wall time to
the host's reference speed.
"""
import json
import os
import select
import signal
import sys
import time

PROBE_EVERY_S = 0.5
_PROBE_KEYS = [(f"a{i % 211:03d}", f"b{i * 7919 % 197:03d}", i * 104729 % 1000003)
               for i in range(40_000)]


def probe() -> float:
    """Seconds to count 40,000 tuple keys in a dict and copy them into a
    set: the kind of work the CLI spends its time on, slowed like it by
    the host's memory contention."""
    start = time.perf_counter()
    counts: dict = {}
    for key in _PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    set(counts)
    return time.perf_counter() - start


def main() -> int:
    result, timeout, *argv = sys.argv[1:]
    probes = [probe()]
    paused = 0.0
    start = time.perf_counter()
    deadline = start + float(timeout)
    pid = os.posix_spawn(argv[0], argv, os.environ)
    exited = os.pidfd_open(pid)
    status = usage = None
    while status is None:
        if select.select([exited], [], [], PROBE_EVERY_S)[0]:
            break
        if time.perf_counter() > deadline:
            os.kill(pid, signal.SIGKILL)
            break
        stop = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        _, got, got_usage = os.wait4(pid, os.WUNTRACED)
        if os.WIFSTOPPED(got):
            probes.append(probe())
            os.kill(pid, signal.SIGCONT)
        else:  # it ended before the stop took effect
            status, usage = got, got_usage
        paused += time.perf_counter() - stop
    if status is None:
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start - paused
    os.close(exited)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": os.waitstatus_to_exitcode(status),
                   "wall_s": wall, "paused_s": paused, "probes_s": probes,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
