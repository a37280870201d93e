"""Closed-loop end-to-end run: one client, each CLI call a fresh process that
starts only after the previous one has ended, nothing else running beside it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checks import Checker

CALL_TIMEOUT_S = 150.0
SETUP_REPEATS = 3


@dataclass
class Sample:
    label: str
    seconds: float
    max_rss_mb: float
    problems: list


def child_env(root) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd) -> tuple[float, int, bytes, bytes, float]:
    """(wall seconds, exit code, stdout, stderr, max RSS in MB) of one process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err_chunks = []
    reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        reader.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, out, b"".join(err_chunks), usage.ru_maxrss / 1024.0


def measure_setup(root, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing gaborflow.cli."""
    env = child_env(root)
    times = []
    for _ in range(repeats):
        wall, code, _, err, _ = run_child([sys.executable, "-c", "import gaborflow.cli"],
                                          env, root)
        if code != 0:
            raise RuntimeError(f"import gaborflow.cli failed: {err.decode(errors='replace')}")
        times.append(wall)
    return statistics.median(times)


def another_round(busy: float, rounds: int, seconds: float, least: int = 2) -> bool:
    """Whole rounds only, so every run has the same mix of calls: at least
    `least` (two repeat every argv), then one more while that brings the time
    spent in calls closer to `seconds`."""
    return rounds < least or busy + 0.5 * busy / rounds < seconds


def tail(samples: list[Sample]) -> tuple[float, str]:
    """The highest of p75..p99.9 with at least ten calls beyond it.

    A run of this benchmark makes fewer than 40 calls, so no such level
    exists; the tail is then the slowest kind of call: the largest median
    latency among the argvs of the round (failed calls keep their time).
    """
    ordered = sorted(s.seconds for s in samples)
    n = len(ordered)
    for level in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - level / 100.0) >= 10.0:
            cut = statistics.quantiles(ordered, n=1000, method="inclusive")
            return cut[int(round(level * 10)) - 1], f"p{level:g} of {n} calls"
    by_label: dict[str, list[float]] = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.seconds)
    label = max(by_label, key=lambda k: statistics.median(by_label[k]))
    return (statistics.median(by_label[label]),
            f"slowest call kind, {label}: median of {len(by_label[label])} "
            f"({n} calls, too few for a percentile with ten beyond it)")


def run(calls, seconds: float, root, log) -> dict:
    """Run whole rounds of calls for about `seconds`; return metrics and details."""
    env = child_env(root)
    setup_s = measure_setup(root)
    checker = Checker()
    digests: dict[tuple, bytes] = {}
    samples: list[Sample] = []
    accuracy = []
    reports = point_steps = 0
    rounds = 0
    while another_round(sum(s.seconds for s in samples), rounds, seconds):
        for call in calls:
            argv = [sys.executable, "-m", "gaborflow.cli", *call.argv]
            wall, code, out, err, rss = run_child(argv, env, root)
            problems, acc = checker.check(call, code, out)
            if digests.setdefault(call.argv, out) != out:
                problems.append("output bytes differ from an earlier run of the same argv")
            if problems and err:
                problems.append("stderr: " + err.decode(errors="replace").strip()[-300:])
            samples.append(Sample(call.label, wall, rss, problems))
            if problems:
                log(f"FAIL {call.label}: " + "; ".join(problems))
                continue
            reports += call.reports
            point_steps += call.point_steps
            if rounds == 0:
                accuracy.append(acc)
        rounds += 1
    latencies = [s.seconds for s in samples]
    busy = sum(latencies)
    tail_s, tail_level = tail(samples)
    errs_a = [e for acc in accuracy for e in acc.a]
    errs_b = [e for acc in accuracy for e in acc.b]
    flows = [d for acc in accuracy for d in acc.flow]
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_s.p50": (statistics.median(latencies), "s"),
        "call_s.tail": (tail_s, "s"),
        "reports_per_s": (reports / busy, "1/s"),
        "point_steps_per_s": (point_steps / busy, "1/s"),
        "peak_rss_mb": (max(s.max_rss_mb for s in samples), "MB"),
        "bound_err.a": (max(map(abs, errs_a)) if errs_a else None, "ratio"),
        "bound_err.b": (max(map(abs, errs_b)) if errs_b else None, "ratio"),
        "flow_err": (max(flows) if flows else None, "phase_dist"),
    }
    failed = sum(1 for s in samples if s.problems)
    return {
        "metrics": metrics,
        "samples": samples,
        "rounds": rounds,
        "busy_s": busy,
        "tail_level": tail_level,
        "notes": [n for acc in accuracy for n in acc.notes],
        "attempted": len(samples),
        "failed": failed,
    }
