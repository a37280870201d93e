"""End-to-end and per-layer benchmark of the gaborflow CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload startup-bound --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's calls as fresh processes in a closed loop and
reports the end-to-end metrics; --trace 1 runs the same calls in process,
timed layer by layer, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import envinfo
import loop
import tracing
import workloads
from reference import check_oracle


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gaborflow" / "cli.py").is_file():
        print(f"error: no gaborflow source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    oracle_problems = check_oracle()
    for problem in oracle_problems:
        print(f"error: {problem}", file=sys.stderr)

    def log(line):
        print(line, flush=True)

    env = envinfo.stamp()
    log("env " + json.dumps(env, sort_keys=True))
    calls = workloads.build(args.workload, args.seed)
    log(f"workload {args.workload} seed {args.seed}: {len(calls)} calls per round")
    for call in calls:
        log(f"  {call.label}: gaborflow {' '.join(call.argv)}")

    if args.trace:
        res = tracing.run(calls, args.seconds, root, log)
        tracing.dump(res["tracer"], root / "perfbench" / "out" /
                     f"trace-{args.workload}-seed{args.seed}.json",
                     {"env": env, "workload": args.workload, "seed": args.seed,
                      "calls": [c.label for c in calls], "rounds": res["rounds"]})
        if res["missing"]:
            log("not wrapped (absent from the library): " + ", ".join(res["missing"]))
        log(f"traced {res['rounds']} round(s), {res['attempted']} calls; "
            "per-layer values are per round unless marked")
        for wall, parts in res["breakdowns"]:
            shares = ", ".join(f"{k} {v / wall:.1%}" for k, v in
                               sorted(parts.items(), key=lambda kv: -kv[1]))
            log(f"  frame_bounds {wall:.3f} s = self times: {shares} "
                f"(accounted {sum(parts.values()) / wall:.4%})")
        extra = {}
    else:
        res = loop.run(calls, args.seconds, root, log)
        log(f"ran {res['rounds']} round(s), {res['attempted']} calls, "
            f"{res['busy_s']:.2f} s inside calls")
        for label in dict.fromkeys(s.label for s in res["samples"]):
            mine = [s for s in res["samples"] if s.label == label]
            log(f"  {label}: {statistics.median(s.seconds for s in mine):.3f} s median of "
                f"{len(mine)}, max RSS {max(s.max_rss_mb for s in mine):.0f} MB")
        for note in res["notes"]:
            log("  " + note)
        extra = {
            "fail_frac": (res["failed"] / res["attempted"],
                          f"({res['failed']}/{res['attempted']} calls)"),
            "call_s.tail level": (res["tail_level"], ""),
        }

    metrics = res["metrics"]
    missing = [k for k, (v, _) in metrics.items() if v is None or not math.isfinite(v)]
    for name, (value, unit) in metrics.items():
        log(f"  {name:34s} {_fmt(value):>14s} {unit}")
    for name, (value, note) in extra.items():
        log(f"  {name:34s} {_fmt(value):>14s} {note}")
    correct = res["failed"] == 0 and not oracle_problems and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v if k not in missing else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
