"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
per-seed values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound ``BENCHMARK.json`` fixes.  Use it to check that the benchmark is
steady, and to compare a change with its parent by running it on both.

    python3 perfbench/spread.py --seeds 1-10 --json /tmp/spread.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the raw values and summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            status = status or (not result["correct"])
            runs.append(result)
        summary = {
            "why": why[workload],
            "latency_tail_percentile": WORKLOADS[workload].tail_pct,
            "attempted": [r["attempted"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: attempted per run {summary['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary["metrics"][name] = {
                "values": values, "median": statistics.median(values),
                "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            }
            print(f"  {name:<18} median {statistics.median(values):12.5g}  "
                  f"spread {spread:6.3f}  bound {bound}")
        report["workloads"][workload] = summary
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
