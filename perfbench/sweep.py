"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads W,W] [--seeds 1-10] [--json FILE]

Run from the root of a source checkout.  Each run is its own process,
one at a time.  For every workload and metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread (Q3 - Q1) as a
share of the median, next to the metric's bound from BENCHMARK.json,
and also failed_frac, unknown_frac and the verified and pinned instance
counts.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
COUNTS = re.compile(r"\((\d+) verified, (\d+) pinned\)")


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            verified, pinned = map(int, COUNTS.search(lines[0]).groups())
            result["verified"], result["pinned"] = verified, pinned
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            table[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": q2, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / q2 if q2 else 0.0,
            }
        attempted = sum(r["attempted"] for r in runs)
        summary[workload] = {
            "metrics": table,
            "failed_frac": sum(r["failed"] for r in runs) / attempted,
            "all_correct": all(r["correct"] for r in runs),
            "verified_per_run": statistics.median(r["verified"] for r in runs),
            "pinned_per_run": statistics.median(r["pinned"] for r in runs),
        }
        print(f"\n{workload}: {len(runs)} runs, failed_frac {summary[workload]['failed_frac']:.3g}, "
              f"correct {summary[workload]['all_correct']}, per run "
              f"{summary[workload]['verified_per_run']:g} verified / "
              f"{summary[workload]['pinned_per_run']:g} pinned instances")
        for name, row in table.items():
            flag = ""
            if row["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:40s} {row['median']:12.5g} {row['unit']:6s} "
                  f"q1 {row['q1']:.5g} q3 {row['q3']:.5g} spread {row['spread']:.3f} "
                  f"bound {bounds[name]}{flag}")
            if name == "definite_frac":
                print(f"  {'unknown_frac':40s} {1 - row['median']:12.5g} ratio")
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
