"""Record the solve time of every pool member, and the verdicts of every
member without an oracle reference, into pins.json; the verdicts check
pinned instances, the times rank each pool for stratified sampling.

    python3 perfbench/record_pins.py

Run from the root of a source checkout at the commit whose verdicts are
to be pinned.  Each pool member is solved exactly as the benchmark solves
it, COST_REPEATS times, and its cost is the fastest of them; a failing
solve aborts the recording.  Each family's shares of eve,
adam and unknown verdicts are printed.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run

COST_REPEATS = 3


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads
    from intervalgames import cli

    signal.signal(signal.SIGALRM, run._alarm)
    pins = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        for name in workloads.WORKLOADS:
            pins[name] = {}
            for family in workloads.WORKLOADS[name]:
                recorded, cost_ms = [], []
                shares = Counter()
                for k in range(family.pool):
                    inst = workloads.pool_member(name, family, k)
                    path = work / "instance.json"
                    path.write_text(inst.text)
                    solves = [run.solve_once(cli, path, k) for _ in range(COST_REPEATS)]
                    for solve in solves:
                        if solve.error is not None:
                            print(f"{name} {inst.iid}: {solve.error}", file=sys.stderr)
                            return 1
                    if any(s.regions != solve.regions for s in solves):
                        print(f"{name} {inst.iid}: verdicts differ between repeats",
                              file=sys.stderr)
                        return 1
                    shares.update(solve.regions.values())
                    # verified members are checked by their oracle reference
                    pinned = inst.reference is None
                    recorded.append(workloads.pin_of(inst, solve.regions) if pinned else None)
                    cost_ms.append(round(1000 * min(s.seconds for s in solves), 1))
                pins[name][family.name] = {"pins": recorded, "cost_ms": cost_ms}
                total = sum(shares.values())
                print(f"{name}/{family.name}: "
                      f"{sum(p is not None for p in recorded)} of {len(recorded)} pinned, "
                      f"{sum(cost_ms) / 1000:.1f} s, verdicts "
                      + ", ".join(f"{v} {100 * shares[v] / total:.1f}%"
                                  for v in ("eve", "adam", "unknown")), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
