"""Seeded solve benchmark for intervalgames.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` (as with PYTHONPATH=src).  The run generates its instance documents
from the seed, writes them to files, and solves each one in this process
through `intervalgames.cli.main(["solve", FILE, "--format", "structured",
"--regions"])` as a closed loop with one caller: each solve starts after
the previous one returns.  Every per-vertex verdict is checked against an
oracle reference or a recorded pin after the timed solves (workloads.py).

--trace 0 measures the end-to-end metrics: whole passes over the instances
until S seconds have gone by, with every time divided by the host's
slowdown around it (see REFERENCE_NOMINAL_S).  --trace 1 makes exactly
one untraced and one traced pass, interleaved, and reports the per-layer
metrics unscaled, so its counters depend on the seed alone.  Metric names
and units come from BENCHMARK.json.  Human-readable lines go first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

INSTANCE_LIMIT_S = 20  # one solve slower than this counts as failed
RUN_DEADLINE_S = 110  # no instance starts after this much wall time
SETUP_SAMPLES_PER_PASS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import intervalgames.cli; "
    "print(time.perf_counter() - t)"
)
# On a shared host the same solve can take half as long again from one
# minute to the next, so that runs of one code differ by more than any
# useful bound.  A fixed loop of this file's own, which calls no program
# code, runs before every solve and measures the host's speed.  Each
# solve's time, and each import sample, is divided by the slowdown around
# it: the loop's mean time over the SLOWDOWN_WINDOW solves centred on it,
# over this nominal time (a round figure near the loop's time on the
# recording host when it is quiet).
REFERENCE_NOMINAL_S = 0.0025
SLOWDOWN_WINDOW = 11


class InstanceTimeout(BaseException):
    """Raised from the alarm handler; a BaseException so that no handler
    inside the program can swallow it."""


@dataclass
class Solve:
    index: int  # position in the instance list
    seconds: float
    error: Optional[str] = None  # set when the solve failed
    regions: Optional[dict] = None

    @property
    def charged_s(self) -> float:
        """The time a solve counts for: a failed solve is charged at least
        the time limit, so failing never improves a timing."""
        return self.seconds if self.error is None else max(self.seconds, INSTANCE_LIMIT_S)


@dataclass
class Pass:
    solves: list[Solve] = field(default_factory=list)
    # the distinct verdict maps of each instance; a repeat shares the first
    # equal one, so that the benchmark's memory does not grow with passes
    distinct: dict[int, list[dict]] = field(default_factory=dict)

    def add(self, solve: Solve) -> None:
        if solve.regions is not None:
            seen = self.distinct.setdefault(solve.index, [])
            for regions in seen:
                if regions == solve.regions:
                    solve.regions = regions
                    break
            else:
                seen.append(solve.regions)
        self.solves.append(solve)

    @property
    def ok(self) -> list[Solve]:
        return [s for s in self.solves if s.error is None]

    def instances_per_s(self) -> float:
        timed = sum(s.charged_s for s in self.solves)
        return len(self.ok) / timed if timed else 0.0


def _alarm(signum, frame):
    raise InstanceTimeout()


def solve_once(cli, path: Path, index: int) -> Solve:
    argv = ["solve", str(path), "--format", "structured", "--regions"]
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        return Solve(index, time.perf_counter() - start, f"exceeded {INSTANCE_LIMIT_S} s")
    except (Exception, SystemExit) as exc:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Solve(index, seconds, f"raised {detail}")
    if code != 0:
        return Solve(index, seconds, f"exit {code}: {err.getvalue().strip()}")
    try:
        regions = json.loads(out.getvalue())["regions"]
    except (ValueError, KeyError, TypeError) as exc:
        return Solve(index, seconds, f"unreadable output: {exc}")
    return Solve(index, seconds, regions=regions)


def reference_seconds() -> float:
    """Time of the host-speed loop.  The collector is off during it, so
    garbage the program left behind is not collected on the loop's time."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(4):
        seen, sums = set(), {}
        for i in range(2000):
            k = (i * 7919) % 1009
            sums[k] = sums.get(k, 0) + i
            seen.add((k, i & 7))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def slowdowns(reference: list[float]) -> list[float]:
    half = SLOWDOWN_WINDOW // 2
    return [
        statistics.mean(reference[max(0, i - half):i + half + 1]) / REFERENCE_NOMINAL_S
        for i in range(len(reference))
    ]


def run_pass(cli, paths: list[Path], seconds: float, started: float, between) -> Pass:
    """Solve the instances in order, in whole passes, until `seconds` have
    passed; whole passes keep every run's mix of instances the same.
    `between(i)` runs before solve i, outside the timed region.  Once the
    run deadline has passed, the rest of the first pass is recorded as
    failed rather than started."""
    result = Pass()
    loop_start = time.perf_counter()
    i = 0
    while True:
        if i and i % len(paths) == 0 and time.perf_counter() - loop_start >= seconds:
            return result
        between(i)
        if time.perf_counter() - started > RUN_DEADLINE_S:
            for j in range(i, len(paths)):
                result.solves.append(Solve(j, 0.0, "run deadline reached before start"))
            return result
        index = i % len(paths)
        result.add(solve_once(cli, paths[index], index))
        i += 1


def paired_passes(cli, paths: list[Path], instances, tracer, started: float):
    """One untraced and one traced pass, interleaved per instance with the
    order alternating, so that drift in machine speed and first-solve
    effects fall on both sides alike."""
    plain, traced = Pass(), Pass()
    for i, path in enumerate(paths):
        if time.perf_counter() - started > RUN_DEADLINE_S:
            for side in (plain, traced):
                side.solves.append(Solve(i, 0.0, "run deadline reached before start"))
            continue
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.add(solve_once(cli, path, i))
                continue
            tracer.instance = instances[i].iid
            tracer.install()
            try:
                traced.add(solve_once(cli, path, i))
            finally:
                tracer.uninstall()
    return plain, traced


def import_seconds() -> float:
    """Import time of intervalgames.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def check(workloads, instances, passes: list[Pass], pins: dict) -> tuple[int, list[str]]:
    """Count solves whose verdicts contradict the reference or pin; the
    reference of each instance is computed once, outside any timing."""
    wrong = 0
    problems = []
    verdict_cache: dict[tuple[int, str], Optional[str]] = {}
    for solve in (s for p in passes for s in p.ok):
        inst = instances[solve.index]
        key = (solve.index, json.dumps(solve.regions, sort_keys=True))
        if key not in verdict_cache:
            if inst.reference is not None:
                verdict_cache[key] = workloads.contradiction(inst, solve.regions, inst.reference())
            else:
                verdict_cache[key] = workloads.check_pinned(inst, solve.regions, pins)
        complaint = verdict_cache[key]
        if complaint is not None:
            wrong += 1
            problems.append(f"{inst.iid}: {complaint}")
    return wrong, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "intervalgames" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    from intervalgames import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    import_seconds()  # may compile bytecode; not a sample
    phases = {"import": time.perf_counter() - started}
    pins = workloads.load_pins(args.workload)
    instances = workloads.build(args.workload, args.seed, pins)
    phases["generate"] = time.perf_counter() - started - sum(phases.values())
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        paths = []
        for i, inst in enumerate(instances):
            path = work / f"{i:04d}-{inst.iid}.json"
            path.write_text(inst.text)
            paths.append(path)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            passes = list(paired_passes(cli, paths, instances, tracer, started))
        else:
            # import samples are spread over the run, so that the median
            # sees the same drift in machine speed as the solves
            every = max(1, len(paths) // SETUP_SAMPLES_PER_PASS)
            setup_samples, reference_samples = [], []

            def between(i):
                if i % every == 0:
                    setup_samples.append(import_seconds())
                reference_samples.append(reference_seconds())

            passes = [run_pass(cli, paths, args.seconds, started, between)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    phases["solve"] = time.perf_counter() - started - sum(phases.values())

    wrong, problems = check(workloads, instances, passes, pins)
    phases["check"] = time.perf_counter() - started - sum(phases.values())
    solves = [s for p in passes for s in p.solves]
    failures = [s for s in solves if s.error is not None]
    for s in failures:
        problems.append(f"{instances[s.index].iid}: {s.error}")
    attempted = len(solves)
    failed = len(failures) + wrong
    verified = sum(1 for inst in instances if inst.reference is not None)
    definite = total = 0
    for s in (s for p in passes for s in p.ok):
        total += len(s.regions)
        definite += sum(1 for v in s.regions.values() if v != "unknown")

    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances "
          f"({verified} verified, {len(instances) - verified} pinned), "
          f"{attempted} solves, {failed} failed")
    print("  wall time: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for line in problems[:20]:
        print(f"  problem {line}")

    if args.trace:
        plain, traced = passes
        metrics = layer_metrics(spec, tracer, plain, traced)
        print_shares(tracer, traced)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        (timed,) = passes
        # reference sample i was taken just before solve i
        slowdown = slowdowns(reference_samples)
        # solves given up at the run deadline have no sample of their own
        times = [s.charged_s / slowdown[min(i, len(slowdown) - 1)]
                 for i, s in enumerate(timed.solves)]
        # the quantiles are over instances, each at its median over the
        # run's passes: one slow spell in one pass then moves no quantile
        per_instance = defaultdict(list)
        for s, t in zip(timed.solves, times):
            per_instance[s.index].append(t)
        typical = [statistics.median(ts) for ts in per_instance.values()]
        setup = [t / slowdown[i * every] for i, t in enumerate(setup_samples)]
        values = {
            "instances_per_s": len(timed.ok) / sum(times),
            "solve_ms_p50": 1000 * statistics.median(typical),
            "solve_ms_p90": 1000 * statistics.quantiles(typical, n=10, method="inclusive")[8],
            "definite_frac": definite / total if total else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"  host slowdown {statistics.mean(reference_samples) / REFERENCE_NOMINAL_S:.4g} "
              f"(run mean); unscaled instances_per_s {timed.instances_per_s():.6g} 1/s, "
              f"setup_s {statistics.median(setup_samples):.6g} s")
        print(f"  failed_frac {failed / attempted:.6g} ratio")
        print(f"  unknown_frac {1 - values['definite_frac']:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    # any failure, not only a contradicted verdict, makes the run incorrect
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(spec: dict, tracer, plain: Pass, traced: Pass) -> dict:
    traced_ips = traced.instances_per_s()
    special = {
        "trace.instances_per_s": traced_ips,
        "trace.overhead_frac": 1 - traced_ips / plain.instances_per_s(),
    }
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = tracer.self_s[name[: -len(".self_s")]]
        elif name.endswith(".calls"):
            value = tracer.calls[name[: -len(".calls")]]
        else:
            value = tracer.counters[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def print_shares(tracer, traced: Pass) -> None:
    """Each wrapped function's self time as a share of the traced solves'
    wall time, largest first."""
    wall = sum(s.seconds for s in traced.solves)
    shares = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    print(f"  layer shares of {wall:.3f} s traced solve time "
          f"({len(tracer.spans)} spans, calibrated wrapper cost "
          f"{1e6 * tracer.per_call:.3f} us per call outside its clocks):")
    for name, seconds in shares:
        if seconds / wall >= 0.001:
            print(f"    share {name} {100 * seconds / wall:.1f}% "
                  f"({tracer.calls[name]} calls)")
    print(f"    share (wrappers and code outside wrapped functions) "
          f"{100 * (wall - sum(tracer.self_s.values())) / wall:.1f}%")


if __name__ == "__main__":
    sys.exit(main())
