"""Per-layer tracing installed from outside the program.

Every public function of the traced modules is replaced, at every module
binding that refers to it (re-imports such as `meanpayoff.attractor_with_strategy`
or `cli.solve_mp_interval` included), by a wrapper that records a span and
charges self time: a span's duration minus the time its wrapped child
calls take (see Tracer).  Recursive calls resolve through module globals,
so they are wrapped too.  A few functions also feed work counters through
hooks that inspect their arguments or result.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

PACKAGE = "intervalgames"
TRACED_MODULES = ("arena", "liminf", "parity", "meanpayoff", "discounted", "totalsum", "cli")


def _attractor(counters, args, kwargs, result):
    # attractor_with_strategy(game, target, player, within=None)
    game = args[0]
    within = args[3] if len(args) > 3 else kwargs.get("within")
    counters["parity.attractor.alive_vertices"] += game.n if within is None else len(within)
    counters["parity.attractor.attracted_vertices"] += len(result[0])


def _ocpg_bounded(counters, args, kwargs, result):
    counters["totalsum.configs"] += len(result.win_eve) + len(result.win_adam) + len(result.unknown)
    counters["totalsum.unknown_configs"] += len(result.unknown)


# function -> hook(counters, args, kwargs, result)
HOOKS = {
    "meanpayoff.mp_threshold":
        lambda c, a, k, r: c.update({"meanpayoff.threshold_vertices": a[0].n}),
    "discounted.horizon":
        lambda c, a, k, r: c.update({"discounted.horizon_steps": r}),
    "parity.attractor_with_strategy": _attractor,
    "parity.solve_parity":
        lambda c, a, k, r: c.update({"parity.solved_vertices": a[0].n}),
    "totalsum.solve_ocpg_bounded": _ocpg_bounded,
    "totalsum.totalsum_to_ocpg":
        lambda c, a, k, r: c.update({"totalsum.ocpg_vertices": r.n}),
    "arena.parse_game":
        lambda c, a, k, r: c.update({"arena.edges_parsed": len(r[0].edges)}),
    "liminf.liminf_to_parity":
        lambda c, a, k, r: c.update({"liminf.parity_vertices": r.n}),
}


class Tracer:
    """Spans kept in memory as (name, start, end, parent, instance) with
    parent the index of the enclosing span or -1.

    A wrapped call costs its caller more than the callee's span: the
    wrapper's bookkeeping and counter hook come on top.  So a caller's self
    time is reduced by the whole wrapped call, from entering the wrapper to
    leaving it, plus `per_call`: the part of each call that no clock
    reading inside the wrapper sees, calibrated when the tracer is made.
    What wrapping costs is then in no function's self time."""

    def __init__(self, per_call: Optional[float] = None):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.instance = None
        self._stack: list[int] = []
        self._child: list[float] = []
        self._installed: list[tuple[object, str, Callable]] = []
        self.per_call = _calibrate() if per_call is None else per_call

    def _call(self, name: str, fn: Callable, args, kwargs):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._child.append(0.0)
        try:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.self_s[name] += end - start - self._child.pop()
                self.calls[name] += 1
                self.spans[index] = (name, start, end, parent, self.instance)
            hook = HOOKS.get(name)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        finally:
            if self._child:
                self._child[-1] += time.perf_counter() - entered + self.per_call

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        targets = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(value)] = (f"{short}.{attr}", value)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, instance in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "instance": instance}
                ) + "\n")


def _calibrate(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds per wrapped call that the caller spends outside the
    wrapper's clock readings: a loop of wrapped no-op calls, less the same
    loop unwrapped, less what the wrapper's clocks saw; median of repeats."""

    def noop():
        return None

    samples = []
    for _ in range(repeats):
        probe = Tracer(per_call=0.0)
        wrapped = probe._wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        probe._child.append(0.0)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        samples.append((traced - plain - probe._child.pop()) / calls)
    return max(0.0, statistics.median(samples))
