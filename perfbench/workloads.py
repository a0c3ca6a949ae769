"""Seeded instance families for the solve benchmark, and their references.

Each family has a fixed pool of twice as many members as a run solves;
member k is generated from the string seed "<workload>/<family>/<k>".  The
solve time of every member, and the verdicts of every member without an
oracle reference, were recorded once in `pins.json` (record_pins.py).
The run seed picks which members a run solves, so a different seed gives
different instances, and every instance is checked:

- *verified* instances come with an independent reference from
  `intervalgames.oracle`, computed after the timed solves;
- *pinned* instances are too large for every oracle guard and are compared
  with their recorded verdicts.

Run-to-run steadiness comes from stratifying the seed's choice.  Sizes
cycle through each family's range, and a pool is ranked by recorded solve
time: a run always takes the pool's costliest tenth (otherwise luck in the
heavy tail would decide a run's throughput and p90) and one member from
each of equal runs of the rest.  In total-sum pools the rest is ranked by
recorded UNKNOWN and vertex counts first, which keeps definite_frac nearly
the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from intervalgames import generate, oracle
from intervalgames.arena import (
    GameGraph,
    IntervalUnion,
    Objective,
    Payoff,
    Player,
    normalize,
    serialize_game,
)
from intervalgames.discounted import (
    SubsetSumInstance,
    _min_decision_width,
    horizon,
    subset_sum_to_ds,
)
from intervalgames.liminf import parity_to_liminf
from intervalgames.meanpayoff import parity_to_mp
from intervalgames.totalsum import NoFiniteEndpoint, countdown_to_total, totalsum_to_ocpg

PINS_PATH = Path(__file__).with_name("pins.json")

# Budget under which a discounted arena is checked by the unpruned
# finite-horizon search: search nodes, and positional strategy pairs that
# it enumerates for the endgame values.  The oracle's own guards (2e6 nodes,
# 1e6 pairs) allow minutes per instance in Python; arenas over this budget
# are pinned instead, keeping the check near a quarter second per instance.
DS_ORACLE_NODES = 20_000
DS_ORACLE_PAIRS = 300

Reference = dict[str, str]  # vertex name -> "eve" | "adam" | "unknown"


@dataclass
class Instance:
    iid: str
    family: str
    text: str
    three_valued: bool  # total-sum payoffs, which may answer UNKNOWN
    pool_index: int
    # verified: returns the reference verdicts; pinned: None
    reference: Optional[Callable[[], Reference]] = None


@dataclass(frozen=True)
class Family:
    name: str
    count: int  # instances per run, drawn from a pool of 2 * count
    # make(rng, k) builds pool member k and its reference, if any
    make: Callable[[random.Random, int], tuple[str, Optional[Callable[[], Reference]]]]
    three_valued: bool = False

    @property
    def pool(self) -> int:
        return 2 * self.count


def _size(lo: int, hi: int, i: int) -> int:
    return lo + i % (hi - lo + 1)


def _doc(g: GameGraph, payoff: Payoff, iu: IntervalUnion, lam=None) -> str:
    return serialize_game(g, Objective(payoff=payoff, intervals=iu, lam=lam))


def _names_to(g: GameGraph, winners) -> Reference:
    return {name: ("eve" if v in winners else "adam") for v, name in enumerate(g.names)}


# ---------------------------------------------------------------------------
# mp-fixpoint


def _mp_arena(rng: random.Random, i: int):
    g = generate.random_game(rng, _size(30, 60, i))
    o = generate.random_objective(rng, rng.choice((Payoff.MP_INF, Payoff.MP_SUP)), max_pieces=2)
    return serialize_game(g, o), None


def _mp_gadget(rng: random.Random, i: int):
    p = generate.random_parity_game(rng, _size(4, 5, i))
    g, iu = parity_to_mp(p)

    def reference() -> Reference:
        # parity_to_mp appends three gadget vertices per source vertex, in
        # source order; each is won by whoever wins its source vertex,
        # because looping inside a gadget loses for the gadget's owner
        win = oracle.brute_force_positional(p).win_eve
        source = lambda v: v if v < p.n else (v - p.n) // 3
        return {name: ("eve" if source(v) in win else "adam") for v, name in enumerate(g.names)}

    return _doc(g, Payoff.MP_INF, iu), reference


# ---------------------------------------------------------------------------
# ds-horizon


def _ds_arena(rng: random.Random, i: int):
    g = generate.random_game(rng, _size(8, 12, i))
    lam = (Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))[i % 3]
    iu = generate.random_interval_union(
        rng, 2, 4, allow_unbounded=False, forbid_singletons=True, half_grid=True
    )
    text = _doc(g, Payoff.DISCOUNTED, iu, lam)
    if iu.is_empty:
        return text, None
    # the depth and node count of the oracle's own guard arithmetic
    width = _min_decision_width(iu)
    depth = horizon(g, lam, width) + 1 if width else 1
    branching = max(len(g.out_edges[v]) for v in range(g.n))
    nodes = sum(branching ** k for k in range(depth + 1))
    pairs = math.prod(len(g.out_edges[v]) for v in range(g.n))
    if nodes > DS_ORACLE_NODES or pairs > DS_ORACLE_PAIRS:
        return text, None
    return text, lambda: _names_to(g, oracle.brute_force_finite_horizon_ds(g, lam, iu, depth))


def _subset_sum(rng: random.Random, i: int):
    instance = generate.random_subset_sum(rng, _size(8, 16, i))
    if i % 2:
        # With two distinct values per round Adam, who moves first, almost
        # always spoils the target.  Every other member gives Adam's rounds
        # equal pairs and aims at a sum of one selection, so Eve wins there.
        pairs = [(a, a) if r % 2 == 0 else (a, b) for r, (a, b) in enumerate(instance.pairs)]
        target = sum(rng.choice(pair) for pair in pairs)
        instance = SubsetSumInstance(target=target, pairs=tuple(pairs))
    g, iu, lam, _ = subset_sum_to_ds(instance, Fraction(1, 2))

    def reference() -> Reference:
        # From chain vertex i the payoff is lam^-i times the sum of the
        # remaining choices (the scale cancels), so Eve wins there iff she
        # can force that sum to an integer inside lam^i * (target-1,
        # target+1); with lam = 1/2 there is at most one.  Rounds keep
        # their owners: an Eve round first gets a dummy Adam round so
        # subset_sum_winner's Adam-first order lines up.
        out = {}
        pairs = list(instance.pairs)
        for i, name in enumerate(g.names):
            lo, hi = lam ** i * (instance.target - 1), lam ** i * (instance.target + 1)
            candidates = [s for s in range(int(lo), int(hi) + 1) if lo < s < hi]
            if not candidates:
                out[name] = "adam"
                continue
            (target,) = candidates
            rest = pairs[i:] if i % 2 == 0 else [(0, 0)] + pairs[i:]
            out[name] = "eve" if oracle.subset_sum_winner(target, rest) else "adam"
        return out

    return _doc(g, Payoff.DISCOUNTED, iu, lam), reference


# ---------------------------------------------------------------------------
# total-clamp


def _total_arena(rng: random.Random, i: int):
    g = generate.random_game(rng, _size(4, 10, i), max_weight=2)
    while True:
        o = generate.random_objective(
            rng, rng.choice((Payoff.TOTAL_INF, Payoff.TOTAL_SUP)), max_pieces=2
        )
        try:
            # objectives without a finite region boundary are documented as
            # unsupported (exit 3); draw another
            gn, on = normalize(g, o)
            totalsum_to_ocpg(gn, on.intervals)
        except NoFiniteEndpoint:
            continue
        return serialize_game(g, o), None


def _countdown(rng: random.Random, i: int):
    cd = generate.random_countdown(rng, _size(4, 7, i), _size(4, 10, i // 4))
    g, iu = countdown_to_total(cd)

    def reference() -> Reference:
        # The entry vertex charges the credit, so it is the countdown game
        # itself.  Elsewhere the total starts at 0: an Eve vertex stops at
        # once (and so does the stop sink), while every Adam move makes the
        # total negative for good because all countdown weights are negative.
        edges = [(e.src, e.dst, e.weight) for e in cd.edges]
        out = {}
        for v, name in enumerate(g.names):
            if v == g.initial:
                won = oracle.countdown_winner(cd.owner, edges, cd.initial, cd.credit)
            else:
                won = g.owner[v] is Player.EVE
            out[name] = "eve" if won else "adam"
        return out

    return _doc(g, Payoff.TOTAL_INF, iu), reference


# ---------------------------------------------------------------------------
# liminf-large


def _liminf_arena(rng: random.Random, i: int):
    g = generate.random_game(rng, 1000 + 100 * (i % 31))
    o = generate.random_objective(rng, rng.choice((Payoff.LIMINF, Payoff.LIMSUP)), max_pieces=3)
    return serialize_game(g, o), None


def _parity_liminf(rng: random.Random, i: int):
    p = generate.random_parity_game(rng, _size(5, 8, i))
    g, iu = parity_to_liminf(p)

    def reference() -> Reference:
        return _names_to(g, oracle.brute_force_positional(p).win_eve)

    return _doc(g, Payoff.LIMINF, iu), reference


# Why each workload exists is recorded in BENCHMARK.json.  Sizes and
# counts keep one pass between 5 and 9 seconds at the recording commit,
# with at least 100 instances so that 10 solves lie beyond p90.
WORKLOADS: dict[str, list[Family]] = {
    "mp-fixpoint": [Family("arena", 60, _mp_arena), Family("parity-gadget", 40, _mp_gadget)],
    "ds-horizon": [Family("arena", 50, _ds_arena), Family("subset-sum", 50, _subset_sum)],
    "total-clamp": [
        Family("arena", 50, _total_arena, three_valued=True),
        Family("countdown", 50, _countdown, three_valued=True),
    ],
    "liminf-large": [Family("arena", 60, _liminf_arena), Family("parity-liminf", 40, _parity_liminf)],
}


def pool_member(workload: str, family: Family, k: int) -> Instance:
    text, reference = family.make(random.Random(f"{workload}/{family.name}/{k}"), k)
    return Instance(f"{family.name}-{k}", family.name, text, family.three_valued, k, reference)


def _stratified(picker: random.Random, family: Family, recorded: dict) -> list[int]:
    cost_ms, pins = recorded["cost_ms"], recorded["pins"]
    ranked = sorted(range(len(cost_ms)), key=lambda k: -cost_ms[k])
    count = family.count
    top = count // 5  # the pool's costliest tenth
    chosen, rest = ranked[:top], ranked[top:]
    if family.three_valued:
        # match the rest on recorded UNKNOWN and vertex counts before cost,
        # so that definite_frac hardly depends on the seed
        rest.sort(key=lambda k: ((pins[k] or "").count("u"), len(pins[k] or "")))
    blocks = count - top
    for j in range(blocks):
        chosen.append(picker.choice(rest[j * len(rest) // blocks:(j + 1) * len(rest) // blocks]))
    return sorted(chosen)


def build(workload: str, seed: int, pins: dict) -> list[Instance]:
    """The run's instances, in the order they are solved."""
    picker = random.Random(seed)
    instances = []
    for family in WORKLOADS[workload]:
        for k in _stratified(picker, family, pins[family.name]):
            instances.append(pool_member(workload, family, k))
    picker.shuffle(instances)
    return instances


# ---------------------------------------------------------------------------
# verdict comparison


VERDICT_CHAR = {"eve": "e", "adam": "a", "unknown": "u"}
CHAR_VERDICT = {c: v for v, c in VERDICT_CHAR.items()}


def digest(regions: Reference) -> str:
    text = ";".join(f"{name}={regions[name]}" for name in sorted(regions))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def pin_of(inst: Instance, regions: Reference) -> str:
    """Exact families pin a digest; three-valued ones pin every verdict, so
    a refinement of UNKNOWN can be told apart from a flip."""
    if inst.three_valued:
        return "".join(VERDICT_CHAR[regions[name]] for name in _vertex_names(inst))
    return digest(regions)


def contradiction(inst: Instance, got: Reference, want: Reference) -> Optional[str]:
    """None when `got` agrees with `want`.  For total-sum games only
    definite verdicts on both sides must match: UNKNOWN on either side is
    a refinement, a definite flip is a failure."""
    if set(got) != set(want):
        return "vertex sets differ"
    for name, w in want.items():
        g = got[name]
        if g == w:
            continue
        if inst.three_valued and "unknown" in (g, w):
            continue
        return f"vertex {name}: got {g}, reference {w}"
    return None


def check_pinned(inst: Instance, got: Reference, pins: dict) -> Optional[str]:
    pinned = pins[inst.family]["pins"][inst.pool_index]
    if pinned is None:
        return "no recorded pin"
    if not inst.three_valued:
        return None if digest(got) == pinned else "verdict digest differs from the pin"
    want = {name: CHAR_VERDICT[c] for name, c in zip(_vertex_names(inst), pinned)}
    return contradiction(inst, got, want)


def load_pins(workload: str) -> dict:
    return json.loads(PINS_PATH.read_text())[workload]


def _vertex_names(inst: Instance) -> list[str]:
    return [v["id"] for v in json.loads(inst.text)["vertices"]]

