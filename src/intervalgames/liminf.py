"""Interval liminf games, solved through an equivalence with parity games.

The liminf of an integer-weighted play is always an integer, so the
objective is integerized up front; afterwards every interval is a closed
integer interval and the priority function over the integers is well
defined.  Both reduction directions preserve winners vertex by vertex and
barely change the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arena import (
    Edge,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    MINUS_INF,
    PLUS_INF,
    ParityGame,
    Player,
    Regions,
    UnsupportedObjective,
    fresh_namer,
)
from .parity import solve_parity


class EmptyObjective(UnsupportedObjective):
    """The objective contains no integer at all, so no priority map exists."""


IntEndpoint = Union[int, Infinity]


@dataclass(frozen=True)
class PriorityMap:
    """Closed integer intervals, ordered with strict gaps between them.

    Interval i (1-based) maps to priority 2i, the gap below everything to
    priority 1, and the gap above interval i to priority 2i+1.
    """

    intervals: tuple[tuple[IntEndpoint, IntEndpoint], ...]

    @property
    def r(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals


def _lo_int(j: Interval) -> IntEndpoint:
    if isinstance(j.lo, Infinity):
        return MINUS_INF
    if j.lo_open:
        return math.floor(j.lo) + 1
    return math.ceil(j.lo)


def _hi_int(j: Interval) -> IntEndpoint:
    if isinstance(j.hi, Infinity):
        return PLUS_INF
    if j.hi_open:
        return math.ceil(j.hi) - 1
    return math.floor(j.hi)


def integerize(iu: IntervalUnion) -> PriorityMap:
    """Intersect with the integers: open rational endpoints are rounded
    inward, empty pieces dropped, touching runs merged."""
    pieces = []
    for j in iu.intervals:
        lo, hi = _lo_int(j), _hi_int(j)
        if lo == PLUS_INF or hi == MINUS_INF:
            continue
        if not isinstance(lo, Infinity) and not isinstance(hi, Infinity) and lo > hi:
            continue
        pieces.append((lo, hi))
    merged: list[tuple[IntEndpoint, IntEndpoint]] = []
    for lo, hi in pieces:
        if merged:
            plo, phi = merged[-1]
            touching = not isinstance(phi, Infinity) and not isinstance(lo, Infinity) and lo <= phi + 1
            if touching:
                merged[-1] = (plo, max(phi, hi) if not isinstance(hi, Infinity) else hi)
                continue
        merged.append((lo, hi))
    return PriorityMap(tuple(merged))


def omega_I(n: int, pm: PriorityMap) -> int:
    """Priority of the integer n: 2i inside interval i, 1 below the first
    interval, otherwise 1+2i for the last interval i lying below n."""
    if pm.is_empty:
        raise EmptyObjective("priority map for an objective with no integer points")
    for i, (lo, hi) in enumerate(pm.intervals, start=1):
        if lo <= n <= hi:
            return 2 * i
    if n < pm.intervals[0][0]:
        return 1
    best = 1
    for i, (_, hi) in enumerate(pm.intervals, start=1):
        if hi < n:
            best = 1 + 2 * i
    return best


def liminf_to_parity(g: GameGraph, iu: IntervalUnion) -> ParityGame:
    """Subdivide every edge; the subdividing vertex carries the priority of
    the edge weight, original vertices carry 2r+1.

    Subdividers are Eve-owned with a single successor, so their ownership
    is semantically inert.  Parity edges come in pairs: edge 2k enters the
    subdivider of original edge k, edge 2k+1 leaves it.
    """
    pm = integerize(iu)
    r = pm.r
    fresh = fresh_namer(g.names)
    names = list(g.names) + [fresh(f"e{k}") for k in range(len(g.edges))]
    owner = list(g.owner) + [Player.EVE] * len(g.edges)
    priority = [2 * r + 1] * g.n + [omega_I(e.weight, pm) for e in g.edges]
    edges = []
    for k, e in enumerate(g.edges):
        sub = g.n + k
        edges.append(Edge(e.src, sub))
        edges.append(Edge(sub, e.dst))
    return ParityGame(
        names=tuple(names),
        owner=tuple(owner),
        edges=tuple(edges),
        priority=tuple(priority),
        initial=g.initial,
    )


def parity_to_liminf(p: ParityGame) -> tuple[GameGraph, IntervalUnion]:
    """Weight every edge with the priority of its source; the objective is
    the union of singletons at each even priority that occurs."""
    edges = tuple(Edge(e.src, e.dst, p.priority[e.src]) for e in p.edges)
    g = GameGraph(names=p.names, owner=p.owner, edges=edges, initial=p.initial)
    evens = sorted({q for q in p.priority if q % 2 == 0})
    iu = IntervalUnion(tuple(Interval(Fraction(q), Fraction(q)) for q in evens))
    return g, iu


def solve_liminf(g: GameGraph, iu: IntervalUnion) -> Regions:
    """Exact winning regions.

    When the objective contains no integer Adam wins everywhere; this is
    reported as a region, not an error.
    """
    everything = frozenset(range(g.n))
    if integerize(iu).is_empty:
        return Regions(win_eve=frozenset(), win_adam=everything)
    solved = solve_parity(liminf_to_parity(g, iu))
    regions = Regions(
        win_eve=frozenset(v for v in solved.win_eve if v < g.n),
        win_adam=frozenset(v for v in solved.win_adam if v < g.n),
    )
    regions.check_partition(everything)
    return regions
