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
from .parity import Graph, solve_parity


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

    def bounds(self, i: int) -> tuple[IntEndpoint, IntEndpoint]:
        """(min, max) integer of the region with priority i; infinite
        markers for unbounded sides, (PLUS_INF, MINUS_INF) when the region
        is empty (only possible for the outermost gaps)."""
        if i % 2 == 0:
            return self.intervals[i // 2 - 1]
        if i == 1:
            first_lo = self.intervals[0][0]
            if isinstance(first_lo, Infinity):
                return PLUS_INF, MINUS_INF
            return MINUS_INF, first_lo - 1
        if i == 2 * self.r + 1:
            last_hi = self.intervals[-1][1]
            if isinstance(last_hi, Infinity):
                return PLUS_INF, MINUS_INF
            return last_hi + 1, PLUS_INF
        j = (i - 1) // 2  # gap between intervals j and j+1, both sides finite
        return self.intervals[j - 1][1] + 1, self.intervals[j][0] - 1


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
    """Priority of the integer n: the region whose bounds hold it."""
    if pm.is_empty:
        raise EmptyObjective("priority map for an objective with no integer points")
    for i in range(1, 2 * pm.r + 2):
        lo, hi = pm.bounds(i)
        if lo <= n <= hi:
            return i
    raise AssertionError("the regions of a priority map cover the integers")


def _subdivision(g: GameGraph, pm: PriorityMap) -> Graph:
    """The solver's view of `g` with every edge subdivided: vertex g.n + k
    subdivides edge k and carries the priority of its weight, original
    vertices carry 2r+1.

    Subdividers are Eve-owned with a single successor, so their ownership
    is semantically inert.  Each distinct weight's priority is computed
    once.
    """
    n, m = g.n, len(g.edges)
    srcs, dsts, weights = zip(*g.edges)
    succ: list = [[] for _ in range(n)]
    pred: list = [[] for _ in range(n)]
    for k, src, dst in zip(range(n, n + m), srcs, dsts):
        succ[src].append(k)
        pred[dst].append(k)
    # a subdivider's one successor and one predecessor, as 1-tuples
    succ.extend(zip(dsts))
    pred.extend(zip(srcs))
    omega = {w: omega_I(w, pm) for w in set(weights)}
    return Graph(
        n=n + m,
        owner=tuple(g.owner) + (Player.EVE,) * m,
        priority=(2 * pm.r + 1,) * n + tuple(map(omega.__getitem__, weights)),
        succ=succ,
        pred=pred,
    )


def liminf_to_parity(g: GameGraph, iu: IntervalUnion) -> ParityGame:
    """The subdivided game (`_subdivision`) as a parity document.  Parity
    edges come in pairs: edge 2k enters the subdivider of original edge k,
    edge 2k+1 leaves it."""
    graph = _subdivision(g, integerize(iu))
    fresh = fresh_namer(g.names)
    edges = []
    for sub, e in enumerate(g.edges, g.n):
        edges.append(Edge(e.src, sub))
        edges.append(Edge(sub, e.dst))
    return ParityGame(
        names=tuple(g.names) + tuple(fresh(f"e{k}") for k in range(len(g.edges))),
        owner=graph.owner,
        edges=tuple(edges),
        priority=graph.priority,
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
    pm = integerize(iu)
    if pm.is_empty:
        return Regions(win_eve=frozenset(), win_adam=everything)
    solved = solve_parity(_subdivision(g, pm))
    regions = Regions(
        win_eve=solved.win_eve & everything,
        win_adam=solved.win_adam & everything,
    )
    regions.check_partition(everything)
    return regions
