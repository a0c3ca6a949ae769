"""Interval liminf games, solved through an equivalence with parity games.

The liminf of an integer-weighted play is always an integer, so the
objective is integerized up front; afterwards every interval is a closed
integer interval and the priority function over the integers is well
defined.  Both reduction directions preserve winners vertex by vertex and
barely change the graph.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    fresh_namer,
)
from .parity import Graph, solve_parity


IntEndpoint = Union[int, Infinity]


@dataclass(frozen=True)
class PriorityMap:
    """Closed integer intervals, ordered with strict gaps between them.

    Interval i (1-based) maps to priority 2i, the gap below everything to
    priority 1, and the gap above interval i to priority 2i+1.  The
    outermost gaps are empty when the map is unbounded on that side, so
    the nonempty regions run from `lowest` upward, one more after each
    of the `cuts`.
    """

    intervals: tuple[tuple[IntEndpoint, IntEndpoint], ...]

    @property
    def r(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def lowest(self) -> int:
        """Priority of the lowest region: 1, or 2 when the first interval
        is unbounded below and the gap under it is empty."""
        return 2 if self.intervals and isinstance(self.intervals[0][0], Infinity) else 1

    @cached_property
    def cuts(self) -> tuple[int, ...]:
        """The finite integers where a region starts, ascending: each
        finite lower end and each finite upper end plus one."""
        return tuple(
            x + d for piece in self.intervals for x, d in zip(piece, (0, 1)) if isinstance(x, int)
        )


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
    inward, empty pieces dropped, touching runs merged.  The pieces of a
    union are sorted and disjoint, so two can only touch where one starts
    right after the other ends, and only the last can end at +inf."""
    merged: list[tuple[IntEndpoint, IntEndpoint]] = []
    for j in iu.intervals:
        lo, hi = _lo_int(j), _hi_int(j)
        if lo > hi:
            continue
        if merged and lo == merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return PriorityMap(tuple(merged))


def omega_I(n: int, pm: PriorityMap) -> int:
    """Priority of the integer n: the lowest priority plus the number of
    cuts at or below n.  An empty map gives 1 everywhere."""
    return pm.lowest + bisect_right(pm.cuts, n)


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
