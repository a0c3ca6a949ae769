"""Interval liminf games, solved through an equivalence with parity games.

The liminf of an integer-weighted play is always an integer, so the
objective is integerized up front; afterwards every interval is a closed
integer interval and the priority function over the integers is well
defined.  Both reduction directions preserve winners vertex by vertex.
Towards parity, a vertex carries the highest priority of a weight on an
edge into it, and only the edges of lower priority pass through a
subdivider, one per target and priority.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .arena import (
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
    """The solver's view of `g` as a parity game.

    With top = 2r+1 and q(e) the priority of the weight of edge e, each
    vertex v of `g` carries label(v), the highest q(e) over the edges e
    into v, or top if none enters.  An edge with q(e) = label(dst) goes
    straight to dst; any other edge enters the subdivider of (dst, q(e)),
    numbered from n in the order the edges first reach one: an Eve-owned
    vertex with priority q(e) and the single successor dst, shared by all
    such edges.

    This is the game with every edge subdivided (vertices of `g` at top,
    the subdivider of e at q(e)) with the same winners on the vertices of
    `g`.  Let S be the priorities a play sees infinitely often; in the
    subdivided game min S = min(top, q(e) over the edges e it takes
    infinitely often), and here it is the same:
    - a direct edge e taken infinitely often visits dst infinitely often,
      and label(dst) = q(e);
    - a vertex v visited infinitely often is entered infinitely often by
      some edge e with q(e) <= label(v), so label(v) never lowers the
      minimum;
    - a shared subdivider is bisimilar to the per-edge ones it replaces:
      same owner, same priority, same single successor.
    A subdivider has a single successor, so its owner is inert.
    """
    n, top = g.n, 2 * pm.r + 1
    omega = {w: omega_I(w, pm) for w in set(g.weight)}
    prios = list(map(omega.__getitem__, g.weight))
    # every priority is at least 1, so 0 marks a vertex nothing enters
    label = [0] * n
    for dst, q in zip(g.dst, prios):
        if q > label[dst]:
            label[dst] = q
    label = [q or top for q in label]
    succ: list = [[] for _ in range(n)]
    subs: dict[tuple[int, int], int] = {}
    sub_ends, sub_prios = [], []
    for src, dst, q in zip(g.src, g.dst, prios):
        if q != label[dst]:
            sub = subs.get((dst, q))
            if sub is None:
                sub = subs[dst, q] = n + len(sub_ends)
                sub_ends.append(dst)
                sub_prios.append(q)
            dst = sub
        succ[src].append(dst)
    # a subdivider's one successor, as a 1-tuple
    succ.extend(zip(sub_ends))
    return Graph.of(tuple(g.owner) + (Player.EVE,) * len(sub_ends), label + sub_prios, succ)


def liminf_to_parity(g: GameGraph, iu: IntervalUnion) -> ParityGame:
    """The game `_subdivision` builds, as a parity document.  Edge k leaves
    the source of the k-th edge of `g` for the vertex it enters there
    (each vertex's successors are listed in edge order), and each
    subdivider's edge to its target follows, in subdivider order.  A
    subdivider of v at priority q is named "v@q", made fresh."""
    graph = _subdivision(g, integerize(iu))
    n = g.n
    fresh = fresh_namer(g.names)
    sub_ends = tuple(dst for (dst,) in graph.succ[n:])
    its = list(map(iter, graph.succ[:n]))
    src = g.src + tuple(range(n, graph.n))
    return ParityGame(
        names=tuple(g.names)
        + tuple(fresh(f"{g.names[v]}@{q}") for v, q in zip(sub_ends, graph.priority[n:])),
        owner=graph.owner,
        src=src,
        dst=tuple(next(its[v]) for v in g.src) + sub_ends,
        weight=(0,) * len(src),
        priority=tuple(graph.priority),
        initial=g.initial,
    )


def parity_to_liminf(p: ParityGame) -> tuple[GameGraph, IntervalUnion]:
    """Weight every edge with the priority of its source; the objective is
    the union of singletons at each even priority that occurs."""
    weight = tuple(map(p.priority.__getitem__, p.src))
    g = GameGraph(p.names, p.owner, p.src, p.dst, weight, initial=p.initial, checked=True)
    evens = sorted({q for q in p.priority if q % 2 == 0})
    iu = IntervalUnion(tuple(Interval(Fraction(q), Fraction(q)) for q in evens))
    return g, iu


def solve_liminf(g: GameGraph, iu: IntervalUnion) -> Regions:
    """Exact winning regions.

    When the objective contains no integer Adam wins everywhere; this is
    reported as a region, not an error.
    """
    everything = frozenset(range(g.n))
    solved = solve_parity(_subdivision(g, integerize(iu)))
    regions = Regions(
        win_eve=solved.win_eve & everything,
        win_adam=solved.win_adam & everything,
    )
    regions.check_partition(everything)
    return regions
