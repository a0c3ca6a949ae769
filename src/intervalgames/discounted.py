"""Discounted-sum interval games without singleton intervals or gaps.

After finitely many steps the tail of a play contributes less than the
narrowest interval or gap, so a depth-limited alternating search with an
exact four-value endgame decides the winner.  All arithmetic is rational;
there are no convergence thresholds anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arena import (
    BadParameters,
    Edge,
    GameError,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    Player,
    Regions,
    UnsupportedObjective,
    complement_intervals,
    max_abs_weight,
)


class SingletonNotSupported(UnsupportedObjective):
    """Singleton intervals (and singleton gaps) make the problem an exact
    value question, which this solver does not attempt."""


class NonpositiveWidth(GameError):
    pass


@dataclass(frozen=True)
class SubsetSumInstance:
    """Alternating selection game: in round i the mover (Adam on odd
    rounds) picks one of pair i; Eve wins iff the total equals target."""

    target: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise GameError("subset sum instance needs at least one pair")


@dataclass(frozen=True)
class DsValueTable:
    """Per-vertex optimal values.

    minmax/maxmin are the values of the ordinary discounted games (Eve
    maximizing resp. minimizing); maxmax/minmin fix the corresponding
    optimal Eve strategy and let Adam optimize the same direction as Eve.
    """

    maxmax: tuple[Fraction, ...]
    minmax: tuple[Fraction, ...]
    maxmin: tuple[Fraction, ...]
    minmin: tuple[Fraction, ...]


def ds_value_lasso(prefix: Sequence[int], cycle: Sequence[int], lam: Fraction) -> Fraction:
    """Exact discounted sum of the ultimately periodic weight sequence."""
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    if not cycle:
        raise GameError("lasso cycle must be nonempty")
    total = Fraction(0)
    power = Fraction(1)
    for w in prefix:
        total += power * w
        power *= lam
    cyc = Fraction(0)
    cpow = Fraction(1)
    for w in cycle:
        cyc += cpow * w
        cpow *= lam
    return total + power * cyc / (1 - lam ** len(cycle))


def _profile_values(g: GameGraph, lam: Fraction, choice: dict[int, int]) -> list[Fraction]:
    """Value at every vertex when both players follow fixed edge choices."""
    values: list[Optional[Fraction]] = [None] * g.n
    for start in range(g.n):
        if values[start] is not None:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        v = start
        while values[v] is None and v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = g.edges[choice[v]].dst
        if values[v] is None:
            # closed a fresh cycle; fill it forward from its exact value
            cycle = path[pos[v]:]
            cur = ds_value_lasso((), [g.edges[choice[u]].weight for u in cycle], lam)
            for u in cycle:
                values[u] = cur
                cur = (cur - g.edges[choice[u]].weight) / lam
        for u in reversed(path):
            if values[u] is None:
                e = g.edges[choice[u]]
                values[u] = e.weight + lam * values[e.dst]
    return values  # type: ignore[return-value]


def _improve(
    g: GameGraph,
    lam: Fraction,
    choice: dict[int, int],
    values: Sequence[Fraction],
    vertices: Sequence[int],
    maximize: bool,
) -> bool:
    """Switch every listed vertex to its best one-step lookahead edge;
    returns whether anything strictly improved."""
    changed = False
    for v in vertices:
        best_j = choice[v]
        best = values[v]
        for j in g.out_edges[v]:
            e = g.edges[j]
            cand = e.weight + lam * values[e.dst]
            if (cand > best) if maximize else (cand < best):
                best = cand
                best_j = j
        if best_j != choice[v]:
            choice[v] = best_j
            changed = True
    return changed


def _best_response(
    g: GameGraph,
    lam: Fraction,
    sigma: dict[int, int],
    adam_maximizes: bool,
) -> list[Fraction]:
    """Values under Adam's optimal positional reply to a fixed Eve
    strategy, by policy iteration with exact evaluation."""
    adam_vertices = [v for v in range(g.n) if g.owner[v] is Player.ADAM]
    choice = dict(sigma)
    for v in adam_vertices:
        choice[v] = g.out_edges[v][0]
    while True:
        values = _profile_values(g, lam, choice)
        if not _improve(g, lam, choice, values, adam_vertices, adam_maximizes):
            return values


def _optimal_eve(
    g: GameGraph, lam: Fraction, eve_maximizes: bool
) -> tuple[list[Fraction], dict[int, int]]:
    """Strategy iteration: Eve improves against Adam's exact best response
    (Adam optimizes the opposite direction) until no switch is strict."""
    eve_vertices = [v for v in range(g.n) if g.owner[v] is Player.EVE]
    sigma = {v: g.out_edges[v][0] for v in eve_vertices}
    while True:
        values = _best_response(g, lam, sigma, adam_maximizes=not eve_maximizes)
        if not _improve(g, lam, sigma, values, eve_vertices, eve_maximizes):
            return values, sigma


def ds_optimal_values(g: GameGraph, lam: Fraction) -> DsValueTable:
    """The four per-vertex values, all exact."""
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    minmax_vals, sigma_max = _optimal_eve(g, lam, eve_maximizes=True)
    maxmin_vals, sigma_min = _optimal_eve(g, lam, eve_maximizes=False)
    table = DsValueTable(
        maxmax=tuple(_best_response(g, lam, sigma_max, adam_maximizes=True)),
        minmax=tuple(minmax_vals),
        maxmin=tuple(maxmin_vals),
        minmin=tuple(_best_response(g, lam, sigma_min, adam_maximizes=False)),
    )
    bound = Fraction(max_abs_weight(g)) / (1 - lam)
    for v in range(g.n):
        assert table.minmin[v] <= table.minmax[v] <= table.maxmax[v]
        assert table.minmin[v] <= table.maxmin[v] <= table.maxmax[v]
        assert -bound <= table.minmin[v] and table.maxmax[v] <= bound
    return table


def horizon(g: GameGraph, lam: Fraction, width: Fraction) -> int:
    """Smallest N such that the tail after N+1 more steps fits strictly
    inside any interval or gap of the given width."""
    if width <= 0:
        raise NonpositiveWidth(f"width {width} must be positive")
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    w = max_abs_weight(g)
    if w == 0:
        return 0
    bound = Fraction(2 * w) / (1 - lam)
    n = 0
    tail = lam * bound
    while not tail < width:
        n += 1
        tail *= lam
    return n


def _min_decision_width(iu: IntervalUnion) -> Optional[Fraction]:
    """Minimum over bounded interval widths and bounded gap widths; None
    when there is no bounded piece on either side."""
    widths = []
    for j in iu.intervals:
        w = j.width()
        if not isinstance(w, Infinity):
            widths.append(w)
    for a, b in zip(iu.intervals, iu.intervals[1:]):
        widths.append(b.lo - a.hi)
    return min(widths) if widths else None


def solve_ds_interval(
    g: GameGraph,
    lam: Fraction,
    iu: IntervalUnion,
    extra_depth: int = 0,
) -> Regions:
    """Exact winner for every start vertex.

    Alternating search over (vertex, step, accumulated value) to the
    computed horizon plus `extra_depth`; a node whose whole residual ball
    sits inside one interval (or one gap) is decided immediately.  At the
    stopping depth the residual ball meets at most one interval and the
    four-value check decides the node.  A negative `extra_depth` would stop
    short of the horizon and is rejected.
    """
    if iu.has_singleton_interval or iu.has_singleton_gap:
        raise SingletonNotSupported(
            "singleton intervals unsupported for discounted sum"
        )
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    if extra_depth < 0:
        raise BadParameters(f"horizon slack {extra_depth} must be non-negative")
    n = g.n
    if iu.is_empty:
        return Regions(win_eve=frozenset(), win_adam=frozenset(range(n)))
    w = max_abs_weight(g)
    if w == 0:
        zero_wins = any(j.contains(Fraction(0)) for j in iu.intervals)
        everyone = frozenset(range(n))
        return Regions(
            win_eve=everyone if zero_wins else frozenset(),
            win_adam=frozenset() if zero_wins else everyone,
        )
    width = _min_decision_width(iu)
    depth_stop = (0 if width is None else horizon(g, lam, width)) + 1 + extra_depth
    table = ds_optimal_values(g, lam)
    reach = Fraction(w) / (1 - lam)
    lam_pow = [Fraction(1)]
    for _ in range(depth_stop):
        lam_pow.append(lam_pow[-1] * lam)
    gaps = complement_intervals(iu)

    memo: dict[tuple[int, int, Fraction], bool] = {}

    def ball_verdict(x: Fraction, k: int) -> Optional[bool]:
        radius = lam_pow[k] * reach
        lo, hi = x - radius, x + radius
        for j in iu.intervals:
            if j.contains(lo) and j.contains(hi):
                return True
        for j in gaps.intervals:
            if j.contains(lo) and j.contains(hi):
                return False
        return None

    def endgame(v: int, x: Fraction, k: int) -> bool:
        radius = lam_pow[k] * reach
        lo, hi = x - radius, x + radius
        candidates = [j for j in iu.intervals if j.intersects_closed(lo, hi)]
        if not candidates:
            return False
        assert len(candidates) == 1, "residual ball spans a gap narrower than allowed"
        target = candidates[0]
        lo_max = x + lam_pow[k] * table.minmax[v]
        hi_max = x + lam_pow[k] * table.maxmax[v]
        if target.contains(lo_max) and target.contains(hi_max):
            return True
        lo_min = x + lam_pow[k] * table.minmin[v]
        hi_min = x + lam_pow[k] * table.maxmin[v]
        return target.contains(lo_min) and target.contains(hi_min)

    def wins(v: int, k: int, x: Fraction) -> bool:
        verdict = ball_verdict(x, k)
        if verdict is not None:
            return verdict
        if k == depth_stop:
            return endgame(v, x, k)
        key = (v, k, x)
        cached = memo.get(key)
        if cached is not None:
            return cached
        eve = g.owner[v] is Player.EVE
        result = not eve
        for j in g.out_edges[v]:
            e = g.edges[j]
            child = wins(e.dst, k + 1, x + lam_pow[k] * e.weight)
            if eve and child:
                result = True
                break
            if not eve and not child:
                result = False
                break
        memo[key] = result
        return result

    win_eve = frozenset(v for v in range(n) if wins(v, 0, Fraction(0)))
    regions = Regions(win_eve=win_eve, win_adam=frozenset(range(n)) - win_eve)
    regions.check_partition(n)
    return regions


def subset_sum_to_ds(
    s: SubsetSumInstance, lam: Fraction
) -> tuple[GameGraph, IntervalUnion, Fraction, int]:
    """Chain game whose discounted sum replays the selection sum.

    The intended weight of round i is a_i / lam^(i-1); those are integers
    only when lam = 1/q, so the whole instance (weights and interval
    endpoints) is scaled by p^(n-1) for lam = p/q, which preserves the
    winner because the payoff is linear in the weights.  Returns the game,
    the scaled target interval, the discount factor and the scale used.
    """
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    n = len(s.pairs)
    p, q = lam.numerator, lam.denominator
    scale = p ** (n - 1)
    names = tuple(f"v{i}" for i in range(1, n + 2))
    # round i is Adam's when i is odd
    owner = tuple(
        Player.EVE if i % 2 == 0 else Player.ADAM for i in range(1, n + 1)
    ) + (Player.EVE,)
    edges = []
    for i, (a, b) in enumerate(s.pairs, start=1):
        factor = Fraction(scale) / lam ** (i - 1)
        assert factor.denominator == 1
        for value in (a, b):
            edges.append(Edge(i - 1, i, int(factor) * value))
    edges.append(Edge(n, n, 0))
    g = GameGraph(names=names, owner=owner, edges=tuple(edges), initial=0)
    iu = IntervalUnion(
        (Interval(Fraction(scale * (s.target - 1)), Fraction(scale * (s.target + 1)), True, True),)
    )
    return g, iu, lam, scale
