"""Discounted-sum interval games without singleton intervals or gaps.

An alternating search walks (vertex, step k, accumulated sum x); every
continuation payoff lies within lam^k * W / (1 - lam) of x.  When that ball
holds at most one interval endpoint, winning is a threshold question there,
decided exactly by one of the two optimal game values.  After finitely many
steps the ball is narrower than every interval and gap, so every node
decides.  All arithmetic is rational; there are no convergence thresholds
anywhere.

The game values are `Fraction`s.  The search carries x as the integer
X = x*D*q^k, where lam = p/q, k is the step and D is the lcm of the
denominators of the finite endpoints, of the reach W/(1 - lam) and of the
game values: every rational it compares at step k then has a denominator
dividing D*q^k, and scaling by that one positive number keeps the ball
test, the decision and the memo key what they are on the rationals.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arena import (
    Edge,
    GameError,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    Player,
    Regions,
    UnsupportedObjective,
    contains,
    max_abs_weight,
)


class SingletonNotSupported(UnsupportedObjective):
    """Singleton intervals (and singleton gaps) make the problem an exact
    value question, which this solver does not attempt."""


class NonpositiveWidth(GameError):
    pass


class SearchTooDeep(GameError):
    """The alternating search recursed deeper than the interpreter stack
    allows before every node decided."""

    exit_code = 5


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
    """Per-vertex values of the two ordinary discounted games: minmax with
    Eve maximizing, maxmin with Eve minimizing."""

    minmax: tuple[Fraction, ...]
    maxmin: tuple[Fraction, ...]


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


def _profile_values(g: GameGraph, lam: Fraction, choice: Sequence[int]) -> list[Fraction]:
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
    choice: list[int],
    values: Sequence[Fraction],
    vertices: Sequence[int],
) -> bool:
    """Switch every listed vertex to its best one-step lookahead edge, the
    largest for Eve and the smallest for Adam; returns whether anything
    strictly improved."""
    changed = False
    for v in vertices:
        eve = g.owner[v] is Player.EVE
        best_j = choice[v]
        best = values[v]
        for j in g.out_edges[v]:
            e = g.edges[j]
            cand = e.weight + lam * values[e.dst]
            if (cand > best) if eve else (cand < best):
                best = cand
                best_j = j
        if best_j != choice[v]:
            choice[v] = best_j
            changed = True
    return changed


def _minmax(g: GameGraph, lam: Fraction) -> list[Fraction]:
    """Values with Eve maximizing and Adam minimizing, by strategy iteration
    with exact evaluation (Hoffman & Karp 1966).

    One edge choice per vertex serves both players.  Adam improves to his
    best reply to Eve's choices, starting from his previous reply (policy
    iteration finds the best reply from any start), and then Eve switches
    against it, until she makes no strict switch.  The game has one value
    (Zwick & Paterson 1996), so the order of switches does not change the
    result."""
    eve_vertices = [v for v in range(g.n) if g.owner[v] is Player.EVE]
    adam_vertices = [v for v in range(g.n) if g.owner[v] is Player.ADAM]
    choice = [edges[0] for edges in g.out_edges]
    while True:
        values = _profile_values(g, lam, choice)
        if _improve(g, lam, choice, values, adam_vertices):
            continue
        if not _improve(g, lam, choice, values, eve_vertices):
            return values


def ds_optimal_values(g: GameGraph, lam: Fraction) -> DsValueTable:
    """Both game values at every vertex, exact; both players have optimal
    positional strategies that attain them.  maxmin, where Eve minimizes
    and Adam maximizes, is minus the minmax of the game with negated
    weights."""
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    table = DsValueTable(
        minmax=tuple(_minmax(g, lam)),
        maxmin=tuple(-x for x in _minmax(g.negate_weights(), lam)),
    )
    bound = Fraction(max_abs_weight(g)) / (1 - lam)
    for v in range(g.n):
        assert -bound <= table.minmax[v] <= bound
        assert -bound <= table.maxmin[v] <= bound
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


def decision_depth(g: GameGraph, lam: Fraction, iu: IntervalUnion) -> int:
    """Step by which every search node has decided: one past the horizon
    of the narrowest bounded interval or gap, or 1 when there is none."""
    width = _min_decision_width(iu)
    return (0 if width is None else horizon(g, lam, width)) + 1


def solve_ds_interval(g: GameGraph, lam: Fraction, iu: IntervalUnion) -> Regions:
    """Exact winner for every start vertex.

    Alternating search over (vertex, step, accumulated value).  A node whose
    residual ball holds at most one finite interval endpoint is decided by
    one game value: maxmin when that endpoint closes an interval, minmax
    otherwise.  At `decision_depth` the ball is narrower than every
    interval and gap, so every node has decided by then.

    With lam = p/q, the sum x accumulated over the first k steps has a
    denominator dividing q^k, and every endpoint, the reach W/(1-lam) and
    every game value has one dividing D, the lcm of their denominators.
    So the search carries the integer X = x*D*q^k; an edge of weight w
    leads to q*(X + D*p^k*w).  At a fixed depth k, multiplying by the
    positive constant D*q^k preserves order and equality, so the ball test
    (endpoints scaled by D*q^k, radius D*reach*p^k), the decision
    (X + D*p^k*value against the scaled endpoints) and the memo key
    (v, k, X) all give what they give on the rationals, with no rounding.
    """
    if iu.has_singleton_interval or iu.has_singleton_gap:
        raise SingletonNotSupported(
            "singleton intervals unsupported for discounted sum"
        )
    if not 0 < lam < 1:
        raise GameError(f"discount factor {lam} not in (0,1)")
    n = g.n
    if iu.is_empty:
        return Regions(win_eve=frozenset(), win_adam=frozenset(range(n)))
    depth_stop = decision_depth(g, lam, iu)
    table = ds_optimal_values(g, lam)
    reach = Fraction(max_abs_weight(g)) / (1 - lam)
    # finite endpoints in increasing order; a canonical union without
    # singletons or singleton gaps repeats none of them
    ends = [t for j in iu.intervals for t in (j.lo, j.hi) if not isinstance(t, Infinity)]
    # at[i]: is ends[i] in the union; inside[i]: is the open stretch just
    # below ends[i] (inside[len(ends)]: above the last one) in it.  So
    # ends[i] closes an interval exactly when inside[i] holds.
    at = [contains(iu, t) for t in ends]
    probes = [Fraction(0)]
    if ends:
        probes = [ends[0] - 1, *((a + b) / 2 for a, b in zip(ends, ends[1:])), ends[-1] + 1]
    inside = [contains(iu, t) for t in probes]
    d = math.lcm(
        reach.denominator,
        *(t.denominator for t in ends),
        *(x.denominator for x in table.minmax + table.maxmin),
    )
    p, q = lam.numerator, lam.denominator
    scaled_ends = [int(t * d) for t in ends]
    scaled_reach = int(reach * d)
    scaled_minmax = [int(x * d) for x in table.minmax]
    scaled_maxmin = [int(x * d) for x in table.maxmin]
    # per step k: p^k, D*p^k, the radius D*reach*p^k and the endpoints
    # scaled by D*q^k; filled as the search first reaches each step.  The
    # x passed around below is the scaled sum X.
    levels = [(1, d, scaled_reach, scaled_ends)]

    def decide(v: int, k: int, x: int) -> Optional[bool]:
        pk, _, radius, scaled = levels[k]
        first = bisect_left(scaled, x - radius)
        last = bisect_right(scaled, x + radius)
        if last == first:
            # no endpoint in the ball: every payoff from here is on one side
            return inside[first]
        if last - first > 1:
            return None
        # the payoff lies in the ball, so it sits below, on or above the
        # one endpoint there
        if inside[first]:
            y = x + pk * scaled_maxmin[v]
        else:
            y = x + pk * scaled_minmax[v]
        e = scaled[first]
        if y == e:
            return at[first]
        return inside[first] if y < e else inside[first + 1]

    memo: dict[tuple[int, int, int], bool] = {}
    deepest = 0

    def wins(v: int, k: int, x: int) -> bool:
        nonlocal deepest
        verdict = decide(v, k, x)
        if verdict is not None:
            return verdict
        assert k < depth_stop, "residual ball spans a gap narrower than allowed"
        if k > deepest:
            deepest = k
        if k + 1 == len(levels):
            pk = levels[k][0] * p
            qk = q ** (k + 1)
            levels.append((pk, d * pk, scaled_reach * pk, [t * qk for t in scaled_ends]))
        key = (v, k, x)
        cached = memo.get(key)
        if cached is not None:
            return cached
        eve = g.owner[v] is Player.EVE
        result = not eve
        step = levels[k][1]
        for j in g.out_edges[v]:
            e = g.edges[j]
            child = wins(e.dst, k + 1, q * (x + step * e.weight))
            if eve and child:
                result = True
                break
            if not eve and not child:
                result = False
                break
        memo[key] = result
        return result

    try:
        win_eve = frozenset(v for v in range(n) if wins(v, 0, 0))
    except RecursionError:
        raise SearchTooDeep(
            f"discounted search reached depth {deepest} of {depth_stop} "
            "and exceeded the interpreter stack"
        ) from None
    finally:
        # wins reaches itself through its closure cell; breaking that cycle
        # frees the memo on return instead of at the next cyclic collection
        wins = None
    everything = frozenset(range(n))
    regions = Regions(win_eve=win_eve, win_adam=everything - win_eve)
    regions.check_partition(everything)
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
