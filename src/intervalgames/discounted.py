"""Discounted-sum interval games without singleton intervals or gaps.

After k steps every continuation payoff lies within lam^k * W/(1 - lam) of
the sum x accumulated so far.  By step K = `decision_depth` that ball is
narrower than every interval and gap, so it holds at most one interval
endpoint, and winning is a threshold question decided exactly by one of
the two optimal game values.  So the winning sets of step K are known, and
the solver walks back from them to step 0 over sets of sums instead of
forwards over the sums themselves.  All arithmetic is exact; there are no
convergence thresholds anywhere.

With lam = p/q, the sum over the first k steps is carried as the integer
X = x*D*q^k, where D is the lcm of the denominators of the finite
endpoints and of the game values: every rational compared at step k has
a denominator dividing D*q^k, and scaling by that one positive number
keeps each comparison what it is on the rationals.  A set of such X is a
bit, whether it holds the X below every flip, and the sorted flips, the
points where membership changes.

The game values come from a strategy iteration that also runs on plain
integers: each value is an unreduced (numerator, positive denominator)
pair, and candidates are compared by cross-multiplying, so no `Fraction`
is built until each vertex's final value is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
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
    check_discount,
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
    """Per-vertex values of the two ordinary discounted games: minmax with
    Eve maximizing, maxmin with Eve minimizing."""

    minmax: tuple[Fraction, ...]
    maxmin: tuple[Fraction, ...]


def _profile_values(
    g: GameGraph, lam: Fraction, choice: Sequence[int]
) -> list[tuple[int, int]]:
    """Value at every vertex when both players follow fixed edge choices,
    as (numerator, positive denominator) pairs of integers, unreduced.

    With lam = p/q, the value at u_j on a cycle u_0 ... u_{L-1} of weights
    w_i is sum_i w_{j+i} p^i q^(L-i) over q^L - p^L (indices mod L), and a
    vertex off the cycle whose chosen edge of weight w leads to a vertex of
    value num/den has (w*q*den + p*num)/(q*den)."""
    p, q = lam.numerator, lam.denominator
    dst, weight = g.dst, g.weight
    values: list[Optional[tuple[int, int]]] = [None] * g.n
    for start in range(g.n):
        if values[start] is not None:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        v = start
        while values[v] is None and v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = dst[choice[v]]
        if values[v] is None:
            # closed a fresh cycle: sum its weights at u_0, then step the
            # numerator forward, num_(j+1) = (num_j - w_j*den)*q/p exactly
            cycle = path[pos[v]:]
            weights = [weight[choice[u]] for u in cycle]
            num = 0
            power = 1
            for w in weights:
                num = num * q + w * power
                power *= p
            den = q ** len(cycle) - power
            num *= q
            for u, w in zip(cycle, weights):
                values[u] = (num, den)
                num = (num - w * den) // p * q
        for u in reversed(path):
            if values[u] is None:
                j = choice[u]
                num, den = values[dst[j]]  # type: ignore[misc]
                values[u] = (weight[j] * q * den + p * num, q * den)
    return values  # type: ignore[return-value]


def _improve(
    g: GameGraph,
    lam: Fraction,
    choice: list[int],
    values: Sequence[tuple[int, int]],
    vertices: Sequence[int],
    maximize: bool,
) -> bool:
    """Switch every listed vertex, all of one player, to its best one-step
    lookahead edge, the largest when `maximize` and the smallest otherwise;
    returns whether anything strictly improved.  Candidates
    w + lam*num/den are compared by cross-multiplying, which keeps the
    order since denominators are positive."""
    p, q = lam.numerator, lam.denominator
    dst, weight = g.dst, g.weight
    changed = False
    for v in vertices:
        best_j = choice[v]
        best_num, best_den = values[v]
        for j in g.out_edges[v]:
            num, den = values[dst[j]]
            num = weight[j] * q * den + p * num
            den *= q
            diff = num * best_den - best_num * den
            if (diff > 0) if maximize else (diff < 0):
                best_num, best_den = num, den
                best_j = j
        if best_j != choice[v]:
            choice[v] = best_j
            changed = True
    return changed


def _minmax(g: GameGraph, lam: Fraction, eve_maximizes: bool) -> list[tuple[int, int]]:
    """Values with Eve maximizing and Adam minimizing, or with the aims
    swapped when not `eve_maximizes`, as `_profile_values` pairs, by
    strategy iteration with exact evaluation (Hoffman & Karp 1966).

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
        if _improve(g, lam, choice, values, adam_vertices, not eve_maximizes):
            continue
        if not _improve(g, lam, choice, values, eve_vertices, eve_maximizes):
            return values


def ds_optimal_values(g: GameGraph, lam: Fraction) -> DsValueTable:
    """Both game values at every vertex, exact; both players have optimal
    positional strategies that attain them.  maxmin, where Eve minimizes
    and Adam maximizes, is the same iteration on `g` with the aims swapped:
    on negated weights every profile pair would be (-num, den), so every
    comparison would flip and each player make the same switches.  Every
    value lies within W/(1 - lam) of 0, which is checked on the integer
    pairs: |num|*(q - p) <= W*q*den."""
    check_discount(lam)
    p, q = lam.numerator, lam.denominator
    scale = max_abs_weight(g) * q
    tables = []
    for eve_maximizes in (True, False):
        pairs = _minmax(g, lam, eve_maximizes)
        for v, (num, den) in enumerate(pairs):
            if abs(num) * (q - p) > scale * den:
                raise AssertionError(f"value at vertex {v} exceeds W/(1 - lam)")
        tables.append(tuple(Fraction(num, den) for num, den in pairs))
    return DsValueTable(minmax=tables[0], maxmin=tables[1])


def horizon(g: GameGraph, lam: Fraction, width: Fraction) -> int:
    """Smallest N such that the tail after N+1 more steps fits strictly
    inside any interval or gap of the given width."""
    if width <= 0:
        raise NonpositiveWidth(f"width {width} must be positive")
    check_discount(lam)
    w = max_abs_weight(g)
    # lam^(n+1) * 2w/(1-lam) < width with lam = p/q, over the integers:
    # 2w * q * p^(n+1) * den(width) < num(width) * (q-p) * q^(n+1)
    p, q = lam.numerator, lam.denominator
    tail = 2 * w * q * p * width.denominator
    scale = width.numerator * (q - p) * q
    n = 0
    while not tail < scale:
        n += 1
        tail *= p
        scale *= q
    return n


def _min_decision_width(iu: IntervalUnion) -> Optional[Fraction]:
    """Minimum over bounded interval widths and bounded gap widths, the
    differences of two finite neighbouring endpoints; None when there is
    no bounded piece on either side."""
    ends = [x for x in iu.endpoints if not isinstance(x, Infinity)]
    return min((b - a for a, b in zip(ends, ends[1:])), default=None)


def decision_depth(g: GameGraph, lam: Fraction, iu: IntervalUnion) -> int:
    """Step by which every node of the game tree has decided: one past the
    horizon of the narrowest bounded interval or gap, or 1 when there is
    none."""
    width = _min_decision_width(iu)
    return (0 if width is None else horizon(g, lam, width)) + 1


def _sweep(
    events: list[tuple[int, int]], count: int, need: int, radius: int
) -> tuple[bool, list[int]]:
    """{X : count(X) >= need} as (bit, flips) on [-radius, radius], where
    count(X) is `count` plus the delta of every (position, delta) event at
    or below X.  Events at or below -radius fold into the bit and those
    above radius are dropped; all events at one position apply before the
    set is read there, so opposite ones cancel."""
    events.sort()
    start = 0
    while start < len(events) and events[start][0] <= -radius:
        count += events[start][1]
        start += 1
    bit = won = count >= need
    flips = []
    for x, group in groupby(events[start:], itemgetter(0)):
        if x > radius:
            break
        for _, delta in group:
            count += delta
        if (count >= need) != won:
            won = not won
            flips.append(x)
    return bit, flips


def solve_ds_interval(g: GameGraph, lam: Fraction, iu: IntervalUnion) -> Regions:
    """Exact winner for every start vertex.

    S(v, k), the set of X from which Eve wins at v after k steps, is read
    off the game values at step K: endpoint t moves membership at
    X = t*D*q^K - D*p^K*val(v), one further when t belongs to the stretch
    below it, with val the maxmin against an upper endpoint and the minmax
    against a lower one.  An edge of weight w leads from X to
    q*(X + D*p^k*w), so a step back maps each flip f of a successor's set to
    ceil(f/q) - D*p^k*w, the least X from which the edge reaches f, and
    merges the successors: union at Eve's vertices, intersection at Adam's.
    Only |X| <= R_k = D*W*q*(q^k - p^k)/(q - p), the sums that k steps
    reach from 0, and the vertices reachable in exactly k steps matter.
    Eve wins from v when S(v, 0) holds 0.
    """
    if iu.has_singleton:
        raise SingletonNotSupported(
            "singleton intervals unsupported for discounted sum"
        )
    check_discount(lam)
    n = g.n
    if iu.is_empty:
        return Regions(win_eve=frozenset(), win_adam=frozenset(range(n)))
    depth = decision_depth(g, lam, iu)
    table = ds_optimal_values(g, lam)
    w = max_abs_weight(g)
    # each finite endpoint t: (t, the values Eve plays against it, is the
    # flip one further, the change in membership there)
    ends = [(j.lo, table.minmax, j.lo_open, 1) for j in iu.intervals]
    ends += [(j.hi, table.maxmin, not j.hi_open, -1) for j in iu.intervals]
    ends = [end for end in ends if not isinstance(end[0], Infinity)]
    values = table.minmax + table.maxmin
    d = math.lcm(*(t.denominator for t, *_ in ends), *(x.denominator for x in values))
    p, q = lam.numerator, lam.denominator
    pk, qk = p**depth, q**depth

    def scaled(x: Fraction) -> int:
        return x.numerator * (d // x.denominator)

    ends = [
        (scaled(t) * qk + further, [pk * scaled(x) for x in val], delta)
        for t, val, further, delta in ends
    ]
    # the vertices reachable in exactly k steps shrink as k grows and
    # repeat within n steps
    dst, weight = g.dst, g.weight
    layers = [list(range(n))]
    while len(layers) <= depth:
        after = sorted({dst[j] for v in layers[-1] for j in g.out_edges[v]})
        if after == layers[-1]:
            break
        layers.append(after)
    layers += [layers[-1]] * (depth + 1 - len(layers))

    radius = d * w * q * (qk - pk) // (q - p)
    below = isinstance(iu.intervals[0].lo, Infinity)
    later = {
        v: _sweep([(t - val[v], delta) for t, val, delta in ends], below, 1, radius)
        for v in layers[depth]
    }
    for k in range(depth - 1, -1, -1):
        pk //= p
        qk //= q
        radius = d * w * q * (qk - pk) // (q - p)
        step = d * pk
        now = {}
        for v in layers[k]:
            events = []
            count = 0
            for j in g.out_edges[v]:
                bit, flips = later[dst[j]]
                shift = step * weight[j]
                count += bit
                sign = -1 if bit else 1
                for f in flips:
                    events.append((-(-f // q) - shift, sign))
                    sign = -sign
            need = 1 if g.owner[v] is Player.EVE else len(g.out_edges[v])
            now[v] = _sweep(events, count, need, radius)
        later = now
    # R_0 = 0, so each set is its bit
    win_eve = frozenset(v for v in range(n) if later[v][0])
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
    check_discount(lam)
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
        factor = p ** (n - i) * q ** (i - 1)  # scale / lam^(i-1)
        for value in (a, b):
            edges.append(Edge(i - 1, i, factor * value))
    edges.append(Edge(n, n, 0))
    g = GameGraph.from_edges(names, owner, edges, 0)
    iu = IntervalUnion(
        (Interval(Fraction(scale * (s.target - 1)), Fraction(scale * (s.target + 1)), True, True),)
    )
    return g, iu, lam, scale
