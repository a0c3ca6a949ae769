"""Mean-payoff threshold and interval solvers.

The threshold problem ("can Eve force the liminf average weight to be at
least a") is solved with an energy-style progress measure after an affine
rescale to integer weights and threshold zero.  Strict comparisons reduce
to non-strict ones because cycle means in a game with n vertices are
rationals with denominator at most n.  The interval solver iterates
threshold calls, peeling off regions Adam wins outright, and recurses on
objectives with fewer finite interval boundaries; a single interval is
the one-piece union.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .arena import (
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    MINUS_INF,
    ParityGame,
    Player,
    Regions,
    UnsupportedObjective,
    complement_intervals,
    fresh_namer,
)
from .parity import attractor_with_strategy


class PriorityOutOfRange(UnsupportedObjective):
    pass


class Cmp(Enum):
    GE = ">="
    GT = ">"
    LE = "<="
    LT = "<"


@dataclass(frozen=True)
class ThresholdQuery:
    threshold: Fraction
    cmp: Cmp


# Positional strategies map owned vertices to a chosen outgoing edge index.
PositionalStrategy = dict[int, int]


def _energy_win(
    g: GameGraph, alive: frozenset[int], player: Player, scale: int, offset: int
) -> tuple[frozenset[int], PositionalStrategy]:
    """Vertices of `alive` from which `player` keeps the running sum of the
    rescaled weights scale*w + offset bounded below while play stays in
    `alive`, which is exactly where she forces mean-payoff >= 0 there;
    also her positional strategy.  Least-fixpoint progress measure, values
    capped at |alive|*W for W the largest rescaled weight inside `alive`."""
    owner = g.owner
    # (edge index, successor, rescaled weight) per alive vertex, in edge order
    succ: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    pred: list[list[int]] = [[] for _ in range(g.n)]
    cap = 0
    for v in alive:
        out = succ[v]
        for j in g.out_edges[v]:
            e = g.edges[j]
            if e.dst in alive:
                w = scale * e.weight + offset
                out.append((j, e.dst, w))
                pred[e.dst].append(v)
                if abs(w) > cap:
                    cap = abs(w)
    cap *= len(alive)
    top = cap + 1
    f = [0] * g.n

    pending = set(alive)
    while pending:
        v = pending.pop()
        out = succ[v]
        if owner[v] is player:
            best = top
            for _, u, w in out:
                fu = f[u]
                val = top if fu >= top else (fu - w if fu > w else 0)
                if val < best:
                    best = val
        else:
            best = 0 if out else top
            for _, u, w in out:
                fu = f[u]
                val = top if fu >= top else (fu - w if fu > w else 0)
                if val > best:
                    best = val
        if best > cap:
            best = top
        if best > f[v]:
            f[v] = best
            for u in pred[v]:
                if f[u] < top:
                    pending.add(u)
    win = frozenset(v for v in alive if f[v] < top)
    strategy: PositionalStrategy = {}
    for v in win:
        if owner[v] is not player:
            continue
        for j, u, w in succ[v]:
            fu = f[u]
            if fu < top and max(0, fu - w) <= f[v]:
                strategy[v] = j
                break
        assert v in strategy, "progress measure without a witnessing edge"
    return win, strategy


def mp_threshold(
    g: GameGraph, query: ThresholdQuery, alive: Optional[frozenset[int]] = None
) -> Regions:
    """Exact partition for "Eve forces MP ~ a" with positional witnesses
    for both players embedded in the result.

    Play is restricted to `alive` (by default every vertex); every vertex
    of `alive` must keep an edge into it.
    """
    alive = frozenset(range(g.n)) if alive is None else alive
    a, cmp = query.threshold, query.cmp
    sign = 1
    if cmp in (Cmp.LE, Cmp.LT):
        # Eve minimizing: negate weights and flip the comparison
        sign, a = -1, -a
    strict = 1 if cmp in (Cmp.GT, Cmp.LT) else 0
    # MP >= p/q  <=>  MP(q*n*w - p*n) >= 0; strict thresholds shift by one
    # unit, valid because cycle means have denominator <= n
    n = len(alive)
    scale, offset = sign * a.denominator * n, a.numerator * n
    win_eve, eve_strategy = _energy_win(g, alive, Player.EVE, scale, -offset - strict)
    # Adam's side: he forces the complementary strict/non-strict threshold
    # on negated weights
    win_adam, adam_strategy = _energy_win(g, alive, Player.ADAM, -scale, offset - 1 + strict)
    regions = Regions(
        win_eve=win_eve,
        win_adam=win_adam,
        eve_strategy=eve_strategy,
        adam_strategy=adam_strategy,
    )
    regions.check_partition(n)
    return regions


def solve_mp_interval(
    g: GameGraph, iu: IntervalUnion, alive: Optional[frozenset[int]] = None
) -> Regions:
    """Winning regions for "mean-payoff lands in the union".

    Peels Adam-winning regions to a fixpoint: Adam wins outright where he
    wins the threshold game just below the union, or the recursive game
    whose objective also admits everything below the first interval.  The
    recursion swaps players and complements when the union is unbounded
    below; it terminates because each step drops one finite boundary.
    `alive` is as in `mp_threshold`.
    """
    alive = frozenset(range(g.n)) if alive is None else alive
    if iu.is_empty:
        return Regions(win_eve=frozenset(), win_adam=alive)
    a = iu.inf
    if a == MINUS_INF:
        dual = solve_mp_interval(g.swap_owners(), complement_intervals(iu), alive)
        regions = Regions(win_eve=dual.win_adam, win_adam=dual.win_eve)
        regions.check_partition(len(alive))
        return regions
    assert isinstance(a, Fraction)
    strict = iu.intervals[0].lo_open  # a in I iff the first interval is closed at a
    recursive_iu = IntervalUnion(
        (Interval(MINUS_INF, a, True, False),) + iu.intervals
    )
    adam_total: frozenset[int] = frozenset()
    while len(adam_total) < len(alive):
        current = alive - adam_total
        query = ThresholdQuery(a, Cmp.GT if strict else Cmp.GE)
        thr = mp_threshold(g, query, current)
        rec = solve_mp_interval(g, recursive_iu, current)
        new = thr.win_adam | rec.win_adam
        if not new:
            break
        # Adam defeats the (prefix independent) objective from every
        # removed vertex, so he also wins wherever he can force the play
        # into the set.  Peeling without this closure is unsound: later
        # rounds solve subgames in which the escape edges no longer exist,
        # so they cannot see that Adam may step into territory he has
        # already won.
        adam_total, _ = attractor_with_strategy(g, adam_total | new, Player.ADAM, alive)
    regions = Regions(win_eve=alive - adam_total, win_adam=adam_total)
    regions.check_partition(len(alive))
    return regions


def parity_to_mp(p: ParityGame) -> tuple[GameGraph, IntervalUnion]:
    """Replace each parity vertex with a three-vertex averaging gadget.

    The target union is [0,1) u [2,3) u ... u [m,m+1) with m the smallest
    even integer >= |V|.  The gadget for a vertex of priority q is
    controlled by Eve iff q is even; its entry and pass-through edges
    weigh q, and the two adjustment loops weigh q+1 and q-1.  Output size
    is exactly 4|V| vertices and |E| + 6|V| edges.
    """
    n_v = p.n
    for q in p.priority:
        if q > n_v:
            raise PriorityOutOfRange(f"priority {q} exceeds the vertex count {n_v}")
    m = n_v if n_v % 2 == 0 else n_v + 1
    intervals = tuple(
        Interval(Fraction(k), Fraction(k + 1), False, True) for k in range(0, m + 1, 2)
    )
    fresh = fresh_namer(p.names)

    names = list(p.names)
    owner = list(p.owner)
    gadget_index: dict[tuple[int, str], int] = {}
    for v in range(n_v):
        gadget_owner = Player.EVE if p.priority[v] % 2 == 0 else Player.ADAM
        for tag in ("0", "+", "-"):
            gadget_index[(v, tag)] = len(names)
            names.append(fresh(f"{p.names[v]}^{tag}"))
            owner.append(gadget_owner)
    edges = []
    for e in p.edges:
        edges.append(Edge(e.src, gadget_index[(e.dst, "0")], p.priority[e.src]))
    for v in range(n_v):
        q = p.priority[v]
        v0, vp, vm = (gadget_index[(v, t)] for t in ("0", "+", "-"))
        edges.append(Edge(v0, vp, q))
        edges.append(Edge(v0, vm, q))
        edges.append(Edge(vp, v, q))
        edges.append(Edge(vm, v, q))
        edges.append(Edge(vp, vp, q + 1))
        edges.append(Edge(vm, vm, q - 1))
    g = GameGraph(
        names=tuple(names),
        owner=tuple(owner),
        edges=tuple(edges),
        initial=p.initial,
    )
    return g, IntervalUnion(intervals)
