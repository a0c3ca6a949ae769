"""Mean-payoff threshold and interval solvers.

The threshold problem ("can Eve force the liminf average weight to be at
least a") is solved with an energy-style progress measure after an affine
rescale to integer weights and threshold zero.  Strict comparisons reduce
to non-strict ones because cycle means in a game with n vertices are
rationals with denominator at most n.  Each threshold solves energy
games in rounds under a growing credit cap: a finite entry of a capped
measure is already a winning certificate for its side.  A round solves
the player's game, closes her certified region under her attractor, and
solves the opponent's game only on the trap left outside it, so the
rounds stop as soon as the two regions cover the vertices, and only a
last round, which always covers, climbs to the exact bound.  The next
round solves only the rest outside both sides' attractors.  The
interval solver iterates threshold calls, peeling off regions the
opponent wins outright, and nests
objectives with fewer finite interval boundaries, swapping the players'
roles at each complement, as mean-payoff games are positionally
determined (Ehrenfeucht & Mycielski 1979).  A single interval is the
one-piece union, and a threshold question such as MP >= a the one-ray
union [a, inf).  A threshold region that is empty already decides its
round, so the next level is solved only under a nonempty one.
"""

from __future__ import annotations

from fractions import Fraction

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
from .parity import _run_frames, attractor


class PriorityOutOfRange(UnsupportedObjective):
    pass


def _energy_credits(
    g: GameGraph,
    alive: frozenset[int],
    player: Player,
    scale: int,
    offset: int,
    _cap_units: int | None = None,
) -> tuple[list[int], int]:
    """(f, top): f[v] is the least initial credit, up to the cap, with
    which `player` keeps the running sum of scale*w + offset non-negative
    from v while play stays in `alive`, or top where no such credit
    suffices.  Entries outside `alive` are 0 and mean nothing.

    f is the least-fixpoint progress measure, with every value above the
    cap lifted to top.  By default the cap is Brim, Chaloupka, Doyen,
    Gentilini & Raskin's bound ("Faster algorithms for mean-payoff games",
    FMSD 2011): M = sum over v in `alive` of max(0, -least rescaled weight
    on v's edges inside `alive`).  Then f is exact.  Once the winner's
    positional strategy is fixed, every reachable cycle is non-negative,
    so cutting the cycles out of a finite prefix of play never raises its
    sum: the prefix sums to at least a simple path, which leaves each
    vertex at most once and so loses at most M.  A credit of M therefore
    suffices from every winning vertex, and a measure above M proves a
    loss.

    `_cap_units` = k lowers the cap to min(M, k*(u + 1)), u the largest
    |rescaled weight| inside `alive`; k >= |alive| gives M.  Under any cap
    the finite entries still form a progress measure: each of the
    player's vertices has an edge to a finite u with f[u] - w <= f[v], and
    every edge of an opponent vertex does.  Keeping to such edges, play
    never lets the running sum fall below -f[v], so `player` wins from
    every finite entry.  A lower cap only turns more entries to top.
    """
    owner, dst, weight = g.owner, g.dst, g.weight
    # (successor, rescaled weight) per alive vertex
    succ: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    # (predecessor, rescaled weight) for every edge inside alive
    pred: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    minimizer = [False] * g.n
    cap = heaviest = deepest = 0
    for v in alive:
        minimizer[v] = owner[v] is player
        out = succ[v]
        least = 0
        for j in g.out_edges[v]:
            u = dst[j]
            if u in alive:
                w = scale * weight[j] + offset
                out.append((u, w))
                pred[u].append((v, w))
                if w < least:
                    least = w
                elif w > heaviest:
                    heaviest = w
        cap -= least
        if least < deepest:
            deepest = least
    if _cap_units is not None:
        cap = min(cap, _cap_units * (max(heaviest, -deepest) + 1))
    # top - w > cap for every weight w, so a successor at top never yields
    # a finite measure and needs no test of its own
    top = cap + heaviest + 1
    f = [0] * g.n

    pending = set(alive)
    while pending:
        v = pending.pop()
        fv = f[v]
        if minimizer[v]:
            # one successor asking for no more than fv shows v does not rise
            best = top
            for u, w in succ[v]:
                d = f[u] - w
                if d < best:
                    best = d
                    if d <= fv:
                        break
        else:
            # past the cap the opponent's choice is top whatever follows
            best = 0
            for u, w in succ[v]:
                d = f[u] - w
                if d > best:
                    best = d
                    if d > cap:
                        break
        if best > fv:
            if best > cap:
                best = top
            f[v] = best
            # only a predecessor whose edge into v now asks for more than
            # its own measure can rise
            for u, w in pred[v]:
                fu = f[u]
                if fu < top and best - w > fu:
                    pending.add(u)
    return f, top


def _threshold(
    g: GameGraph, alive: frozenset[int], player: Player, a: Fraction, strict: bool
) -> frozenset[int]:
    """Where `player` forces MP >= a (MP > a when `strict`) in `alive`.

    Each round solves energy games under one credit cap
    (`_energy_credits`) on the vertices still undecided, `rest`: the first
    at one rescaled weight, each next one four times higher, and the last,
    once the multiple reaches |rest|, at Brim's bound M.  Under any cap a
    finite entry certifies its side: the player's rescaled sums stay
    bounded below, so her mean is at least a (above a, by the one-unit
    shift, when strict), and the opponent's sums on negated weights keep
    the mean below a (at most a when strict).

    A round solves the player's game first and closes her finite region
    under her attractor in `rest`, which gives A; mean-payoff is prefix
    independent, so she wins all of A.  The opponent's game runs only on
    `other` = rest - A, and not at all when that is empty.  `other` is a
    subgame, since a player vertex outside A has no edge into it and an
    opponent vertex outside A keeps an edge outside it, and a trap for
    the player.  So a finite entry of his measure on `other` certifies
    his win in `rest` too: playing by it he never leaves `other`, and the
    player cannot.  The two regions are disjoint, and once A and his
    region cover `rest` they decide it.  At M, A is the player's exact
    region, the opponent wins all of `other`, so the last round always
    covers, and checking the partition of `alive` also checks the strict
    rescaling at run time.

    A round that leaves vertices undecided closes the opponent's region
    under his attractor in `other` and hands the next round the rest.
    Every vertex of the rest keeps an edge into it, and an edge that
    leaves it enters the region of the side that does not own the edge's
    source, so leaving loses and each rest vertex has the same winner in
    the rest as in `alive`.  The rescale keeps n = |alive|, which still
    bounds the rest's cycle lengths."""
    # MP >= p/q  <=>  MP(q*n*w - p*n) >= 0; strict thresholds shift by one
    # unit, valid because cycle means have denominator <= n
    n = len(alive)
    scale, offset = a.denominator * n, a.numerator * n
    won = lost = frozenset()
    rest = alive
    units = 1
    while rest:
        cap_units = None if units >= len(rest) else units
        f, top = _energy_credits(g, rest, player, scale, -offset - strict, cap_units)
        # she also wins wherever she can force play into her region, and
        # the opponent's game runs only on the trap she leaves him
        won_here = attractor(g, (v for v in rest if f[v] < top), player, rest)
        other = rest - won_here
        lost_here = frozenset()
        if other:
            # the opponent forces the complementary strict/non-strict
            # threshold on negated weights
            f, top = _energy_credits(g, other, player.opponent, -scale, offset - 1 + strict, cap_units)
            lost_here = frozenset(v for v in other if f[v] < top)
        if cap_units is None or len(won_here) + len(lost_here) == len(rest):
            won, lost = won | won_here, lost | lost_here
            break
        # the next round solves only the rest, which keeps the winners
        lost_here = attractor(g, lost_here, player.opponent, other)
        won, lost = won | won_here, lost | lost_here
        rest = other - lost_here
        units *= 4
    Regions(win_eve=won, win_adam=lost).check_partition(alive)
    return won


def _nested_objectives(iu: IntervalUnion) -> list[IntervalUnion]:
    """The objectives of the nested fixpoint, outermost first, up to the
    first empty one: a union unbounded below is followed by its
    complement, any other union by (-inf, a] joined to it, a its infimum.
    A complement is bounded below or empty, and a join drops the finite
    boundary a, so the list is finite."""
    nested = []
    while not iu.is_empty:
        nested.append(iu)
        a = iu.inf
        if a == MINUS_INF:
            iu = complement_intervals(iu)
        else:
            iu = IntervalUnion((Interval(MINUS_INF, a, True, False),) + iu.intervals)
    return nested


def _interval_win(
    g: GameGraph, nested: list[IntervalUnion], level: int, alive: frozenset[int], player: Player
):
    """Frame for `_run_frames`: `player`'s region of "mean-payoff lands in
    nested[level]" (empty past the last level) while play stays in
    `alive`, whose vertices must each keep an edge into it.

    Peels the opponent's regions to a fixpoint: the opponent wins
    outright wherever `player` loses the threshold game just below the
    union, or the next level's game, whose objective also admits
    everything below the first interval.  The next level's frame is
    entered only when the threshold region is nonempty: `player`'s region
    is the intersection of the two, so an empty threshold region already
    makes it empty.  A union unbounded below is the opponent's
    complement, the next level.
    """
    if level == len(nested):
        return frozenset()
    iu = nested[level]
    a = iu.inf
    if a == MINUS_INF:
        dual = yield _interval_win(g, nested, level + 1, alive, player.opponent)
        return alive - dual
    assert isinstance(a, Fraction)
    strict = iu.intervals[0].lo_open  # a in I iff the first interval is closed at a
    lost: frozenset[int] = frozenset()
    while len(lost) < len(alive):
        current = alive - lost
        won = _threshold(g, current, player, a, strict)
        if won:
            won &= yield _interval_win(g, nested, level + 1, current, player)
        if won == current:
            break
        # The opponent defeats the (prefix independent) objective from
        # every vertex outside `won`, so also from wherever the play can be
        # forced there.  Peeling without this closure is unsound: later
        # rounds solve subgames in which the escape edges no longer exist,
        # so they cannot see that the opponent may step into territory
        # already won.
        lost = attractor(g, alive - won, player.opponent, alive)
    return alive - lost


def solve_mp_interval(g: GameGraph, iu: IntervalUnion) -> Regions:
    """Winning regions for "mean-payoff lands in the union", solved on `g`
    itself: the nested fixpoint passes along which player wants the union
    and runs one frame per finite boundary on an explicit stack, over
    objectives built once per solve."""
    alive = frozenset(range(g.n))
    nested = _nested_objectives(iu)
    win_eve = _run_frames(_interval_win(g, nested, 0, alive, Player.EVE))
    return Regions(win_eve=win_eve, win_adam=alive - win_eve)


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

    # v's gadget is v^0, v^+, v^- at n_v + 3v, n_v + 3v + 1, n_v + 3v + 2
    names = list(p.names)
    owner = list(p.owner)
    for v in range(n_v):
        gadget_owner = Player.EVE if p.priority[v] % 2 == 0 else Player.ADAM
        for tag in ("0", "+", "-"):
            names.append(fresh(f"{p.names[v]}^{tag}"))
            owner.append(gadget_owner)
    edges = []
    for e in p.edges:
        edges.append(Edge(e.src, n_v + 3 * e.dst, p.priority[e.src]))
    for v in range(n_v):
        q = p.priority[v]
        v0, vp, vm = range(n_v + 3 * v, n_v + 3 * v + 3)
        edges.append(Edge(v0, vp, q))
        edges.append(Edge(v0, vm, q))
        edges.append(Edge(vp, v, q))
        edges.append(Edge(vm, v, q))
        edges.append(Edge(vp, vp, q + 1))
        edges.append(Edge(vm, vm, q - 1))
    g = GameGraph.from_edges(tuple(names), tuple(owner), edges, p.initial)
    return g, IntervalUnion(intervals)
