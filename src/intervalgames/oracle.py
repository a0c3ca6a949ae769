"""Independent brute-force references for cross-validation.

Nothing here calls into the solver modules; only the arena data model is
shared.  Everything is exact rational and deterministic, and the size
guards are hard errors rather than silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .arena import (
    ExtRational,
    GameError,
    GameGraph,
    Infinity,
    IntervalUnion,
    MINUS_INF,
    PLUS_INF,
    ParityGame,
    Payoff,
    Player,
    Regions,
    UnsupportedObjective,
    check_discount,
    complement_intervals,
    contains,
    max_abs_weight,
)

PAIR_GUARD = 10 ** 6
NODE_GUARD = 2 * 10 ** 6


class TooLarge(GameError):
    """The instance exceeds a brute-force guard."""

    exit_code = 5


def play_value(
    prefix: Sequence[int], cycle: Sequence[int], payoff: Payoff, lam: Optional[Fraction] = None
) -> ExtRational:
    """Exact payoff of the ultimately periodic play whose edges weigh
    `prefix` once and then `cycle` forever."""
    if not cycle:
        raise GameError("lasso cycle must be nonempty")
    if payoff is Payoff.LIMINF:
        return Fraction(min(cycle))
    if payoff is Payoff.LIMSUP:
        return Fraction(max(cycle))
    if payoff in (Payoff.MP_INF, Payoff.MP_SUP):
        # periodic running averages converge, both variants agree
        return Fraction(sum(cycle), len(cycle))
    if payoff is Payoff.DISCOUNTED:
        if lam is None:
            raise GameError("discounted payoff needs a discount factor")
        check_discount(lam)
        # Horner's rule, back to front: one pass of the cycle, repeated
        # forever by the geometric factor, then the prefix
        value = Fraction(0)
        for w in reversed(cycle):
            value = w + lam * value
        value /= 1 - lam ** len(cycle)
        for w in reversed(prefix):
            value = w + lam * value
        return value
    if payoff in (Payoff.TOTAL_INF, Payoff.TOTAL_SUP):
        cycle_sum = sum(cycle)
        if cycle_sum > 0:
            return PLUS_INF
        if cycle_sum < 0:
            return MINUS_INF
        base = sum(prefix)
        running = [base + acc for acc in itertools.accumulate(cycle)]
        if payoff is Payoff.TOTAL_INF:
            return Fraction(min(running))
        return Fraction(max(running))
    raise GameError(f"no play value for payoff {payoff}")


def _lasso_from(choice: Mapping[int, int], g: GameGraph, start: int) -> tuple[list[int], list[int]]:
    """The (prefix, cycle) weights of the play that follows one edge choice
    per vertex from `start` until a vertex repeats."""
    seen: dict[int, int] = {}
    weights = []
    v = start
    while v not in seen:
        seen[v] = len(weights)
        weights.append(g.weight[choice[v]])
        v = g.dst[choice[v]]
    k = seen[v]
    return weights[:k], weights[k:]


def _strategies(game, player: Player) -> Iterator[dict[int, int]]:
    """Each positional strategy of `player` as a map from their vertices to
    the edge chosen there; two players' maps merge into a profile."""
    vertices = [v for v in range(game.n) if game.owner[v] is player]
    for choice in itertools.product(*(game.out_edges[v] for v in vertices)):
        yield dict(zip(vertices, choice))


def _guard_pairs(game) -> None:
    product = 1
    for v in range(game.n):
        product *= len(game.out_edges[v])
        if product > PAIR_GUARD:
            raise TooLarge(
                f"positional strategy space exceeds {PAIR_GUARD} pairs"
            )


@dataclass(frozen=True)
class OracleRegions:
    """Brute-force result.  When `exact` is false the sets come from
    positional play only (the objective may require memory): for a
    mean-payoff union they are lower bounds and may leave vertices
    unclaimed; for a total-sum union they are no bound at all (see
    `brute_force_positional`)."""

    win_eve: frozenset[int]
    win_adam: frozenset[int]
    exact: bool


def _is_threshold(iu: IntervalUnion) -> bool:
    if len(iu.intervals) != 1:
        return False
    j = iu.intervals[0]
    return isinstance(j.lo, Infinity) or isinstance(j.hi, Infinity)


def _pair_enumeration(game: GameGraph, wins_for_eve) -> tuple[frozenset[int], frozenset[int]]:
    """(Eve's set, Adam's set): the vertices from which one positional
    strategy of that player wins against every positional strategy of the
    other.  `wins_for_eve(lasso)` reads one play's (prefix, cycle) weights."""
    n = game.n
    regions = []
    for player, passes in (
        (Player.EVE, wins_for_eve),
        (Player.ADAM, lambda lasso: not wins_for_eve(lasso)),
    ):
        won = set()
        for mine in _strategies(game, player):
            good = set(range(n)) - won
            if not good:
                break
            for theirs in _strategies(game, player.opponent):
                choice = {**mine, **theirs}
                good = {v for v in good if passes(_lasso_from(choice, game, v))}
                if not good:
                    break
            won |= good
        regions.append(frozenset(won))
    return tuple(regions)


def brute_force_positional(
    game: Union[GameGraph, ParityGame],
    objective=None,
) -> OracleRegions:
    """Enumerate positional strategies and evaluate induced lassos.

    A parity game is read once as the arena on its own edges where each
    edge weighs its source's priority: Eve wins a play iff the liminf of
    that weight sequence is even.

    Exact for parity games, liminf/limsup objectives and single-sided
    threshold intervals (positional determinacy holds there).  For other
    mean-payoff unions the per-strategy residual is a one-player game and
    is decided exactly through reachable cycle-mean ranges, so the
    returned sets are sound bounds on the true regions; objectives that
    may require infinite memory keep them strictly smaller.  Other
    total-sum unions get the enumeration itself, which is no bound: each
    set is won against the other player's positional strategies only, so
    where the other player needs memory it may hold vertices that player
    wins.  Adam's vertex with a +1 loop and a 0 edge into a 0 loop is Eve's
    under (-inf, 3) u (3, inf) by enumeration, each positional play
    totalling +inf or 0, yet Adam wins it by looping three times and
    leaving.
    """
    _guard_pairs(game)
    if isinstance(game, ParityGame):
        if objective is not None:
            raise GameError("parity games carry no separate objective")
        weight = tuple(map(game.priority.__getitem__, game.src))
        arena = GameGraph(
            game.names, game.owner, game.src, game.dst, weight, initial=game.initial, checked=True
        )
        eve, adam = _pair_enumeration(
            arena, lambda lasso: play_value(*lasso, Payoff.LIMINF).numerator % 2 == 0
        )
        return _checked(OracleRegions(eve, adam, exact=True), game.n)

    payoff, iu = objective.payoff, objective.intervals
    if payoff is Payoff.DISCOUNTED:
        raise UnsupportedObjective(
            "no positional oracle for discounted payoffs; use the finite-horizon search"
        )
    if payoff in (Payoff.MP_INF, Payoff.MP_SUP) and not _is_threshold(iu):
        result = _mp_union_bounds(game, iu)
    else:
        eve, adam = _pair_enumeration(
            game, lambda lasso: contains(iu, play_value(*lasso, payoff))
        )
        exact = payoff not in (Payoff.TOTAL_INF, Payoff.TOTAL_SUP) or _is_threshold(iu)
        result = OracleRegions(eve, adam, exact=exact)
    return _checked(result, game.n)


def _checked(result: OracleRegions, n: int) -> OracleRegions:
    """`result` once its regions and the vertices neither side claims (none
    when exact) partition the n vertices.  `Regions.check_partition` raises
    explicitly, so the check also runs under `python -O`."""
    everything = frozenset(range(n))
    unclaimed = frozenset() if result.exact else everything - result.win_eve - result.win_adam
    Regions(result.win_eve, result.win_adam, unclaimed).check_partition(everything)
    return result


def _mp_union_bounds(g: GameGraph, iu: IntervalUnion) -> OracleRegions:
    """One side fixes a positional strategy; the remaining one-player game
    achieves every mean in a reachable cycle-mean range, which decides the
    residual exactly even though the full game may need infinite memory.
    The inf and sup variants of the payoff read the same: a play's lower
    and upper limit averages lie in the cycle-mean range of the component
    it ends in, and each value there is the limit average of some play."""

    def residual(chosen: dict[int, int]) -> GameGraph:
        # g's own columns at the kept edges: the chosen one at each fixed
        # vertex and every edge elsewhere
        kept = [j for v in range(g.n) for j in g.out_edges[v] if chosen.get(v, j) == j]
        columns = (tuple(map(c.__getitem__, kept)) for c in (g.src, g.dst, g.weight))
        return GameGraph(g.names, (Player.EVE,) * g.n, *columns, initial=g.initial, checked=True)

    regions = []
    # a fixed strategy wins where the other side, playing the rest alone,
    # cannot reach a mean in its own union
    for player, opposed in ((Player.EVE, complement_intervals(iu)), (Player.ADAM, iu)):
        won = set()
        for fixed in _strategies(g, player):
            reached = one_player_mp_achievable(residual(fixed), opposed)
            won |= {v for v in range(g.n) if not reached[v]}
        regions.append(frozenset(won))
    return OracleRegions(*regions, exact=False)


def _simple_cycle_means(g: GameGraph, comp: Sequence[int]) -> list[Fraction]:
    """The sorted means of the simple cycles inside one vertex set."""
    inside = set(comp)
    means = set()
    for start in sorted(inside):
        # simple paths through vertices >= start only, so each cycle is
        # discovered exactly once from its smallest vertex
        stack = [(start, 0, 0, {start})]
        while stack:
            v, total, length, visited = stack.pop()
            for j in g.out_edges[v]:
                u, w = g.dst[j], g.weight[j]
                if u == start:
                    means.add(Fraction(total + w, length + 1))
                elif u in inside and u > start and u not in visited:
                    stack.append((u, total + w, length + 1, visited | {u}))
    return sorted(means)


def one_player_mp_achievable(g: GameGraph, iu: IntervalUnion) -> list[bool]:
    """Per vertex: can the single controller reach mean-payoff inside the
    union?  Every value in a reachable component's cycle-mean range is
    attainable by mixing its cycles, so the achievable set is the union of
    those closed ranges.  One reflexive-transitive closure (Warshall) gives
    both the components and what each vertex reaches."""
    if g.n > 8:
        raise TooLarge("one-player cycle enumeration is limited to 8 vertices")
    reach = [{v, *g.succ[v]} for v in range(g.n)]
    for k in range(g.n):
        for v in range(g.n):
            if k in reach[v]:
                reach[v] |= reach[k]
    good = set()
    for v in range(g.n):
        comp = [u for u in reach[v] if v in reach[u]]
        if min(comp) < v:
            continue  # the component was read at its least vertex
        means = _simple_cycle_means(g, comp)
        if means and any(j.intersects_closed(means[0], means[-1]) for j in iu.intervals):
            good.update(comp)
    return [not good.isdisjoint(reach[v]) for v in range(g.n)]


def positional_ds_values(g: GameGraph, lam: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """(minmax, maxmin) per vertex, the two discounted game values,
    enumerating each pair of positional strategies once: minmax is the
    best over Eve's strategies of the worst over Adam's (Eve maximizing)
    and maxmin the worst of the best (Eve minimizing)."""
    _guard_pairs(g)
    n = g.n
    taus = list(_strategies(g, Player.ADAM))
    columns = []  # per Eve strategy: the (min, max) over Adam's, per vertex
    for sigma in _strategies(g, Player.EVE):
        lows = highs = None
        for tau in taus:
            choice = {**sigma, **tau}
            row = [play_value(*_lasso_from(choice, g, v), Payoff.DISCOUNTED, lam) for v in range(n)]
            lows = row if lows is None else list(map(min, lows, row))
            highs = row if highs is None else list(map(max, highs, row))
        columns.append((lows, highs))
    minmax = tuple(max(lows[v] for lows, _ in columns) for v in range(n))
    maxmin = tuple(min(highs[v] for _, highs in columns) for v in range(n))
    return minmax, maxmin


def brute_force_finite_horizon_ds(
    g: GameGraph,
    lam: Fraction,
    iu: IntervalUnion,
    depth: int,
) -> frozenset[int]:
    """Reference alternating search: no pruning, no memoization.

    `depth` is the number of edges explored before the endgame check; use
    the horizon plus one to mirror the production solver.  Returns the set
    of vertices Eve wins from.  The endgame values are recomputed here by
    plain enumeration of positional strategy pairs (`positional_ds_values`).
    The node guard counts the trees of all n roots.  The search recurses
    once per step; deeper than the interpreter stack allows, it raises
    `TooLarge` naming the depth.

    The endgame asks if the interval meeting the reach window holds
    x + factor*val(v), val minmax when its lower endpoint is in the window
    and maxmin when not.  From `decision_depth` on the window is narrower
    than any bounded interval or gap, so there that interval is an upward
    ray in the first case and a downward one in the second.  With maxmax
    and minmin Adam's best and worst replies to Eve's strategies attaining
    minmax and maxmin, maxmax >= minmax >= minmin and maxmax >= maxmin >=
    minmin, so asking that minmax and maxmax, or minmin and maxmin, both
    land inside says the same.
    """
    if iu.has_singleton:
        raise UnsupportedObjective("singleton intervals unsupported for discounted sum")
    n = g.n
    if iu.is_empty:
        return frozenset()
    w = max_abs_weight(g)
    if w == 0:
        zero_ok = contains(iu, Fraction(0))
        return frozenset(range(n)) if zero_ok else frozenset()
    branching = max(len(g.out_edges[v]) for v in range(n))
    nodes = 0
    layer = 1
    for _ in range(depth + 1):
        nodes += layer
        if n * nodes > NODE_GUARD:
            raise TooLarge("finite-horizon search exceeds the node guard")
        layer *= branching

    minmax, maxmin = positional_ds_values(g, lam)
    reach = Fraction(w) / (1 - lam)

    def endgame(v: int, x: Fraction, factor: Fraction) -> bool:
        lo, hi = x - factor * reach, x + factor * reach
        target = next((j for j in iu.intervals if j.intersects_closed(lo, hi)), None)
        if target is None:
            return False
        values = minmax if target.lo >= lo else maxmin
        return target.contains(x + factor * values[v])

    def wins(v: int, k: int, x: Fraction, factor: Fraction) -> bool:
        if k == depth:
            return endgame(v, x, factor)
        results = []
        for j in g.out_edges[v]:
            results.append(wins(g.dst[j], k + 1, x + factor * g.weight[j], factor * lam))
        return any(results) if g.owner[v] is Player.EVE else all(results)

    try:
        return frozenset(v for v in range(n) if wins(v, 0, Fraction(0), Fraction(1)))
    except RecursionError:
        raise TooLarge(
            f"finite-horizon search of depth {depth} exceeds the interpreter stack"
        ) from None
    finally:
        wins = None  # it reaches itself through its closure cell


def check_ds_values(g: GameGraph, lam: Fraction, table) -> bool:
    """Whether `table`, a (minmax, maxmin) pair, holds the two discounted
    game values of `g`, with Eve maximizing and with Eve minimizing.

    Each table must solve its one-step optimality equations exactly:
    val(v) is the largest of w + lam*val(dst) over v's edges where the
    maximizer moves and the smallest where the minimizer does.  That
    one-step operator is a lam-contraction in the sup norm, so each system
    has exactly one solution, the game value (Shapley 1953), and a table
    that passes is certified whatever computed it.
    """
    check_discount(lam)
    for values, eve_maximizes in zip(table, (True, False)):
        if len(values) != g.n:
            return False
        for v in range(g.n):
            steps = [g.weight[j] + lam * values[g.dst[j]] for j in g.out_edges[v]]
            maximizes = (g.owner[v] is Player.EVE) == eve_maximizes
            if values[v] != (max(steps) if maximizes else min(steps)):
                return False
    return True


# ---------------------------------------------------------------------------
# direct searches for the generator families

def subset_sum_winner(target: int, pairs: Sequence[tuple[int, int]]) -> bool:
    """Eve wins the alternating selection game iff the chosen sum can be
    forced to equal the target (Adam moves on odd rounds)."""

    def eve_wins(i: int, acc: int) -> bool:
        if i == len(pairs):
            return acc == target
        options = [eve_wins(i + 1, acc + x) for x in pairs[i]]
        # rounds are 1-based, so index i is Adam's turn when i is even
        if (i + 1) % 2 == 1:
            return all(options)
        return any(options)

    return eve_wins(0, 0)


def countdown_winner(
    owner: Sequence[Player],
    edges: Sequence[tuple[int, int, int]],
    initial: int,
    credit: int,
) -> bool:
    """Direct countdown search: a move landing the counter exactly on 0
    wins for Eve; overshooting makes the branch hopeless."""
    succ: dict[int, list[tuple[int, int]]] = {}
    for src, dst, weight in edges:
        succ.setdefault(src, []).append((dst, weight))
    memo: dict[tuple[int, int], bool] = {}

    def eve_wins(v: int, k: int) -> bool:
        # k strictly decreases along every edge, so the recursion is finite
        key = (v, k)
        if key in memo:
            return memo[key]
        outcomes = []
        for dst, weight in succ.get(v, []):
            k2 = k + weight
            if k2 == 0:
                outcomes.append(True)
            elif k2 < 0:
                outcomes.append(False)
            else:
                outcomes.append(eve_wins(dst, k2))
        result = any(outcomes) if owner[v] is Player.EVE else all(outcomes)
        memo[key] = result
        return result

    return eve_wins(initial, credit)
