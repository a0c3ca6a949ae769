"""Total-sum interval games via parity games on one-counter graphs.

The running total of a play is tracked by an integer counter; which
interval (or gap) currently holds it determines a priority.  No priority
can read an unbounded counter, so the paper's one-counter parity game
(`totalsum_to_ocpg`, what `reduce --to ocpg` writes) makes Eve assert
the region while Adam may demand a proof through a pumping gadget that
ends in a zero test.

Solving the one-counter parity game exactly is out of scope; instead the
counter is clamped to [-B, B], where it is known, so the solver needs no
assertion: configuration (v, c) of the arena itself has the priority of
the region holding c, and the finite game is built once.  Escapes past
the clamp count for Adam in a pessimistic run, solved on the whole game,
and for Eve in an optimistic run, solved only outside the pessimistic
Eve region; this yields sound EVE/ADAM verdicts and an honest UNKNOWN in
between.

Most escapes have a known worth, settled by energy games on the arena
(Bouyer, Fahrenberg, Larsen, Markey & Srba, FORMATS 2008).  Below every
finite region boundary the counter lies in the lowest region, whose
winner P_down (Adam when the lowest piece is bounded below, Eve
otherwise) wins every play that stays there.  The least credit f_down[v]
with which P_down keeps the running sum from ever rising by more than
f_down[v] from arena vertex v is Brim et al.'s progress measure on
negated weights (`meanpayoff._energy_credits`).  When f_down[v] is finite
and need = E + f_down[v] + 1 <= B, E the largest |finite endpoint|, a
step onto v that takes the counter below -need is pinned to the lowest
region's priority, so v's configurations stop at -need rather than at
-B; escapes above are the mirror image, with P_up, f_up and the weights
as they are, and a vertex with no finite credit on a side keeps the
clamp there.  `solve_total_interval` gives the soundness argument, and
`_pin_bounds` sizes the default clamp from the largest finite credit.
This closes, among others, the whole countdown family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .arena import (
    BadParameters,
    Edge,
    GameError,
    GameGraph,
    Interval,
    IntervalUnion,
    OneCounterParityGame,
    Player,
    Regions,
    UnsupportedObjective,
    fresh_namer,
)
from .liminf import PriorityMap, integerize, omega_I
from .meanpayoff import _energy_credits
from .parity import Graph, solve_parity


class NoFiniteEndpoint(UnsupportedObjective):
    """The region structure has no finite boundary to anchor the counter
    gadget (the objective misses the integers entirely or covers them)."""


@dataclass(frozen=True)
class CountdownInstance:
    """Countdown game: strictly negative weights, initial credit c > 0,
    Eve wins by driving the counter to exactly 0.  The reduction assumes
    the players alternate, so graphs should be bipartite by owner."""

    names: tuple[str, ...]
    owner: tuple[Player, ...]
    edges: tuple[Edge, ...]
    initial: int
    credit: int

    def __post_init__(self):
        if self.credit <= 0:
            raise GameError(f"initial credit {self.credit} must be positive")
        for e in self.edges:
            if e.weight >= 0:
                raise GameError(f"countdown weights must be negative, got {e.weight}")


Config = tuple[int, int]  # (arena vertex index, counter value)


class TotalSolution(NamedTuple):
    """A solved total-sum game: `vertices` holds the verdict of starting
    at each arena vertex with counter 0, read at the clamped game's start
    configurations (v, 0), and `bound` the clamp."""

    vertices: Regions
    bound: int


_SINKS = ("zero", "bot", "top")


def totalsum_to_ocpg(g: GameGraph, iu: IntervalUnion) -> OneCounterParityGame:
    """Region-assertion construction over one graph copy per region.

    Copy (v,1,i) is where the owner of v moves having asserted region i;
    every move passes through an Eve vertex that re-asserts the region,
    then an Adam vertex that may either accept or challenge the assertion
    by moving to a pumping gadget whose zero test resolves the challenge.
    A nonempty region is bounded on every side a counter can err toward,
    so each wrong assertion has its punish edge.
    """
    pm = integerize(iu)
    if pm.is_empty:
        raise NoFiniteEndpoint("objective contains no integers")
    cuts, r = pm.cuts, pm.r
    if not cuts:
        raise NoFiniteEndpoint("objective has no finite region boundary")
    # Eve may assert exactly the image of omega_I.  An empty outer gap has
    # no punish edge, so asserting it would be an unpunishable lie that
    # masks the true priority.
    regions = range(pm.lowest, pm.lowest + len(cuts) + 1)

    n, width = g.n, len(regions)

    def at(u: int, b: int = 1, j: int = 0) -> int:
        # items u < n are the arena's vertices, laid out v-major with
        # 2 * width copies each: b = 1 before b = 0, and j the asserted
        # region's position among the assertable ones; each item after
        # them is one vertex: the edges (u = n + k for edge k), then the
        # sinks `_SINKS`
        if u < n:
            return (2 * u + 1 - b) * width + j
        return (2 * width - 1) * n + u

    # the names are distinct: only a copy's name holds "~", and its
    # suffix "~b~i" fixes b, i and so the arena name before it
    names: list[str] = []
    owner: list[Player] = []
    priority: list[int] = []
    for v in range(n):
        for b in (1, 0):
            for i in regions:
                names.append(f"{g.names[v]}~{b}~{i}")
                owner.append(g.owner[v] if b == 1 else Player.ADAM)
                priority.append(i)
    top_priority = 2 * r + 1
    names += [f"e{k}" for k in range(len(g.src))] + list(_SINKS)
    owner += [Player.EVE] * (len(g.src) + len(_SINKS))
    priority += [top_priority] * len(g.src) + [2 * r, top_priority, top_priority]
    v_zero, v_bot, v_top = (at(n + len(g.src) + k) for k in range(3))

    edges: list[Edge] = []
    for k, (src, weight) in enumerate(zip(g.src, g.weight)):
        for j in range(width):
            edges.append(Edge(at(src, 1, j), at(n + k), weight))
    for k, dst in enumerate(g.dst):
        for j in range(width):
            edges.append(Edge(at(n + k), at(dst, 0, j), 0))
    for v in range(n):
        # region j holds the counters from cuts[j - 1] to cuts[j] - 1
        for j in range(width):
            src = at(v, 0, j)
            if j > 0:
                edges.append(Edge(src, v_bot, -cuts[j - 1]))
            if j < len(cuts):
                edges.append(Edge(src, v_top, 1 - cuts[j]))
            edges.append(Edge(src, at(v, 1, j), 0))
    edges.append(Edge(v_bot, v_bot, -1))
    edges.append(Edge(v_top, v_top, +1))
    edges.append(Edge(v_zero, v_zero, 0))
    zero_edges = (Edge(v_bot, v_zero), Edge(v_top, v_zero))

    return OneCounterParityGame.from_edges(
        names=tuple(names),
        owner=tuple(owner),
        priority=tuple(priority),
        edges=edges,
        zero_edges=zero_edges,
        initial=at(g.initial, 1, omega_I(0, pm) - pm.lowest),
    )


# The clamped game's four sinks, placed before the configurations.  A
# self-loop sink is won by Eve iff its priority is even; LIMBO (Eve's,
# priority 1) takes the unpinned escapes and may move to LIMBO_WIN or
# ADAM_WINS, and the pessimistic run masks LIMBO_WIN out.
EVE_WINS, ADAM_WINS, LIMBO, LIMBO_WIN = range(4)
_SINK_SUCC = ((EVE_WINS,), (ADAM_WINS,), (LIMBO_WIN, ADAM_WINS), (LIMBO_WIN,))
_SINK_PRIORITIES = (0, 1, 1, 0)


def _clamped_game(
    g: GameGraph,
    pm: PriorityMap,
    bound: int,
    down: list[Optional[int]],
    up: list[Optional[int]],
) -> tuple[Graph, list[Config]]:
    """The finite parity game of `g` with the running total clamped to
    [-bound, bound], and its configurations: configuration k is vertex
    len(_SINK_SUCC) + k.

    Configuration (v, c) is owned by v's owner and has priority
    omega_I(c, pm); arena edge (v, dst, w) leads to (dst, c + w).  Only
    configurations reachable from counter 0 are materialized.  Each arena
    vertex has its own window: when `_pin_bounds` gives dst a need
    down[dst] <= bound, a step to (dst, c2) with c2 < -down[dst] escapes
    to the sink the lowest region's priority wins for; otherwise a step
    below -bound escapes to LIMBO.  Escapes above are the mirror image
    with `up`, past up[dst] or bound.
    """
    first = len(_SINK_SUCC)

    def escapes(needs: list[Optional[int]], priority: int) -> list[int]:
        pinned = ADAM_WINS if priority % 2 else EVE_WINS
        return [pinned if need is not None and need <= bound else LIMBO for need in needs]

    below, above = map(escapes, (down, up), _outer_priorities(pm))
    # per arena vertex, the lowest and the highest counter it is kept at
    lows = [-bound if need is None else -min(need, bound) for need in down]
    highs = [bound if need is None else min(need, bound) for need in up]
    dst, weight = g.dst, g.weight
    moves = [tuple((dst[k], weight[k]) for k in out) for out in g.out_edges]
    configs: list[Config] = [(v, 0) for v in range(g.n)]
    index: dict[Config, int] = {cfg: k for k, cfg in enumerate(configs, first)}
    succ: list[tuple[int, ...]] = list(_SINK_SUCC)

    # reachable closure within the clamp, walked in interning order (the
    # list grows as the walk goes)
    for v, c in configs:
        out = []
        for dst, weight in moves[v]:
            c2 = c + weight
            if c2 < lows[dst]:
                out.append(below[dst])
            elif c2 > highs[dst]:
                out.append(above[dst])
            else:
                cfg = (dst, c2)
                k = index.get(cfg)
                if k is None:
                    k = index[cfg] = first + len(configs)
                    configs.append(cfg)
                out.append(k)
        succ.append(tuple(out))

    omega = {c: omega_I(c, pm) for c in {c for _, c in configs}}
    owner = (Player.EVE,) * first + tuple(g.owner[v] for v, _ in configs)
    return Graph.of(owner, _SINK_PRIORITIES + tuple(omega[c] for _, c in configs), succ), configs


def _outer_priorities(pm: PriorityMap) -> tuple[int, int]:
    """Priorities of the lowest and of the highest nonempty region."""
    return pm.lowest, pm.lowest + len(pm.cuts)


def _pin_bounds(
    g: GameGraph, pm: PriorityMap
) -> tuple[list[Optional[int]], list[Optional[int]], int]:
    """Per arena vertex v, the least clamp E + f[v] + 1 at which an escape
    below (first list) or above (second list) onto v is pinned, None where
    no finite credit suffices; and the default clamp, one more than the
    largest of them (E + 2 when all are None), which pins every escape
    onto a vertex with a finite credit, with one to spare.  A finite
    credit is at most Brim et al.'s cap, the sum over the vertices of
    their most negative weight, so the default clamp never exceeds the
    credit-free E + |V| * W + 2.

    The energy games keep `_energy_credits`' default cap, Brim et al.'s
    bound, under which every credit is exact: a lower cap would still pin
    soundly, but would leave more escapes unpinned."""
    reach = max((abs(x) for piece in pm.intervals for x in piece if isinstance(x, int)), default=0)
    alive = frozenset(range(g.n))
    sides = []
    for prio, scale in zip(_outer_priorities(pm), (-1, 1)):
        # the winner of the outermost region on this side; on weights
        # scaled by -1 the running sum never rises by more than f[v], on
        # weights as they are it never falls by more than f[v]
        player = Player.ADAM if prio % 2 else Player.EVE
        f, top = _energy_credits(g, alive, player, scale, 0)
        sides.append([reach + fv + 1 if fv < top else None for fv in f])
    default = max((b for side in sides for b in side if b is not None), default=reach + 1) + 1
    return sides[0], sides[1], default


def solve_total_interval(
    g: GameGraph, iu: IntervalUnion, bound: Optional[int] = None
) -> TotalSolution:
    """Solve each arena vertex with the running total at 0 and clamped to
    [-B, B], B = `_pin_bounds`' default clamp unless `bound` is given.

    When the objective has no integer points at all Adam wins everywhere
    outright (finite totals are integers and infinite totals need an
    unbounded interval), reported without touching the clamp: no
    configuration is explored.

    The game is built once (`_clamped_game`) and read twice: pessimistic,
    where unpinned escapes count for Adam (LIMBO_WIN masked out), and
    optimistic, where they count for Eve.  EVE verdicts come from the
    pessimistic reading and ADAM verdicts from the optimistic one, so both
    are sound for the true infinite game; the rest is UNKNOWN.  Both are
    read at the start configurations (v, 0), `_clamped_game`'s first ones,
    and cannot overlap: the optimistic run is solved only outside the
    pessimistic Eve region, or is the pessimistic run itself.

    The pessimistic run is solved first, and the optimistic run only
    outside its Eve region, and only when LIMBO has a predecessor there.
    Adam's edges are the same in both readings, and LIMBO, the only way
    into LIMBO_WIN, is Eve's.  So the pessimistic Eve region is an Eve
    dominion of the optimistic game: Adam cannot leave it and Eve wins
    inside it.  Zielonka's Eve region is closed under Eve's attractor in
    the pessimistic game.  The optimistic game adds only LIMBO_WIN, whose
    one successor is itself and whose other predecessor, LIMBO, lies
    outside the region; so the region is its own Eve attractor there too.
    What remains is a trap for Eve, and its regions are the optimistic
    game's regions there.

    When no vertex outside the pessimistic Eve region has LIMBO as a
    successor, the optimistic run is skipped.  In that trap no
    configuration can reach LIMBO, so none can reach LIMBO_WIN, the only
    vertex the two readings differ on: every configuration there sees
    the same game in both readings, and the pessimistic reading gives it
    to Adam.  So the optimistic regions on the configurations equal the
    pessimistic ones, and no configuration is UNKNOWN.

    A step onto arena vertex v that takes the counter below -need, where
    need = E + f_down[v] + 1 (`_pin_bounds`), is pinned to the lowest
    region's priority when f_down[v] is finite and need <= B; v's
    configurations then stop at -need, not at -B.  Escapes above
    are the mirror image.  The pin is the true worth of the escape, for
    every B that passes the test.  The escape leaves the counter at
    c <= -need - 1 = -E - f_down[v] - 2, whether or not c < -B.  With
    P_down's energy strategy from v, whatever the opponent does, every
    later total is at most c + f_down[v] <= -E - 2.  Every finite
    boundary is at least -E, so the counter stays strictly below all of
    them: the lowest region holds every later total, its priority is the
    one seen infinitely often, and it is P_down's.  So P_down wins from
    the escape.  A pin at a clamp below the default is sound by the same
    argument; a smaller clamp only leaves more escapes unpinned.
    """
    if bound is not None and bound < 1:
        raise BadParameters(f"counter bound {bound} must be positive")
    pm = integerize(iu)
    if pm.is_empty:
        return TotalSolution(Regions(frozenset(), frozenset(range(g.n))), bound or 0)
    if not pm.cuts:
        raise NoFiniteEndpoint("objective has no finite region boundary")
    down, up, default = _pin_bounds(g, pm)
    b = default if bound is None else bound
    game, _ = _clamped_game(g, pm, b, down, up)
    everything = frozenset(range(game.n))
    pessimistic = solve_parity(game, everything - {LIMBO_WIN})
    if pessimistic.win_adam.isdisjoint(game.pred[LIMBO]):
        optimistic = pessimistic
    else:
        optimistic = solve_parity(game, everything - pessimistic.win_eve)

    first = len(_SINK_SUCC)
    win_eve = frozenset(v for v in range(g.n) if first + v in pessimistic.win_eve)
    win_adam = frozenset(v for v in range(g.n) if first + v in optimistic.win_adam)
    starts = frozenset(range(g.n))
    vertices = Regions(win_eve=win_eve, win_adam=win_adam, unknown=starts - win_eve - win_adam)
    vertices.check_partition(starts)
    return TotalSolution(vertices=vertices, bound=b)


def countdown_to_total(cd: CountdownInstance) -> tuple[GameGraph, IntervalUnion]:
    """Total-sum game in which Eve wins iff she wins the countdown game.

    A fresh entry vertex charges the initial credit, every Eve vertex may
    stop at a zero-weight sink, and every Eve edge gets a twin that takes
    the same step but stops immediately; the objective is the singleton
    {0}.  (A credit-guessing variant for unit weights would add a +1 loop
    on the entry vertex; it is a trivial variant and not provided.)
    """
    fresh = fresh_namer(cd.names)

    names = list(cd.names)
    owner = list(cd.owner)
    v_entry = len(names)
    names.append(fresh("start"))
    owner.append(Player.EVE)
    v_stop = len(names)
    names.append(fresh("stop"))
    owner.append(Player.EVE)

    edges = list(cd.edges)
    for e in cd.edges:
        if cd.owner[e.src] is Player.EVE:
            edges.append(Edge(e.src, v_stop, e.weight))
    for v in range(len(cd.names)):
        if cd.owner[v] is Player.EVE:
            edges.append(Edge(v, v_stop, 0))
    edges.append(Edge(v_entry, cd.initial, cd.credit))
    edges.append(Edge(v_stop, v_stop, 0))

    g = GameGraph.from_edges(tuple(names), tuple(owner), edges, v_entry)
    iu = IntervalUnion((Interval(Fraction(0), Fraction(0)),))
    return g, iu

