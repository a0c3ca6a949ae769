"""Total-sum interval games via parity games on one-counter graphs.

The running total of a play is tracked by an integer counter; which
interval (or gap) currently holds it determines a priority, and the
reduced parity game makes Eve assert the region while Adam may demand a
proof through a pumping gadget that ends in a zero test.

Solving the one-counter parity game exactly is out of scope; instead the
counter is clamped to [-B, B] and the finite game is built once.  Escapes
past the clamp count for Adam in a pessimistic run, solved on the whole
game, and for Eve in an optimistic run, solved only outside the
pessimistic Eve region; this yields sound EVE/ADAM verdicts and an honest
UNKNOWN in between.  When the input graph has no positive (negative)
cycle, a play that escapes downward (upward) can never return, so the
escape vertex can be given its true priority and the corresponding
UNKNOWNs disappear; this closes, among others, the whole countdown
family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

from .arena import (
    BadParameters,
    Edge,
    GameError,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    MINUS_INF,
    OneCounterParityGame,
    PLUS_INF,
    Player,
    UnsupportedObjective,
    Verdict,
    fresh_namer,
    max_abs_weight,
)
from .liminf import PriorityMap, integerize, omega_I
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


Config = tuple[int, int]  # (vertex index, counter value)


@dataclass(frozen=True)
class ThreeValuedRegions:
    """Three-valued solution over the explored configurations.

    `verdicts` maps original-game vertex names to the verdict of starting
    there with counter 0 (present only when produced by
    `solve_total_interval`); `initial_verdict` is the verdict of the
    designated initial configuration.
    """

    win_eve: frozenset[Config]
    win_adam: frozenset[Config]
    unknown: frozenset[Config]
    bound: int
    initial_verdict: Verdict
    verdicts: Optional[Mapping[str, Verdict]] = None

    def verdict(self, config: Config) -> Verdict:
        if config in self.win_eve:
            return Verdict.EVE
        if config in self.win_adam:
            return Verdict.ADAM
        return Verdict.UNKNOWN


def assertable_regions(pm: PriorityMap) -> list[int]:
    """Region indices Eve may assert: exactly the image of the priority
    function.  The outermost gaps are empty when the objective is
    unbounded on that side; an empty region has no punish edges, so
    allowing its assertion would hand Eve an unpunishable lie that masks
    the true priority."""
    r = pm.r
    out = []
    for i in range(1, 2 * r + 2):
        m, mx = _region_bounds(pm, i)
        if m == PLUS_INF and mx == MINUS_INF:
            continue
        out.append(i)
    return out


def copy_vertex_index(regions: list[int], v: int, b: int, i: int) -> int:
    """Index of copy (v, b, i) inside the reduced one-counter game; the
    construction lays copies out v-major, b in (1, 0), then i over the
    assertable regions in order."""
    width = len(regions)
    return v * 2 * width + (0 if b == 1 else width) + regions.index(i)


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
    r = pm.r
    regions = assertable_regions(pm)
    bounds = {i: _region_bounds(pm, i) for i in regions}
    if not any(
        isinstance(m, int) or isinstance(mx, int) for m, mx in bounds.values()
    ):
        raise NoFiniteEndpoint("objective has no finite region boundary")

    fresh = fresh_namer(())

    names: list[str] = []
    owner: list[Player] = []
    priority: list[int] = []
    copy_index: dict[tuple[int, int, int], int] = {}
    for v in range(g.n):
        for b in (1, 0):
            for i in regions:
                copy_index[(v, b, i)] = len(names)
                names.append(fresh(f"{g.names[v]}~{b}~{i}"))
                owner.append(g.owner[v] if b == 1 else Player.ADAM)
                priority.append(i)
    top_priority = 2 * r + 1
    edge_vertex: dict[int, int] = {}
    for k in range(len(g.edges)):
        edge_vertex[k] = len(names)
        names.append(fresh(f"e{k}"))
        owner.append(Player.EVE)
        priority.append(top_priority)
    v_zero = len(names)
    names.append(fresh("zero"))
    owner.append(Player.EVE)
    priority.append(2 * r)
    v_bot = len(names)
    names.append(fresh("bot"))
    owner.append(Player.EVE)
    priority.append(top_priority)
    v_top = len(names)
    names.append(fresh("top"))
    owner.append(Player.EVE)
    priority.append(top_priority)

    edges: list[Edge] = []
    for k, e in enumerate(g.edges):
        for i in regions:
            edges.append(Edge(copy_index[(e.src, 1, i)], edge_vertex[k], e.weight))
    for k, e in enumerate(g.edges):
        for i in regions:
            edges.append(Edge(edge_vertex[k], copy_index[(e.dst, 0, i)], 0))
    for v in range(g.n):
        for i in regions:
            m_i, mx_i = bounds[i]
            src = copy_index[(v, 0, i)]
            if isinstance(m_i, int):
                edges.append(Edge(src, v_bot, -m_i))
            if isinstance(mx_i, int):
                edges.append(Edge(src, v_top, -mx_i))
            edges.append(Edge(src, copy_index[(v, 1, i)], 0))
    edges.append(Edge(v_bot, v_bot, -1))
    edges.append(Edge(v_top, v_top, +1))
    edges.append(Edge(v_zero, v_zero, 0))
    zero_edges = (Edge(v_bot, v_zero), Edge(v_top, v_zero))

    return OneCounterParityGame(
        names=tuple(names),
        owner=tuple(owner),
        priority=tuple(priority),
        edges=tuple(edges),
        zero_edges=zero_edges,
        initial=copy_index[(g.initial, 1, omega_I(0, pm))],
    )


def _region_bounds(pm: PriorityMap, i: int):
    """(min, max) integer of the region with priority i; infinite markers
    for unbounded sides, (PLUS_INF, MINUS_INF) when the region is empty
    (only possible for the outermost gaps)."""
    r = len(pm.intervals)
    if i % 2 == 0:
        return pm.intervals[i // 2 - 1]
    if i == 1:
        first_lo = pm.intervals[0][0]
        if isinstance(first_lo, Infinity):
            return PLUS_INF, MINUS_INF
        return MINUS_INF, first_lo - 1
    if i == 2 * r + 1:
        last_hi = pm.intervals[-1][1]
        if isinstance(last_hi, Infinity):
            return PLUS_INF, MINUS_INF
        return last_hi + 1, PLUS_INF
    j = (i - 1) // 2  # gap between intervals j and j+1, both sides finite
    return pm.intervals[j - 1][1] + 1, pm.intervals[j][0] - 1


def _has_cycle_sign(g: GameGraph, sign: int) -> bool:
    """Bellman-Ford style check for a cycle with positive (sign=+1) or
    negative (sign=-1) total weight."""
    n = g.n
    best = [0] * n
    for round_ in range(n):
        changed = False
        for e in g.edges:
            cand = best[e.src] + sign * e.weight
            if cand > best[e.dst]:
                best[e.dst] = cand
                changed = True
        if not changed:
            return False
    return changed


# The clamped game's four sinks, placed before the configurations.  A
# self-loop sink is won by Eve iff its priority is even; LIMBO (Eve's,
# priority 1) takes the unpinned escapes and may move to LIMBO_WIN or
# ADAM_WINS, and the pessimistic run masks LIMBO_WIN out.
EVE_WINS, ADAM_WINS, LIMBO, LIMBO_WIN = range(4)
_SINK_SUCC = ((EVE_WINS,), (ADAM_WINS,), (LIMBO_WIN, ADAM_WINS), (LIMBO_WIN,))
_SINK_PRIORITIES = (0, 1, 1, 0)


def _clamped_game(
    p: OneCounterParityGame,
    bound: int,
    escape_down: Mapping[int, int],
    escape_up: Mapping[int, int],
) -> tuple[Graph, list[Config]]:
    """The finite parity game of `p` with the counter clamped to
    [-bound, bound], and its configurations: configuration k is vertex
    len(_SINK_SUCC) + k.

    Only configurations reachable from counter 0 are materialized; an
    escape goes to the sink its pinned priority wins for, or to LIMBO; a
    configuration whose owner cannot move (zero tests disabled, no counter
    edges) is lost by its owner.
    """
    first = len(_SINK_SUCC)
    configs: list[Config] = [(v, 0) for v in range(p.n)]
    index: dict[Config, int] = {cfg: k for k, cfg in enumerate(configs, first)}
    succ: list[tuple[int, ...]] = list(_SINK_SUCC)
    moves = [tuple((p.edges[j].dst, p.edges[j].weight) for j in out) for out in p.out_edges]
    # zero-test edges are enabled at counter 0 and leave it there
    moves_at_zero = [
        m + tuple((p.zero_edges[j].dst, 0) for j in out) for m, out in zip(moves, p.out_zero)
    ]

    # reachable closure within the clamp, walked in interning order (the
    # list grows as the walk goes)
    for v, c in configs:
        out = []
        for dst, weight in moves_at_zero[v] if c == 0 else moves[v]:
            c2 = c + weight
            if not -bound <= c2 <= bound:
                pin = (escape_down if c2 < -bound else escape_up).get(dst)
                if pin is None:
                    out.append(LIMBO)
                else:
                    out.append(ADAM_WINS if pin % 2 else EVE_WINS)
                continue
            cfg = (dst, c2)
            k = index.get(cfg)
            if k is None:
                k = index[cfg] = first + len(configs)
                configs.append(cfg)
            out.append(k)
        if not out:
            out.append(ADAM_WINS if p.owner[v] is Player.EVE else EVE_WINS)
        succ.append(tuple(out))

    pred: list[list[int]] = [[] for _ in succ]
    for u, out in enumerate(succ):
        for w in out:
            pred[w].append(u)
    game = Graph(
        n=len(succ),
        owner=(Player.EVE,) * first + tuple(p.owner[v] for v, _ in configs),
        priority=_SINK_PRIORITIES + tuple(p.priority[v] for v, _ in configs),
        succ=succ,
        pred=pred,
    )
    return game, configs


def solve_ocpg_bounded(
    p: OneCounterParityGame,
    bound: int,
    escape_down: Optional[Mapping[int, int]] = None,
    escape_up: Optional[Mapping[int, int]] = None,
) -> ThreeValuedRegions:
    """Clamp the counter to [-bound, bound] and build the finite parity
    game once (`_clamped_game`).  It has two readings: pessimistic, where
    unpinned escapes count for Adam (LIMBO_WIN masked out), and
    optimistic, where they count for Eve.  EVE verdicts come from the
    pessimistic reading and ADAM verdicts from the optimistic one, so both
    are sound for the true infinite game; the rest is UNKNOWN.

    The pessimistic run is solved first, and the optimistic run only
    outside its Eve region.  Adam's edges are the same in both readings,
    and LIMBO, the only way into LIMBO_WIN, is Eve's.  So the pessimistic
    Eve region is an Eve dominion of the optimistic game: Adam cannot
    leave it and Eve wins inside it.  Zielonka's Eve region is closed
    under Eve's attractor in the pessimistic game.  The optimistic game
    adds only LIMBO_WIN, whose one successor is itself and whose other
    predecessor, LIMBO, lies outside the region; so the region is its own
    Eve attractor there too.  What remains is a trap for Eve, and its
    regions are the optimistic game's regions there.

    `escape_down`/`escape_up` optionally pin, per escape-target vertex,
    the priority an escaping play is worth in both readings; callers use
    this when they can prove what such a play is worth in the true game.
    """
    if bound < 1:
        raise BadParameters(f"counter bound {bound} must be positive")
    game, configs = _clamped_game(p, bound, escape_down or {}, escape_up or {})
    everything = frozenset(range(game.n))
    pessimistic = solve_parity(game, everything - {LIMBO_WIN})
    optimistic = solve_parity(game, everything - pessimistic.win_eve)

    first = len(_SINK_SUCC)
    win_eve = frozenset(cfg for k, cfg in enumerate(configs, first) if k in pessimistic.win_eve)
    win_adam = frozenset(cfg for k, cfg in enumerate(configs, first) if k in optimistic.win_adam)
    unknown = frozenset(configs) - win_eve - win_adam
    solved = ThreeValuedRegions(
        win_eve=win_eve,
        win_adam=win_adam,
        unknown=unknown,
        bound=bound,
        initial_verdict=Verdict.UNKNOWN,
    )
    return replace(solved, initial_verdict=solved.verdict((p.initial, 0)))


def default_bound(g: GameGraph, iu: IntervalUnion) -> int:
    """max |finite endpoint| + |V| * W + 2: wide enough that an escaping
    play is below (above) every region boundary forever when the graph has
    no positive (negative) cycles, and that the punish gadgets always have
    room to reach their zero test."""
    pm = integerize(iu)
    endpoints = [abs(x) for lo, hi in pm.intervals for x in (lo, hi) if isinstance(x, int)]
    base = max(endpoints, default=0)
    return base + g.n * max_abs_weight(g) + 2


def solve_total_interval(
    g: GameGraph, iu: IntervalUnion, bound: Optional[int] = None
) -> ThreeValuedRegions:
    """Reduce to a one-counter parity game and solve under the clamp.

    When the objective has no integer points at all Adam wins everywhere
    outright (finite totals are integers and infinite totals need an
    unbounded interval), reported without touching the reduction.
    """
    if bound is not None and bound < 1:
        raise BadParameters(f"counter bound {bound} must be positive")
    pm = integerize(iu)
    if pm.is_empty:
        verdicts = {name: Verdict.ADAM for name in g.names}
        return ThreeValuedRegions(
            win_eve=frozenset(),
            win_adam=frozenset((v, 0) for v in range(g.n)),
            unknown=frozenset(),
            bound=bound if bound is not None else 0,
            initial_verdict=Verdict.ADAM,
            verdicts=verdicts,
        )
    ocpg = totalsum_to_ocpg(g, iu)
    safe_bound = default_bound(g, iu)
    b = safe_bound if bound is None else bound
    safe = b >= safe_bound

    r = pm.r
    # the pumping gadget's escapes have known winners: moving away from
    # zero, the pump never reaches its zero test again (top priority is
    # odd), while overshooting into the pump lets Eve ride it back to the
    # test and stop at the winning sink
    v_top, v_bot, v_zero = ocpg.n - 1, ocpg.n - 2, ocpg.n - 3
    escape_down: dict[int, int] = {v_bot: 2 * r + 1, v_top: 2 * r}
    escape_up: dict[int, int] = {v_top: 2 * r + 1, v_bot: 2 * r}
    fabric = [v for v in range(ocpg.n) if v not in (v_top, v_bot, v_zero)]
    if safe and not _has_cycle_sign(g, +1):
        # an escape below the clamp stays below every region boundary
        lo_first = pm.intervals[0][0]
        prio = 2 if isinstance(lo_first, Infinity) else 1
        for v in fabric:
            escape_down[v] = prio
    if safe and not _has_cycle_sign(g, -1):
        hi_last = pm.intervals[-1][1]
        prio = 2 * r if isinstance(hi_last, Infinity) else 2 * r + 1
        for v in fabric:
            escape_up[v] = prio
    solved = solve_ocpg_bounded(ocpg, b, escape_down=escape_down, escape_up=escape_up)

    omega0 = omega_I(0, pm)
    regions = assertable_regions(pm)
    verdicts = {}
    for v in range(g.n):
        start = copy_vertex_index(regions, v, 1, omega0)
        verdicts[g.names[v]] = solved.verdict((start, 0))
    return ThreeValuedRegions(
        win_eve=solved.win_eve,
        win_adam=solved.win_adam,
        unknown=solved.unknown,
        bound=b,
        initial_verdict=verdicts[g.names[g.initial]],
        verdicts=verdicts,
    )


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

    g = GameGraph(
        names=tuple(names), owner=tuple(owner), edges=tuple(edges), initial=v_entry
    )
    iu = IntervalUnion((Interval(Fraction(0), Fraction(0)),))
    return g, iu

