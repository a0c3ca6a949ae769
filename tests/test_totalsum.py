import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from intervalgames.arena import (
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    MINUS_INF,
    Objective,
    PLUS_INF,
    Payoff,
    Player,
    Regions,
    UnsupportedObjective,
    Verdict,
    max_abs_weight,
    read_document,
    write_document,
)
from intervalgames.generate import (
    random_countdown,
    random_game,
    random_interval_union,
    zero_cycle_game,
)
from intervalgames.liminf import integerize, omega_I
from intervalgames.oracle import brute_force_positional, countdown_winner
from intervalgames import totalsum
from intervalgames.parity import Graph, attractor, solve_parity
from intervalgames.totalsum import (
    ADAM_WINS,
    EVE_WINS,
    LIMBO,
    LIMBO_WIN,
    _SINK_PRIORITIES,
    _SINK_SUCC,
    CountdownInstance,
    NoFiniteEndpoint,
    _clamped_game,
    _outer_priorities,
    _pin_bounds,
    countdown_to_total,
    solve_total_interval,
    totalsum_to_ocpg,
)

from conftest import make_rng, pm_has_finite_endpoint

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
POINT_ZERO = IntervalUnion((Interval(F(0), F(0)),))


def adam_loop(weight):
    return GameGraph.from_edges(("a",), (Player.ADAM,), (Edge(0, 0, weight),), 0)


def test_reduction_vertex_count_and_zero_edges():
    rng = make_rng(61)
    g = random_game(rng, 3, max_weight=2)
    iu = IntervalUnion((Interval(F(0), F(1)),))
    p = totalsum_to_ocpg(g, iu)
    r = 1
    assert p.n == 2 * g.n * (2 * r + 1) + len(g.edges) + 3
    zero_names = {(p.names[z.src], p.names[z.dst]) for z in p.zero_edges}
    assert zero_names == {("bot", "zero"), ("top", "zero")}


def test_reduction_rejects_no_finite_boundary():
    g = adam_loop(0)
    with pytest.raises(NoFiniteEndpoint):
        totalsum_to_ocpg(g, IntervalUnion((Interval(MINUS_INF, PLUS_INF, True, True),)))
    with pytest.raises(NoFiniteEndpoint):
        totalsum_to_ocpg(g, IntervalUnion(()))


def clamped_reduction(g, iu, bound, windows=True):
    """Vertex verdicts of `totalsum_to_ocpg`'s one-counter game with its
    counter clamped to [-bound, bound], found by name in the reduced game.

    Zero tests are enabled at counter 0, and a configuration whose owner
    cannot move is lost by its owner.  The pumps' escapes are pinned:
    moving away from zero a pump never reaches its zero test again, while
    overshooting into a pump lets Eve ride it back to the test.  An escape
    onto the vertex of edge k is pinned to the outermost region's priority
    on its side when the need of g.edges[k].dst on that side is at most
    the clamp, and goes to LIMBO otherwise.  With `windows`, a pinned
    edge vertex escapes past its own need, as the solver's vertices do;
    without, every vertex escapes past the clamp.  The game is solved
    pessimistically and then optimistically outside the pessimistic Eve
    region."""
    pm = integerize(iu)
    p = totalsum_to_ocpg(g, iu)
    at = {name: u for u, name in enumerate(p.names)}
    top = 2 * pm.r + 1
    pins = ({at["bot"]: top, at["top"]: top - 1}, {at["top"]: top, at["bot"]: top - 1})
    # the last counter below and above at which each vertex is kept
    lows, highs = [-bound] * p.n, [bound] * p.n
    sides = zip(_pin_bounds(g, pm), pins, _outer_priorities(pm), (lows, highs), (-1, 1))
    for need, pin, outer, last, side in sides:
        for k, e in enumerate(g.edges):
            if need[e.dst] is not None and need[e.dst] <= bound:
                pin[at[f"e{k}"]] = outer
                if windows:
                    last[at[f"e{k}"]] = side * need[e.dst]

    first = len(_SINK_SUCC)
    configs = [(u, 0) for u in range(p.n)]
    index = {cfg: k for k, cfg in enumerate(configs, first)}
    succ = list(_SINK_SUCC)
    for u, c in configs:
        moves = [(p.edges[j].dst, p.edges[j].weight) for j in p.out_edges[u]]
        if c == 0:
            moves += [(e.dst, 0) for e in p.zero_edges if e.src == u]
        out = []
        for dst, weight in moves:
            c2 = c + weight
            if not lows[dst] <= c2 <= highs[dst]:
                pin = pins[c2 > 0].get(dst)
                out.append(LIMBO if pin is None else ADAM_WINS if pin % 2 else EVE_WINS)
                continue
            if (dst, c2) not in index:
                index[dst, c2] = first + len(configs)
                configs.append((dst, c2))
            out.append(index[dst, c2])
        succ.append(out or [ADAM_WINS if p.owner[u] is Player.EVE else EVE_WINS])
    pred = [[] for _ in succ]
    for u, out in enumerate(succ):
        for w in out:
            pred[w].append(u)
    game = Graph(
        n=len(succ),
        owner=(Player.EVE,) * first + tuple(p.owner[u] for u, _ in configs),
        priority=_SINK_PRIORITIES + tuple(p.priority[u] for u, _ in configs),
        succ=succ,
        pred=pred,
    )
    everything = frozenset(range(game.n))
    pessimistic = solve_parity(game, everything - {LIMBO_WIN})
    optimistic = solve_parity(game, everything - pessimistic.win_eve)
    start = [index[at[f"{name}~1~{omega_I(0, pm)}"], 0] for name in g.names]
    return Regions(
        win_eve=frozenset(v for v, k in enumerate(start) if k in pessimistic.win_eve),
        win_adam=frozenset(v for v, k in enumerate(start) if k in optimistic.win_adam),
        unknown=frozenset(
            v for v, k in enumerate(start)
            if k not in pessimistic.win_eve and k not in optimistic.win_adam
        ),
    )


def assert_matches_the_clamped_reduction(g, iu):
    # equal to the reduction under the same windows; against the uniform
    # clamp, every verdict the reduction decides is the solver's too
    default = _pin_bounds(g, integerize(iu))[2]
    for bound in range(1, default + 3):
        solved = solve_total_interval(g, iu, bound=bound).vertices
        assert solved == clamped_reduction(g, iu, bound), (g, iu, bound)
        uniform = clamped_reduction(g, iu, bound, windows=False)
        for v in range(g.n):
            want = uniform.verdict(v)
            assert want is Verdict.UNKNOWN or solved.verdict(v) is want, (g, iu, bound, v)


def test_clamped_arena_matches_the_clamped_reduction():
    # the arena's own configurations give the verdicts of the paper's
    # one-counter game under the same clamp and pins, at every clamp
    rng = make_rng(71)
    done = 0
    while done < 300:
        g = random_game(rng, rng.randint(1, 6), max_weight=2)
        iu = random_interval_union(rng, rng.randint(2, 3), 3)
        if integerize(iu).is_empty or not pm_has_finite_endpoint(iu):
            continue
        assert_matches_the_clamped_reduction(g, iu)
        done += 1


def test_clamped_countdown_matches_the_clamped_reduction():
    rng = make_rng(72)
    for _ in range(100):
        cd = random_countdown(rng, rng.randint(2, 5), rng.randint(1, 20), max_weight=4)
        assert_matches_the_clamped_reduction(*countdown_to_total(cd))


def test_reduced_zero_loop_won_by_eve_at_small_bound():
    assert clamped_reduction(adam_loop(0), POINT_ZERO, 2).verdict(0) is Verdict.EVE
    assert solve_total_interval(adam_loop(0), POINT_ZERO, 2).vertices.verdict(0) is Verdict.EVE


def test_bounded_solver_all_even_zero_weights():
    g = GameGraph.from_edges(
        ("a", "b"), (Player.EVE, Player.ADAM), (Edge(0, 1, 0), Edge(1, 0, 0)), 0
    )
    for bound in (1, 5):
        res = solve_total_interval(g, POINT_ZERO, bound)
        assert res.configs == Regions(win_eve=frozenset({(0, 0), (1, 0)}), win_adam=frozenset())


def test_bounded_solver_sinks():
    # Adam may leave x through a loop of weight +-2, which escapes the
    # clamp at bound 1.  A pinned escape goes to the sink its priority's
    # parity wins for: around {0} lie Adam's gaps, above [0, inf) Eve's
    # ray.  With {0, 2} an escape above needs a clamp of E + 0 + 1 = 3, so
    # at bound 1 it goes to LIMBO, for Eve in one run and for Adam in the
    # other
    zero_or_two = IntervalUnion((Interval(F(0), F(0)), Interval(F(2), F(2))))
    cases = [
        (2, POINT_ZERO, ADAM_WINS, Verdict.ADAM),
        (-2, POINT_ZERO, ADAM_WINS, Verdict.ADAM),
        (2, IntervalUnion((Interval(F(0), PLUS_INF, False, True),)), EVE_WINS, Verdict.EVE),
        (2, zero_or_two, LIMBO, Verdict.UNKNOWN),
    ]
    for weight, iu, sink, want in cases:
        x, pm = adam_loop(weight), integerize(iu)
        game, configs = _clamped_game(x, pm, 1, *_pin_bounds(x, pm)[:2])
        assert configs == [(0, 0)] and game.succ[len(_SINK_SUCC)] == (sink,), iu
        assert solve_total_interval(x, iu, bound=1).vertices.verdict(0) is want, iu
    assert solve_total_interval(adam_loop(2), zero_or_two, 3).vertices.verdict(0) is Verdict.ADAM


def random_total_case(rng):
    """An arena, an objective the solver accepts, and its priority map."""
    while True:
        g = random_game(rng, rng.randint(1, 6), max_weight=2)
        iu = random_interval_union(rng, rng.randint(2, 3), 3)
        pm = integerize(iu)
        if not pm.is_empty and pm_has_finite_endpoint(iu):
            return g, iu, pm


def two_full_solves(game, configs):
    """The configurations' Eve region in the pessimistic reading and Adam
    region in the optimistic one, each solved on the whole game."""
    everything = frozenset(range(game.n))
    pessimistic = solve_parity(game, everything - {LIMBO_WIN})
    optimistic = solve_parity(game)
    assert attractor(game, pessimistic.win_eve, Player.EVE, everything) == pessimistic.win_eve
    first = game.n - len(configs)
    win_eve = {cfg for k, cfg in enumerate(configs, first) if k in pessimistic.win_eve}
    win_adam = {cfg for k, cfg in enumerate(configs, first) if k in optimistic.win_adam}
    return win_eve, win_adam


def test_pessimistic_first_equals_two_full_solves():
    # the optimistic run is solved only outside the pessimistic Eve
    # region, which is its own Eve attractor in the whole game, and only
    # when LIMBO has a predecessor there; it must agree with solving the
    # whole game
    rng = make_rng(67)
    for _ in range(300):
        g, iu, pm = random_total_case(rng)
        down, up, default = _pin_bounds(g, pm)
        bound = rng.randint(1, default + 1)
        game, configs = _clamped_game(g, pm, bound, down, up)
        win_eve, win_adam = two_full_solves(game, configs)
        res = solve_total_interval(g, iu, bound).configs
        assert res.win_eve == win_eve
        assert res.win_adam == win_adam
        assert res.unknown == set(configs) - win_eve - win_adam


def test_optimistic_run_only_when_an_escape_is_left_to_chance(monkeypatch):
    # with every escape pinned, LIMBO has no predecessor and one parity
    # solve decides every configuration; an unpinned escape outside the
    # pessimistic Eve region takes the second.  Both give the regions of
    # two full solves
    calls = []

    def counting(game, alive=None):
        calls.append(alive)
        return solve_parity(game, alive)

    monkeypatch.setattr(totalsum, "solve_parity", counting)
    countdown, objective = read_document((CORPUS / "countdown_even.game").read_text())
    zero_or_two = IntervalUnion((Interval(F(0), F(0)), Interval(F(2), F(2))))
    cases = [(countdown, objective.intervals, None, 1), (adam_loop(2), zero_or_two, 1, 2)]
    for g, iu, bound, want in cases:
        calls.clear()
        res = solve_total_interval(g, iu, bound)
        assert len(calls) == want, g.names
        pm = integerize(iu)
        game, configs = _clamped_game(g, pm, res.bound, *_pin_bounds(g, pm)[:2])
        assert bool(game.pred[LIMBO]) == (want == 2)
        assert (res.configs.win_eve, res.configs.win_adam) == two_full_solves(game, configs)


def uniform_clamp(g, iu, bound):
    """Vertex verdicts of the arena's configurations with every vertex
    kept out to the clamp: a step past [-bound, bound] escapes to its
    pinned sink when `_pin_bounds` gives its target a need <= bound on
    that side, and to LIMBO otherwise; both readings solved in full."""
    pm = integerize(iu)
    needs = _pin_bounds(g, pm)[:2]
    pinned = [ADAM_WINS if p % 2 else EVE_WINS for p in _outer_priorities(pm)]
    first = len(_SINK_SUCC)
    configs = [(v, 0) for v in range(g.n)]
    index = {cfg: k for k, cfg in enumerate(configs, first)}
    succ = list(_SINK_SUCC)
    for v, c in configs:
        out = []
        for k in g.out_edges[v]:
            dst, c2 = g.dst[k], c + g.weight[k]
            if abs(c2) > bound:
                need = needs[c2 > 0][dst]
                out.append(pinned[c2 > 0] if need is not None and need <= bound else LIMBO)
                continue
            if (dst, c2) not in index:
                index[dst, c2] = first + len(configs)
                configs.append((dst, c2))
            out.append(index[dst, c2])
        succ.append(out)
    owner = (Player.EVE,) * first + tuple(g.owner[v] for v, _ in configs)
    priority = _SINK_PRIORITIES + tuple(omega_I(c, pm) for _, c in configs)
    win_eve, win_adam = two_full_solves(Graph.of(owner, priority, succ), configs)
    return Regions(
        win_eve=frozenset(v for v, c in win_eve if c == 0),
        win_adam=frozenset(v for v, c in win_adam if c == 0),
        unknown=frozenset(v for v, c in set(configs) - win_eve - win_adam if c == 0),
    )


def test_windows_never_flip_or_lose_a_uniform_clamp_verdict():
    # pinning an escape at its own vertex's need replaces configurations
    # by their true worth, so every verdict the uniform clamp decides is
    # kept, and an UNKNOWN one may become definite
    rng = make_rng(73)
    done = 0
    while done < 1000:
        g = random_game(rng, rng.randint(1, 7), max_weight=rng.randint(1, 3))
        iu = random_interval_union(rng, rng.randint(1, 3), 3)
        pm = integerize(iu)
        if pm.is_empty or not pm_has_finite_endpoint(iu):
            continue
        for bound in (None, 1, 2, 8, 20):
            res = solve_total_interval(g, iu, bound)
            uniform = uniform_clamp(g, iu, res.bound)
            for v in range(g.n):
                want, got = uniform.verdict(v), res.vertices.verdict(v)
                assert want is Verdict.UNKNOWN or got is want, (g, iu, bound, v)
        done += 1


def test_clamped_graph_is_well_formed():
    # what reading a document would have checked: a successor at every
    # vertex, indices in range, columns of one length; and the solver
    # relies on pred inverting succ, sinks first, one vertex per config
    rng = make_rng(67)
    for _ in range(300):
        g, iu, pm = random_total_case(rng)
        down, up, default = _pin_bounds(g, pm)
        bound = rng.randint(1, default + 1)
        game, configs = _clamped_game(g, pm, bound, down, up)
        first = len(_SINK_SUCC)
        assert game.n == first + len(configs) == len(game.owner) == len(game.priority)
        assert len(game.succ) == len(game.pred) == game.n
        assert all(game.succ)
        assert all(0 <= w < game.n for out in game.succ for w in out)
        assert tuple(game.succ[:first]) == _SINK_SUCC
        assert tuple(game.priority[:first]) == _SINK_PRIORITIES
        assert tuple(game.owner[:first]) == (Player.EVE,) * first
        assert configs[: g.n] == [(v, 0) for v in range(g.n)]
        assert len(set(configs)) == len(configs)
        assert all(-bound <= c <= bound for _, c in configs)
        assert list(game.owner[first:]) == [g.owner[v] for v, _ in configs]
        assert list(game.priority[first:]) == [omega_I(c, pm) for _, c in configs]
        inverse = sorted((u, w) for u, out in enumerate(game.succ) for w in out)
        assert sorted((u, w) for w, into in enumerate(game.pred) for u in into) == inverse


def test_solve_total_trivial_loops():
    assert solve_total_interval(adam_loop(0), POINT_ZERO).vertices.verdict(0) is Verdict.EVE
    assert solve_total_interval(adam_loop(1), POINT_ZERO).vertices.verdict(0) is Verdict.ADAM


def test_divergence_follows_unbounded_intervals():
    up = IntervalUnion((Interval(F(0), PLUS_INF, False, True),))
    assert solve_total_interval(adam_loop(1), up).vertices.verdict(0) is Verdict.EVE
    assert solve_total_interval(adam_loop(-1), up).vertices.verdict(0) is Verdict.ADAM


def test_empty_integer_objective_is_adam_everywhere():
    g = adam_loop(0)
    iu = IntervalUnion((Interval(F(1, 3), F(2, 3)),))
    res = solve_total_interval(g, iu)
    assert res.vertices.verdict(g.initial) is Verdict.ADAM
    assert not res.vertices.unknown


def test_objective_without_integers_explores_no_configuration():
    # Adam's win is decided before any one-counter game is built, so no
    # configuration of one exists to report
    g = GameGraph.from_edges(
        ("a", "b"), (Player.EVE, Player.ADAM), (Edge(0, 1, 1), Edge(1, 0, -1)), 1
    )
    res = solve_total_interval(g, IntervalUnion((Interval(F(1, 3), F(2, 3)),)))
    assert res.vertices == Regions(win_eve=frozenset(), win_adam=frozenset({0, 1}))
    assert res.configs == Regions(win_eve=frozenset(), win_adam=frozenset())
    assert res.bound == 0


def test_vertex_verdicts_read_the_builders_start_copies():
    # the verdict of v is that of its configuration at counter 0
    rng = make_rng(68)
    for _ in range(100):
        g, iu, _ = random_total_case(rng)
        res = solve_total_interval(g, iu)
        for v in range(g.n):
            assert res.configs.verdict((v, 0)) is res.vertices.verdict(v), (g, iu, v)


def test_unbounded_memory_instance_stays_unknown():
    g = GameGraph.from_edges(
        names=("q0", "q1", "q2", "qge", "qlt", "q3"),
        owner=(Player.ADAM, Player.ADAM, Player.EVE, Player.ADAM, Player.ADAM, Player.ADAM),
        edges=(
            Edge(0, 0, 1), Edge(0, 1, 0), Edge(1, 1, -1), Edge(1, 2, 0),
            Edge(2, 3, 1), Edge(2, 4, 0), Edge(3, 3, 1), Edge(3, 5, 0),
            Edge(4, 4, -1), Edge(4, 5, 0), Edge(5, 5, 0),
        ),
        initial=0,
    )
    avoid_zero = IntervalUnion(
        (Interval(MINUS_INF, F(0), True, True), Interval(F(0), PLUS_INF, True, True))
    )
    res = solve_total_interval(g, avoid_zero, bound=8)
    assert res.vertices.verdict(g.initial) is Verdict.UNKNOWN


def test_countdown_reduction_structure():
    cd = CountdownInstance(
        names=("u", "w"),
        owner=(Player.EVE, Player.ADAM),
        edges=(Edge(0, 1, -2), Edge(1, 0, -1)),
        initial=0,
        credit=4,
    )
    g, iu = countdown_to_total(cd)
    eve_vertices = sum(1 for o in cd.owner if o is Player.EVE)
    eve_sourced = sum(1 for e in cd.edges if cd.owner[e.src] is Player.EVE)
    assert g.n == len(cd.names) + 2
    assert len(g.edges) == len(cd.edges) + eve_sourced + eve_vertices + 2
    assert iu == POINT_ZERO


def test_countdown_even_and_odd_credit():
    cd = CountdownInstance(("u",), (Player.EVE,), (Edge(0, 0, -2),), 0, 4)
    g, iu = countdown_to_total(cd)
    assert solve_total_interval(g, iu).vertices.verdict(g.initial) is Verdict.EVE
    cd3 = CountdownInstance(("u",), (Player.EVE,), (Edge(0, 0, -2),), 0, 3)
    g3, iu3 = countdown_to_total(cd3)
    assert solve_total_interval(g3, iu3).vertices.verdict(g3.initial) is Verdict.ADAM


def test_countdown_agreement_suite():
    rng = make_rng(62)
    for _ in range(100):
        cd = random_countdown(rng, rng.randint(2, 5), rng.randint(1, 20), max_weight=4)
        g, iu = countdown_to_total(cd)
        verdict = solve_total_interval(g, iu).vertices.verdict(g.initial)
        assert verdict is not Verdict.UNKNOWN
        direct = countdown_winner(
            cd.owner, [(e.src, e.dst, e.weight) for e in cd.edges], cd.initial, cd.credit
        )
        assert (verdict is Verdict.EVE) == direct


def test_verdicts_monotone_under_bound_increase():
    rng = make_rng(63)
    done = 0
    while done < 150:
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        iu = random_interval_union(rng, 2, 2)
        if not pm_has_finite_endpoint(iu):
            continue
        base = solve_total_interval(g, iu)
        for extra in (1, 2, 3, 4):
            again = solve_total_interval(g, iu, bound=base.bound + extra)
            for v in range(g.n):
                was = base.vertices.verdict(v)
                if was is not Verdict.UNKNOWN:
                    assert again.vertices.verdict(v) is was
        done += 1


def test_no_definite_verdict_flips_across_clamps():
    # each pin is sound at its own clamp, so a definite verdict at any
    # clamp, also below the default, is the default's verdict; the
    # credit-sized default never exceeds the credit-free E + |V| * W + 2
    rng = make_rng(69)
    done = 0
    while done < 100:
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        iu = random_interval_union(rng, 2, 2)
        pm = integerize(iu)
        if pm.is_empty or not pm_has_finite_endpoint(iu):
            continue
        base = solve_total_interval(g, iu)
        reach = max(abs(x) for piece in pm.intervals for x in piece if isinstance(x, int))
        assert base.bound == _pin_bounds(g, pm)[2] <= reach + g.n * max_abs_weight(g) + 2
        for b in range(1, base.bound + 4):
            again = solve_total_interval(g, iu, bound=b).vertices
            for v in range(g.n):
                if again.verdict(v) is not Verdict.UNKNOWN:
                    assert again.verdict(v) is base.vertices.verdict(v), (g, iu, b, v)
        done += 1


def test_pinned_escape_decides_despite_cycles_of_both_signs():
    # Eve at a may climb her +1 loop forever, a total of +inf in [1, inf);
    # Adam's -1 loop at c is a negative cycle, so escapes above cannot all
    # be pinned.  Eve holds the sum from a with credit 0, so an escape
    # above onto a is pinned once the clamp reaches E + 0 + 1 = 2
    g = GameGraph.from_edges(
        ("a", "c"),
        (Player.EVE, Player.ADAM),
        (Edge(0, 0, 1), Edge(0, 1, 0), Edge(1, 1, -1), Edge(1, 0, 0)),
        0,
    )
    iu = IntervalUnion((Interval(F(1), PLUS_INF, False, True),))
    res = solve_total_interval(g, iu)
    assert res.vertices == Regions(win_eve=frozenset({0}), win_adam=frozenset({1}))
    reference = brute_force_positional(g, Objective(Payoff.TOTAL_INF, iu))
    assert reference.exact and reference.win_eve == {0}
    assert solve_total_interval(g, iu, bound=1).vertices.verdict(0) is Verdict.UNKNOWN
    assert solve_total_interval(g, iu, bound=2).vertices.verdict(0) is Verdict.EVE


def test_ray_objectives_match_the_positional_oracle():
    # on [a, inf) and (-inf, a] every escape's winner holds the sum from
    # a finite credit or loses the ray outright, so no vertex is UNKNOWN;
    # the oracle is exact on thresholds
    rng = make_rng(70)
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 6), max_weight=2)
        a, closed = F(rng.randint(-3, 3)), rng.random() < 0.5
        if rng.random() < 0.5:
            iu = IntervalUnion((Interval(a, PLUS_INF, not closed, True),))
        else:
            iu = IntervalUnion((Interval(MINUS_INF, a, True, not closed),))
        res = solve_total_interval(g, iu).vertices
        reference = brute_force_positional(g, Objective(Payoff.TOTAL_INF, iu))
        assert reference.exact
        assert not res.unknown, (g, iu)
        assert (res.win_eve, res.win_adam) == (reference.win_eve, reference.win_adam), (g, iu)


def test_unknown_configs_non_increasing_in_bound():
    rng = make_rng(64)
    done = 0
    while done < 60:
        g = random_game(rng, rng.randint(1, 3), max_weight=2)
        iu = random_interval_union(rng, 2, 2)
        if not pm_has_finite_endpoint(iu):
            continue
        base = solve_total_interval(g, iu)
        bigger = solve_total_interval(g, iu, bound=base.bound + 2)
        assert bigger.configs.unknown & base.configs.win_eve == frozenset()
        assert bigger.configs.unknown & base.configs.win_adam == frozenset()
        done += 1


def test_zero_cycle_arenas_resolve_exactly():
    rng = make_rng(65)
    done = 0
    while done < 60:
        g = zero_cycle_game(rng, rng.randint(1, 4))
        iu = random_interval_union(rng, 2, 3)
        if not pm_has_finite_endpoint(iu):
            continue
        res = solve_total_interval(g, iu)
        assert not res.vertices.unknown
        reference = brute_force_positional(g, Objective(Payoff.TOTAL_INF, iu)).win_eve
        assert res.vertices.win_eve == reference, (g.edges, iu)
        done += 1


def test_ocpg_document_round_trip():
    # the one-counter game is written as it is, and no command reads it back
    rng = make_rng(66)
    g = random_game(rng, 3, max_weight=2)
    p = totalsum_to_ocpg(g, IntervalUnion((Interval(F(0), F(1)),)))
    text = write_document(p)
    doc = json.loads(text)
    names = p.names
    assert doc["vertices"] == [
        {"id": name, "owner": owner.value, "priority": prio}
        for name, owner, prio in zip(names, p.owner, p.priority)
    ]
    assert doc["edges"] == [
        {"src": names[e.src], "dst": names[e.dst], "weight": e.weight} for e in p.edges
    ]
    assert doc["zero_edges"] == [{"src": names[z.src], "dst": names[z.dst]} for z in p.zero_edges]
    assert doc["initial"] == names[p.initial]
    assert doc["objective"] == {"payoff": "ocpg"}
    with pytest.raises(UnsupportedObjective, match="one-counter documents"):
        read_document(text)
