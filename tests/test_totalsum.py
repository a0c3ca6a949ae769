import itertools
import json
from fractions import Fraction as F

import pytest

from intervalgames.arena import (
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    MINUS_INF,
    MalformedDocument,
    PLUS_INF,
    Payoff,
    Player,
    Verdict,
    contains,
    read_document,
    write_document,
)
from intervalgames.generate import (
    random_countdown,
    random_game,
    random_interval_union,
    zero_cycle_game,
)
from intervalgames.oracle import Lasso, countdown_winner, play_value
from intervalgames.parity import attractor, solve_parity
from intervalgames.totalsum import (
    LIMBO_WIN,
    _SINK_PRIORITIES,
    _SINK_SUCC,
    CountdownInstance,
    NoFiniteEndpoint,
    OneCounterParityGame,
    _clamped_game,
    countdown_to_total,
    solve_ocpg_bounded,
    solve_total_interval,
    totalsum_to_ocpg,
)

from conftest import make_rng, pm_has_finite_endpoint

POINT_ZERO = IntervalUnion((Interval(F(0), F(0)),))


def adam_loop(weight):
    return GameGraph(("a",), (Player.ADAM,), (Edge(0, 0, weight),), 0)


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


def test_reduced_zero_loop_won_by_eve_at_small_bound():
    p = totalsum_to_ocpg(adam_loop(0), POINT_ZERO)
    res = solve_ocpg_bounded(p, 2)
    assert res.verdict((p.initial, 0)) is Verdict.EVE


def test_bounded_solver_all_even_zero_weights():
    p = OneCounterParityGame(
        names=("a", "b"),
        owner=(Player.EVE, Player.ADAM),
        priority=(0, 2),
        edges=(Edge(0, 1, 0), Edge(1, 0, 0)),
        zero_edges=(Edge(0, 0),),
        initial=0,
    )
    for bound in (1, 5):
        res = solve_ocpg_bounded(p, bound)
        assert res.verdict((0, 0)) is Verdict.EVE
        assert not res.unknown


def test_bounded_solver_sinks():
    # u (Eve) steps up to s_e (Eve) or s_a (Adam), whose only exits are
    # zero tests: at counter 1 their owners are stuck and lose
    p = OneCounterParityGame(
        names=("u", "s_e", "s_a"),
        owner=(Player.EVE, Player.EVE, Player.ADAM),
        priority=(2, 2, 2),
        edges=(Edge(0, 1, 1), Edge(0, 2, 1)),
        zero_edges=(Edge(1, 0), Edge(2, 0)),
        initial=0,
    )
    for bound in (1, 3):
        res = solve_ocpg_bounded(p, bound)
        assert res.verdict((1, 1)) is Verdict.ADAM
        assert res.verdict((2, 1)) is Verdict.EVE
        assert res.verdict((0, 0)) is Verdict.EVE
        assert not res.unknown
    # Adam may leave x through the +2 loop, which escapes the clamp at
    # bound 1; a pinned escape goes by its priority's parity, an
    # unpinned one counts for Eve in one run and for Adam in the other
    x = OneCounterParityGame(
        names=("x",),
        owner=(Player.ADAM,),
        priority=(0,),
        edges=(Edge(0, 0, 2),),
        zero_edges=(Edge(0, 0),),
        initial=0,
    )
    cases = [
        ({"escape_up": {0: 3}}, Verdict.ADAM),
        ({"escape_up": {0: 4}}, Verdict.EVE),
        ({}, Verdict.UNKNOWN),
        ({"escape_down": {0: 3}}, Verdict.UNKNOWN),
    ]
    for pins, want in cases:
        assert solve_ocpg_bounded(x, 1, **pins).initial_verdict is want, pins


def random_ocpg(rng):
    n = rng.randint(1, 6)
    edges, zero_edges = [], []
    for v in range(n):
        for _ in range(rng.randint(0, 3)):
            edges.append(Edge(v, rng.randrange(n), rng.randint(-2, 2)))
        if not edges or edges[-1].src != v or rng.random() < 0.3:
            zero_edges.append(Edge(v, rng.randrange(n)))
    return OneCounterParityGame(
        names=tuple(f"v{i}" for i in range(n)),
        owner=tuple(rng.choice((Player.EVE, Player.ADAM)) for _ in range(n)),
        priority=tuple(rng.randint(0, 4) for _ in range(n)),
        edges=tuple(edges),
        zero_edges=tuple(zero_edges),
        initial=rng.randrange(n),
    )


def test_pessimistic_first_equals_two_full_solves():
    # the optimistic run is solved only outside the pessimistic Eve
    # region, which is its own Eve attractor in the whole game; it must
    # agree with solving the whole game
    rng = make_rng(67)
    for _ in range(300):
        p = random_ocpg(rng)
        pins = [{v: rng.randint(0, 4) for v in range(p.n) if rng.random() < 0.3} for _ in range(2)]
        bound = rng.randint(1, 3)
        game, configs = _clamped_game(p, bound, *pins)
        everything = frozenset(range(game.n))
        optimistic = solve_parity(game)
        pessimistic = solve_parity(game, everything - {LIMBO_WIN})
        assert attractor(game, pessimistic.win_eve, Player.EVE) == pessimistic.win_eve
        first = game.n - len(configs)
        win_eve = {cfg for k, cfg in enumerate(configs, first) if k in pessimistic.win_eve}
        win_adam = {cfg for k, cfg in enumerate(configs, first) if k in optimistic.win_adam}
        res = solve_ocpg_bounded(p, bound, *pins)
        assert res.win_eve == win_eve
        assert res.win_adam == win_adam
        assert res.unknown == set(configs) - win_eve - win_adam


def test_clamped_graph_is_well_formed():
    # what reading a document would have checked: a successor at every
    # vertex, indices in range, columns of one length; and the solver
    # relies on pred inverting succ, sinks first, one vertex per config
    rng = make_rng(67)
    for _ in range(300):
        p = random_ocpg(rng)
        pins = [{v: rng.randint(0, 4) for v in range(p.n) if rng.random() < 0.3} for _ in range(2)]
        game, configs = _clamped_game(p, rng.randint(1, 3), *pins)
        first = len(_SINK_SUCC)
        assert game.n == first + len(configs) == len(game.owner) == len(game.priority)
        assert len(game.succ) == len(game.pred) == game.n
        assert all(game.succ)
        assert all(0 <= w < game.n for out in game.succ for w in out)
        assert tuple(game.succ[:first]) == _SINK_SUCC
        assert tuple(game.priority[:first]) == _SINK_PRIORITIES
        assert tuple(game.owner[:first]) == (Player.EVE,) * first
        assert configs[: p.n] == [(v, 0) for v in range(p.n)]
        assert len(set(configs)) == len(configs)
        assert list(game.owner[first:]) == [p.owner[v] for v, _ in configs]
        assert list(game.priority[first:]) == [p.priority[v] for v, _ in configs]
        inverse = sorted((u, w) for u, out in enumerate(game.succ) for w in out)
        assert sorted((u, w) for w, into in enumerate(game.pred) for u in into) == inverse


def test_solve_total_trivial_loops():
    assert solve_total_interval(adam_loop(0), POINT_ZERO).initial_verdict is Verdict.EVE
    assert solve_total_interval(adam_loop(1), POINT_ZERO).initial_verdict is Verdict.ADAM


def test_divergence_follows_unbounded_intervals():
    up = IntervalUnion((Interval(F(0), PLUS_INF, False, True),))
    assert solve_total_interval(adam_loop(1), up).initial_verdict is Verdict.EVE
    assert solve_total_interval(adam_loop(-1), up).initial_verdict is Verdict.ADAM


def test_empty_integer_objective_is_adam_everywhere():
    g = adam_loop(0)
    iu = IntervalUnion((Interval(F(1, 3), F(2, 3)),))
    res = solve_total_interval(g, iu)
    assert res.initial_verdict is Verdict.ADAM
    assert not res.unknown


def test_unbounded_memory_instance_stays_unknown():
    g = GameGraph(
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
    assert res.initial_verdict is Verdict.UNKNOWN


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
    assert solve_total_interval(g, iu).initial_verdict is Verdict.EVE
    cd3 = CountdownInstance(("u",), (Player.EVE,), (Edge(0, 0, -2),), 0, 3)
    g3, iu3 = countdown_to_total(cd3)
    assert solve_total_interval(g3, iu3).initial_verdict is Verdict.ADAM


def test_countdown_agreement_suite():
    rng = make_rng(62)
    for _ in range(100):
        cd = random_countdown(rng, rng.randint(2, 5), rng.randint(1, 20), max_weight=4)
        g, iu = countdown_to_total(cd)
        res = solve_total_interval(g, iu)
        assert res.initial_verdict is not Verdict.UNKNOWN
        direct = countdown_winner(
            cd.owner, [(e.src, e.dst, e.weight) for e in cd.edges], cd.initial, cd.credit
        )
        assert (res.initial_verdict is Verdict.EVE) == direct


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
            for name in g.names:
                was = base.verdicts[name]
                if was is not Verdict.UNKNOWN:
                    assert again.verdicts[name] is was
        done += 1


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
        assert bigger.unknown & base.win_eve == frozenset()
        assert bigger.unknown & base.win_adam == frozenset()
        done += 1


def _positional_total_regions(g, iu):
    """Exact on arenas where the running sum is a function of the vertex:
    enumerate positional pairs and evaluate lasso totals."""
    eve_vs = [v for v in range(g.n) if g.owner[v] is Player.EVE]
    adam_vs = [v for v in range(g.n) if g.owner[v] is Player.ADAM]

    def lasso(choice, start):
        seen, path, v = {}, [], start
        while v not in seen:
            seen[v] = len(path)
            e = g.edges[choice[v]]
            path.append(e)
            v = e.dst
        k = seen[v]
        return Lasso(prefix=tuple(path[:k]), cycle=tuple(path[k:]))

    winners = set()
    for v in range(g.n):
        for sigma in itertools.product(*(g.out_edges[u] for u in eve_vs)):
            ok = True
            for tau in itertools.product(*(g.out_edges[u] for u in adam_vs)):
                choice = dict(zip(eve_vs, sigma)) | dict(zip(adam_vs, tau))
                value = play_value(lasso(choice, v), Payoff.TOTAL_INF)
                if not contains(iu, value):
                    ok = False
                    break
            if ok:
                winners.add(v)
                break
    return winners


def test_zero_cycle_arenas_resolve_exactly():
    rng = make_rng(65)
    done = 0
    while done < 60:
        g = zero_cycle_game(rng, rng.randint(1, 4))
        iu = random_interval_union(rng, 2, 3)
        if not pm_has_finite_endpoint(iu):
            continue
        res = solve_total_interval(g, iu)
        assert all(v is not Verdict.UNKNOWN for v in res.verdicts.values())
        reference = _positional_total_regions(g, iu)
        solved = {v for v in range(g.n) if res.verdicts[g.names[v]] is Verdict.EVE}
        assert solved == reference, (g.edges, iu)
        done += 1


def test_ocpg_document_round_trip():
    rng = make_rng(66)
    g = random_game(rng, 3, max_weight=2)
    p = totalsum_to_ocpg(g, IntervalUnion((Interval(F(0), F(1)),)))
    text = write_document(p)
    again = read_document(text)
    assert again == p


def test_ocpg_document_rejects_untyped_zero_edges():
    p = totalsum_to_ocpg(adam_loop(1), IntervalUnion((Interval(F(0), F(1)),)))
    doc = json.loads(write_document(p))
    doc["zero_edges"] = [5]
    with pytest.raises(MalformedDocument):
        read_document(json.dumps(doc))
