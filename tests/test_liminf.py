from fractions import Fraction as F

import pytest

from intervalgames.arena import (
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    Objective,
    PLUS_INF,
    Payoff,
    Player,
    contains,
)
from intervalgames.generate import random_game, random_interval_union, random_parity_game
from intervalgames.liminf import (
    EmptyObjective,
    PriorityMap,
    integerize,
    liminf_to_parity,
    omega_I,
    parity_to_liminf,
    solve_liminf,
)
from intervalgames.oracle import Lasso, brute_force_positional, play_value
from intervalgames.parity import ParityGame, solve_parity

from conftest import make_rng


def test_integerize_rounds_open_endpoints_inward():
    pm = integerize(IntervalUnion((Interval(F(0), F(5, 2), True, True),)))
    assert pm.intervals == ((1, 2),)


def test_integerize_identity_on_closed_integer_intervals():
    iu = IntervalUnion((Interval(F(2), F(3)), Interval(F(5), F(7))))
    pm = integerize(iu)
    assert pm.intervals == ((2, 3), (5, 7))
    assert pm.r == 2


def test_integerize_empty():
    iu = IntervalUnion(
        (Interval(F(0), F(1), True, True), Interval(F(1), F(2), True, True))
    )
    assert integerize(iu).is_empty


def test_integerize_merges_touching_runs():
    iu = IntervalUnion((Interval(F(0), F(2, 5)), Interval(F(3, 5), F(1))))
    assert integerize(iu).intervals == ((0, 1),)


def test_omega_examples():
    pm = PriorityMap(((2, 3), (5, 7)))
    assert [omega_I(n, pm) for n in (1, 2, 4, 6, 8)] == [1, 2, 3, 4, 5]
    pm0 = PriorityMap(((0, 0),))
    assert [omega_I(n, pm0) for n in (0, -1, 1)] == [2, 1, 3]
    with pytest.raises(EmptyObjective):
        omega_I(0, PriorityMap(()))


def _staircase_reference(n, pm):
    # direct three-case transcription, kept separate from the implementation
    for i, (lo, hi) in enumerate(pm.intervals, start=1):
        if lo <= n <= hi:
            return 2 * i
    if n < pm.intervals[0][0]:
        return 1
    return max(1 + 2 * i for i, (_, hi) in enumerate(pm.intervals, start=1) if hi < n)


def test_omega_monotone_staircase():
    pm = PriorityMap(((-7, -5), (-1, 2), (6, 9)))
    values = [omega_I(n, pm) for n in range(-20, 21)]
    assert values == sorted(values)
    assert values == [_staircase_reference(n, pm) for n in range(-20, 21)]


def test_reduction_shape_and_forced_win():
    g = GameGraph(("v",), (Player.EVE,), (Edge(0, 0, 0),), 0)
    iu = IntervalUnion((Interval(F(0), F(0)),))
    p = liminf_to_parity(g, iu)
    assert p.n == g.n + len(g.edges)
    assert sorted(p.priority) == [2, 3]
    solved = solve_parity(p)
    assert solved.win_eve == frozenset({0, 1})


def test_adam_picks_low_loop():
    g = GameGraph(("v",), (Player.ADAM,), (Edge(0, 0, 1), Edge(0, 0, 2)), 0)
    res = solve_liminf(g, IntervalUnion((Interval(F(2), F(2)),)))
    assert res.win_adam == frozenset({0})
    res2 = solve_liminf(g, IntervalUnion((Interval(F(1), F(2)),)))
    assert res2.win_eve == frozenset({0})


def test_empty_integer_objective_reports_adam_everywhere():
    g = GameGraph(("v",), (Player.EVE,), (Edge(0, 0, 0),), 0)
    iu = IntervalUnion((Interval(F(1, 3), F(2, 3)),))
    res = solve_liminf(g, iu)
    assert res.win_adam == frozenset({0})
    assert res.adam_strategy == {}  # no Adam vertices to instruct


def test_winner_equality_on_random_games():
    rng = make_rng(31)
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 5), max_weight=3)
        iu = random_interval_union(rng, 2, 3)
        res = solve_liminf(g, iu)
        ref = brute_force_positional(g, Objective(Payoff.LIMINF, iu))
        assert ref.exact
        assert res.win_eve == ref.win_eve


def test_parity_round_trip_through_weights():
    rng = make_rng(32)
    for _ in range(300):
        p = random_parity_game(rng, rng.randint(1, 6), max_priority=3)
        g, iu = parity_to_liminf(p)
        assert len(g.edges) == len(p.edges)
        direct = solve_parity(p)
        through = solve_liminf(g, iu)
        assert direct.win_eve == through.win_eve


def test_parity_to_liminf_singletons():
    p = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    g, iu = parity_to_liminf(p)
    assert g.edges[0].weight == 0
    assert iu.intervals == (Interval(F(0), F(0)),)
    assert solve_liminf(g, iu).win_eve == frozenset({0})

    podd = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (1,), 0)
    g, iu = parity_to_liminf(podd)
    assert iu.is_empty
    assert solve_liminf(g, iu).win_adam == frozenset({0})


def test_threshold_style_agreement():
    rng = make_rng(33)
    for _ in range(200):
        g = random_game(rng, rng.randint(1, 5), max_weight=3)
        a = F(rng.randint(-2, 2))
        iu = IntervalUnion((Interval(a, PLUS_INF, False, True),))
        res = solve_liminf(g, iu)
        ref = brute_force_positional(g, Objective(Payoff.LIMINF, iu))
        assert res.win_eve == ref.win_eve


def _simulate(g, v, eve_choice, adam_choice):
    seen = {}
    path = []
    while v not in seen:
        seen[v] = len(path)
        j = eve_choice[v] if g.owner[v] is Player.EVE else adam_choice[v]
        path.append(g.edges[j])
        v = g.edges[j].dst
    k = seen[v]
    return Lasso(prefix=tuple(path[:k]), cycle=tuple(path[k:]))


def test_returned_strategy_secures_the_objective():
    rng = make_rng(34)
    for _ in range(150):
        g = random_game(rng, rng.randint(1, 5), max_weight=3)
        iu = random_interval_union(rng, 2, 3)
        res = solve_liminf(g, iu)
        for _ in range(8):
            opp = {
                v: rng.choice(g.out_edges[v])
                for v in range(g.n)
                if g.owner[v] is Player.ADAM
            }
            for v in res.win_eve:
                lasso = _simulate(g, v, res.eve_strategy, opp)
                assert contains(iu, play_value(lasso, Payoff.LIMINF))
