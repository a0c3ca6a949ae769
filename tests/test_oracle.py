from fractions import Fraction as F

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
)
from intervalgames.discounted import ds_value_lasso
from intervalgames.generate import random_game, random_interval_union
from intervalgames.meanpayoff import ThresholdQuery, Cmp, mp_threshold
from intervalgames.oracle import (
    Lasso,
    TooLarge,
    brute_force_positional,
    one_player_mp_achievable,
    play_value,
)
from intervalgames.parity import ParityGame

from conftest import make_rng


def lasso(prefix, cycle):
    edges = []
    v = 0
    for w in list(prefix) + list(cycle):
        edges.append(Edge(v, 0, w))
        v = 0
    return Lasso(prefix=tuple(edges[: len(prefix)]), cycle=tuple(edges[len(prefix):]))


def test_play_value_examples():
    up = lasso((1,), (2,))
    assert play_value(up, Payoff.LIMINF) == 2
    assert play_value(up, Payoff.MP_INF) == 2
    assert play_value(up, Payoff.TOTAL_INF) == PLUS_INF

    seesaw = lasso((), (-1, 1))
    assert play_value(seesaw, Payoff.MP_INF) == 0
    assert play_value(seesaw, Payoff.TOTAL_INF) == -1
    assert play_value(seesaw, Payoff.TOTAL_SUP) == 0

    pulse = lasso((), (1, 0))
    assert play_value(pulse, Payoff.DISCOUNTED, F(1, 2)) == F(4, 3)
    assert play_value(pulse, Payoff.DISCOUNTED, F(1, 2)) == ds_value_lasso((), (1, 0), F(1, 2))


def test_play_value_negation_swaps_inf_and_sup():
    rng = make_rng(71)
    for _ in range(100):
        prefix = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        cycle = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        plain = lasso(prefix, cycle)
        flipped = lasso([-w for w in prefix], [-w for w in cycle])
        assert play_value(plain, Payoff.LIMSUP) == -play_value(flipped, Payoff.LIMINF)
        assert play_value(plain, Payoff.MP_SUP) == -play_value(flipped, Payoff.MP_INF)
        a = play_value(plain, Payoff.TOTAL_SUP)
        b = play_value(flipped, Payoff.TOTAL_INF)
        if a in (PLUS_INF, MINUS_INF):
            assert b == -a
        else:
            assert b == -a


def test_oracle_is_deterministic():
    rng = make_rng(72)
    g = random_game(rng, 4, max_weight=2)
    iu = random_interval_union(rng, 2, 2)
    o = Objective(Payoff.LIMINF, iu)
    first = brute_force_positional(g, o)
    second = brute_force_positional(g, o)
    assert first == second


def test_parity_mode_exact():
    p = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    res = brute_force_positional(p)
    assert res.exact and res.win_eve == frozenset({0})


def test_memory_hard_instance_gets_empty_lower_bound():
    fig1 = GameGraph(
        ("q0", "q1"),
        (Player.EVE, Player.ADAM),
        (Edge(0, 1, 1), Edge(1, 1, 2), Edge(1, 0, 1), Edge(0, 0, 0)),
        0,
    )
    union = IntervalUnion(
        (Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True))
    )
    res = brute_force_positional(fig1, Objective(Payoff.MP_INF, union))
    assert not res.exact
    assert res.win_eve == frozenset()
    assert res.win_adam == frozenset()


def test_matches_threshold_solver_on_small_games():
    rng = make_rng(73)
    for _ in range(100):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        a = F(rng.randint(-2, 2))
        iu = IntervalUnion((Interval(a, PLUS_INF, False, True),))
        ref = brute_force_positional(g, Objective(Payoff.MP_INF, iu))
        assert ref.exact
        assert ref.win_eve == mp_threshold(g, ThresholdQuery(a, Cmp.GE)).win_eve


def test_one_player_achievability():
    swing = GameGraph(("v",), (Player.EVE,), (Edge(0, 0, -1), Edge(0, 0, 1)), 0)
    zero = IntervalUnion((Interval(F(0), F(0)),))
    assert one_player_mp_achievable(swing, zero) == [True]
    lone = GameGraph(("v",), (Player.EVE,), (Edge(0, 0, 1),), 0)
    assert one_player_mp_achievable(lone, zero) == [False]


def test_guards_are_hard_errors():
    big = GameGraph(
        tuple(f"v{i}" for i in range(9)),
        tuple(Player.EVE for _ in range(9)),
        tuple(Edge(i, (i + 1) % 9, 0) for i in range(9)) + (Edge(0, 0, 1),),
        0,
    )
    with pytest.raises(TooLarge):
        one_player_mp_achievable(big, IntervalUnion((Interval(F(0), F(0)),)))

    wide = GameGraph(
        tuple(f"v{i}" for i in range(10)),
        tuple(Player.EVE for _ in range(10)),
        tuple(
            Edge(i, j, 0) for i in range(10) for j in range(10)
        ),
        0,
    )
    with pytest.raises(TooLarge):
        brute_force_positional(
            wide, Objective(Payoff.LIMINF, IntervalUnion((Interval(F(0), F(0)),)))
        )
