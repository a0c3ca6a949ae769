import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from intervalgames.arena import (
    Arena,
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    MINUS_INF,
    Objective,
    PLUS_INF,
    Payoff,
    Player,
    complement_intervals,
)
from intervalgames.generate import random_game, random_interval_union, random_parity_game
from intervalgames.meanpayoff import (
    Cmp,
    PriorityOutOfRange,
    ThresholdQuery,
    mp_threshold,
    parity_to_mp,
    solve_mp_interval,
)
from intervalgames.oracle import brute_force_positional, one_player_mp_achievable
from intervalgames.parity import ParityGame, solve_parity

from conftest import make_rng


def loop(weight, owner=Player.EVE):
    return GameGraph(("v",), (owner,), (Edge(0, 0, weight),), 0)


FIG1 = GameGraph(
    names=("q0", "q1"),
    owner=(Player.EVE, Player.ADAM),
    edges=(Edge(0, 1, 1), Edge(1, 1, 2), Edge(1, 0, 1), Edge(0, 0, 0)),
    initial=0,
)
FIG1_UNION = IntervalUnion(
    (Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True))
)


def test_threshold_trivia():
    assert mp_threshold(loop(1), ThresholdQuery(F(0), Cmp.GE)).win_eve == frozenset({0})
    assert mp_threshold(loop(0), ThresholdQuery(F(0), Cmp.GT)).win_adam == frozenset({0})
    two = GameGraph(
        ("v",), (Player.ADAM,), (Edge(0, 0, 0), Edge(0, 0, 2)), 0
    )
    assert mp_threshold(two, ThresholdQuery(F(1), Cmp.GE)).win_adam == frozenset({0})


def test_threshold_le_lt():
    assert mp_threshold(loop(1), ThresholdQuery(F(1), Cmp.LE)).win_eve == frozenset({0})
    assert mp_threshold(loop(1), ThresholdQuery(F(1), Cmp.LT)).win_adam == frozenset({0})


def test_threshold_credit_equal_to_the_cap():
    # k chain edges into a weight-0 loop: rescaled by n = k + 1, the chain
    # head needs credit k * n, which is exactly the progress-measure cap
    # (the sum of every vertex's most negative rescaled edge)
    for k in range(1, 5):
        n = k + 1
        names = tuple(f"v{i}" for i in range(n))
        everything = frozenset(range(n))
        for w, owner in itertools.product((-1, 1), Player):
            chain = GameGraph(
                names,
                (owner,) * n,
                tuple(Edge(i, i + 1, w) for i in range(k)) + (Edge(k, k, 0),),
                0,
            )
            # w = -1 tests Eve's measure at the cap, w = 1 tests Adam's
            assert mp_threshold(chain, ThresholdQuery(F(0), Cmp.GE)).win_eve == everything
            assert mp_threshold(chain, ThresholdQuery(F(0), Cmp.GT)).win_adam == everything


def test_interval_solver_empty_union():
    g = loop(1)
    res = solve_mp_interval(g, IntervalUnion(()))
    assert res.win_adam == frozenset({0})


def test_interval_solver_needs_memory_instance():
    res = solve_mp_interval(FIG1, FIG1_UNION)
    assert res.win_eve == frozenset({0, 1})
    ref = brute_force_positional(FIG1, Objective(Payoff.MP_INF, FIG1_UNION))
    assert not ref.exact
    assert ref.win_eve == frozenset()


def test_interval_matches_thresholds():
    rng = make_rng(42)
    for _ in range(200):
        g = random_game(rng, rng.randint(1, 6), max_weight=3)
        a = F(rng.choice((-1, 0, 1)))
        ge = solve_mp_interval(g, IntervalUnion((Interval(a, PLUS_INF, False, True),)))
        assert ge.win_eve == mp_threshold(g, ThresholdQuery(a, Cmp.GE)).win_eve
        le = solve_mp_interval(g, IntervalUnion((Interval(MINUS_INF, a, True, False),)))
        assert le.win_eve == mp_threshold(g, ThresholdQuery(a, Cmp.LE)).win_eve


def test_single_interval_examples():
    zero = IntervalUnion((Interval(F(0), F(0)),))
    assert solve_mp_interval(loop(0), zero).win_eve == frozenset({0})
    swing_adam = GameGraph(
        ("v",), (Player.ADAM,), (Edge(0, 0, -1), Edge(0, 0, 1)), 0
    )
    assert solve_mp_interval(swing_adam, zero).win_adam == frozenset({0})
    swing_eve = GameGraph(
        ("v",), (Player.EVE,), (Edge(0, 0, -1), Edge(0, 0, 1)), 0
    )
    assert solve_mp_interval(swing_eve, zero).win_eve == frozenset({0})
    assert one_player_mp_achievable(swing_eve, zero) == [True]


def test_single_interval_against_adam_positional_oracle():
    rng = make_rng(43)
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 5), max_weight=2)
        a = F(rng.randint(-4, 2), 2)
        b = a + F(rng.randint(0, 4), 2)
        iu = IntervalUnion((Interval(a, b),))
        solved = solve_mp_interval(g, iu)
        adam_vs = [v for v in range(g.n) if g.owner[v] is Player.ADAM]
        slots = [g.out_edges[v] for v in adam_vs]
        adam_wins = set()
        for tau in itertools.product(*slots):
            chosen = dict(zip(adam_vs, tau))
            edges = []
            for v in range(g.n):
                if v in chosen:
                    edges.append(g.edges[chosen[v]])
                else:
                    edges.extend(g.edges[j] for j in g.out_edges[v])
            residual = GameGraph(
                names=g.names,
                owner=tuple(Player.EVE for _ in range(g.n)),
                edges=tuple(edges),
                initial=g.initial,
            )
            achievable = one_player_mp_achievable(residual, iu)
            adam_wins |= {v for v in range(g.n) if not achievable[v]}
        assert solved.win_adam == frozenset(adam_wins)


def test_duality_with_swapped_players():
    rng = make_rng(45)
    for _ in range(200):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        iu = random_interval_union(rng, 2, 2)
        a = solve_mp_interval(g, iu)
        swapped = dataclasses.replace(g, owner=tuple(o.opponent for o in g.owner))
        b = solve_mp_interval(swapped, complement_intervals(iu))
        assert a.win_eve == b.win_adam
        assert a.win_adam == b.win_eve


def test_fixpoint_builds_no_graph(monkeypatch):
    # the complement step swaps the players' roles, not the graph's owners
    rng = make_rng(49)
    cases = [(FIG1, FIG1_UNION)]
    for _ in range(20):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        cases.append((g, random_interval_union(rng, 3, 4)))
    built = []
    post_init = Arena.__post_init__

    def counting_post_init(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(Arena, "__post_init__", counting_post_init)
    for g, iu in cases:
        solve_mp_interval(g, iu)
    assert built == []


def test_many_boundaries_nest_without_recursion():
    # 250 intervals give 500 finite boundaries, and so about a thousand
    # nested frames: past the interpreter's default recursion limit
    g = GameGraph(
        names=("a", "b"),
        owner=(Player.EVE, Player.ADAM),
        edges=(Edge(0, 0, 0), Edge(0, 1, 1), Edge(1, 0, 0)),
        initial=0,
    )
    iu = IntervalUnion(tuple(Interval(F(2 * i), F(2 * i + 1)) for i in range(250)))
    assert solve_mp_interval(g, iu).win_eve == frozenset({0, 1})


def test_monotone_in_the_objective():
    rng = make_rng(46)
    for _ in range(100):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        iu = random_interval_union(rng, 2, 2)
        larger = IntervalUnion(iu.intervals + random_interval_union(rng, 1, 4).intervals)
        assert solve_mp_interval(g, iu).win_eve <= solve_mp_interval(g, larger).win_eve


def test_parity_gadget_structure():
    p = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    g, iu = parity_to_mp(p)
    assert g.n == 4
    assert len(g.edges) == 1 + 6
    assert sorted({e.weight for e in g.edges}) == [-1, 0, 1]
    assert iu.intervals[0] == Interval(F(0), F(1), False, True)
    assert solve_parity(p).win_eve == frozenset({0})
    assert 0 in solve_mp_interval(g, iu).win_eve

    podd = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (1,), 0)
    g, iu = parity_to_mp(podd)
    assert 0 in solve_mp_interval(g, iu).win_adam


def test_parity_gadget_counts():
    rng = make_rng(47)
    p = random_parity_game(rng, 5, max_priority=3)
    g, iu = parity_to_mp(p)
    assert g.n == 4 * p.n
    assert len(g.edges) == len(p.edges) + 6 * p.n


def test_parity_priority_out_of_range():
    p = ParityGame(("v",), (Player.EVE,), (Edge(0, 0),), (7,), 0)
    with pytest.raises(PriorityOutOfRange):
        parity_to_mp(p)


def test_parity_winner_preserved_through_gadgets():
    rng = make_rng(48)
    for _ in range(200):
        p = random_parity_game(rng, rng.randint(1, 5), max_priority=3)
        p = ParityGame(
            names=p.names,
            owner=p.owner,
            edges=p.edges,
            priority=tuple(min(q, p.n) for q in p.priority),
            initial=p.initial,
        )
        g, iu = parity_to_mp(p)
        direct = solve_parity(p)
        through = solve_mp_interval(g, iu)
        assert {v for v in through.win_eve if v < p.n} == set(direct.win_eve)
