from intervalgames.arena import Edge, Player
from intervalgames.generate import random_parity_game
from intervalgames.oracle import Lasso, brute_force_positional, play_value
from intervalgames.arena import Payoff
from intervalgames.parity import (
    ParityGame,
    PEdge,
    attractor,
    parse_parity_game,
    serialize_parity_game,
    solve_parity,
)

from conftest import make_rng


def chain_game():
    # v0 -> v1 -> t, plus a loop on t; everything owned by Eve
    return ParityGame(
        names=("v0", "v1", "t"),
        owner=(Player.EVE, Player.EVE, Player.EVE),
        edges=(PEdge(0, 1), PEdge(1, 2), PEdge(2, 2)),
        priority=(1, 1, 0),
        initial=0,
    )


def test_attractor_whole_vertex_set():
    p = chain_game()
    assert attractor(p, {0, 1, 2}, Player.EVE) == frozenset({0, 1, 2})


def test_attractor_chain():
    p = chain_game()
    assert attractor(p, {2}, Player.EVE) == frozenset({0, 1, 2})


def test_attractor_opponent_escape():
    # Adam vertex with one edge into the target and one escaping
    p = ParityGame(
        names=("a", "t", "esc"),
        owner=(Player.ADAM, Player.EVE, Player.EVE),
        edges=(PEdge(0, 1), PEdge(0, 2), PEdge(1, 1), PEdge(2, 2)),
        priority=(0, 0, 0),
        initial=0,
    )
    assert attractor(p, {1}, Player.EVE) == frozenset({1})


def one_vertex(priority, owner=Player.EVE):
    return ParityGame(
        names=("v",), owner=(owner,), edges=(PEdge(0, 0),), priority=(priority,), initial=0
    )


def test_solve_parity_single_loops():
    assert solve_parity(one_vertex(0)).win_eve == frozenset({0})
    assert solve_parity(one_vertex(1)).win_adam == frozenset({0})


def test_adam_picks_the_odd_loop():
    p = ParityGame(
        names=("v", "w1", "w2"),
        owner=(Player.ADAM, Player.ADAM, Player.ADAM),
        edges=(PEdge(0, 1), PEdge(0, 2), PEdge(1, 0), PEdge(2, 0)),
        priority=(3, 1, 2),
        initial=0,
    )
    solved = solve_parity(p)
    assert solved.win_adam == frozenset({0, 1, 2})


def test_determinacy_on_random_games():
    rng = make_rng(21)
    for _ in range(200):
        p = random_parity_game(rng, rng.randint(1, 7), max_priority=4)
        solved = solve_parity(p)
        assert solved.win_eve | solved.win_adam == frozenset(range(p.n))
        assert not solved.win_eve & solved.win_adam


def _simulate(p, v, eve_choice, adam_choice):
    """Walk both positional strategies from v, return the lasso priorities."""
    seen = {}
    path = []
    while v not in seen:
        seen[v] = len(path)
        j = eve_choice[v] if p.owner[v] is Player.EVE else adam_choice[v]
        path.append((v, j))
        v = p.edges[j].dst
    k = seen[v]
    edges = [Edge(src, p.edges[j].dst, p.priority[src]) for src, j in path]
    return Lasso(prefix=tuple(edges[:k]), cycle=tuple(edges[k:]))


def test_strategies_win_against_random_positional_opponents():
    rng = make_rng(22)
    trials = 0
    games = 0
    while trials < 500:
        p = random_parity_game(rng, rng.randint(1, 5), max_priority=3)
        solved = solve_parity(p)
        games += 1
        for _ in range(10):
            opp_adam = {
                v: rng.choice(p.out_edges[v])
                for v in range(p.n)
                if p.owner[v] is Player.ADAM
            }
            opp_eve = {
                v: rng.choice(p.out_edges[v])
                for v in range(p.n)
                if p.owner[v] is Player.EVE
            }
            for v in solved.win_eve:
                lasso = _simulate(p, v, solved.eve_strategy, opp_adam)
                minimal = play_value(lasso, Payoff.LIMINF)
                assert minimal.numerator % 2 == 0, (p, v)
            for v in solved.win_adam:
                lasso = _simulate(p, v, opp_eve, solved.adam_strategy)
                minimal = play_value(lasso, Payoff.LIMINF)
                assert minimal.numerator % 2 == 1, (p, v)
            trials += 1


def test_agreement_with_positional_enumeration():
    rng = make_rng(23)
    for _ in range(300):
        p = random_parity_game(rng, rng.randint(1, 6), max_priority=3)
        solved = solve_parity(p)
        reference = brute_force_positional(p)
        assert reference.exact
        assert solved.win_eve == reference.win_eve


def test_parity_document_round_trip():
    rng = make_rng(24)
    for _ in range(100):
        p = random_parity_game(rng, rng.randint(1, 8), rng.randint(0, 6))
        text = serialize_parity_game(p)
        again = parse_parity_game(text)
        assert again == p
        assert serialize_parity_game(again) == text
