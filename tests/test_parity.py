import inspect
import sys

import pytest

from intervalgames.arena import Edge, GameGraph, Player, read_document, write_document
from intervalgames.generate import random_game, random_parity_game
from intervalgames.oracle import brute_force_positional
from intervalgames.parity import Graph, ParityGame, attractor, solve_parity

from conftest import make_rng, priority_line


def chain_game():
    # v0 -> v1 -> t, plus a loop on t; everything owned by Eve
    return ParityGame(
        names=("v0", "v1", "t"),
        owner=(Player.EVE, Player.EVE, Player.EVE),
        edges=(Edge(0, 1), Edge(1, 2), Edge(2, 2)),
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
    # Adam vertex a with two parallel edges into the target and one
    # escaping; b, Adam's too, has only the two parallel edges
    p = ParityGame(
        names=("a", "t", "esc", "b"),
        owner=(Player.ADAM, Player.EVE, Player.EVE, Player.ADAM),
        edges=(Edge(0, 1), Edge(0, 1), Edge(0, 2), Edge(1, 1), Edge(2, 2), Edge(3, 1), Edge(3, 1)),
        priority=(0, 0, 0, 0),
        initial=0,
    )
    assert attractor(p, {1}, Player.EVE) == frozenset({1, 3})
    assert attractor(p, {1}, Player.ADAM) == frozenset({0, 1, 3})


def naive_attractor(game, target, player, alive):
    """Least fixpoint by whole passes over the edge list."""
    attr = set(target) & alive
    while True:
        grown = set(attr)
        for v in alive - attr:
            succ = {e.dst for e in game.edges if e.src == v and e.dst in alive}
            if succ & attr if game.owner[v] is player else succ <= attr:
                grown.add(v)
        if grown == attr:
            return frozenset(attr)
        attr = grown


def parallel_edge_game(rng, n):
    # few targets per vertex, so parallel edges are common
    edges = [Edge(v, rng.randrange(n)) for v in range(n) for _ in range(rng.randint(1, 4))]
    return GameGraph(
        names=tuple(f"v{i}" for i in range(n)),
        owner=tuple(rng.choice((Player.EVE, Player.ADAM)) for _ in range(n)),
        edges=tuple(edges),
        initial=0,
    )


def test_attractor_matches_naive_fixpoint():
    rng = make_rng(25)
    for k in range(600):
        n = rng.randint(1, 9)
        if k % 3 == 0:
            game = random_parity_game(rng, n, max_priority=3)
        elif k % 3 == 1:
            game = random_game(rng, n, max_weight=2)
        else:
            game = parallel_edge_game(rng, n)
        everything = frozenset(range(n))
        # the complement of an attractor is a trap: each of its vertices
        # keeps an edge into it
        trap = everything
        if rng.random() < 0.5:
            seed = {v for v in range(n) if rng.random() < 0.2}
            trap = everything - attractor(game, seed, rng.choice((Player.EVE, Player.ADAM)))
        target = {v for v in range(n) if rng.random() < 0.3}
        for player in (Player.EVE, Player.ADAM):
            want = naive_attractor(game, target, player, trap)
            if trap == everything:
                assert attractor(game, target, player) == want
            assert attractor(game, target, player, trap) == want


def test_priority_line_nests_past_the_recursion_limit():
    # 1,201 nested frames, past the interpreter's default limit of 1000
    solved = solve_parity(priority_line(1201))
    assert solved.win_eve == frozenset(range(1201))


def test_priority_line_with_odd_last_priority_needs_no_stack():
    # With n - 1 odd, Zielonka solves the line again after giving Adam its
    # last vertex, once per even frame, so the work grows as n^3: n = 1,200
    # takes most of a minute.  A shorter line, solved with the stack held
    # to a few frames above the caller's, shows the nesting uses none.
    n = 240
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        solved = solve_parity(priority_line(n))
    finally:
        sys.setrecursionlimit(limit)
    assert solved.win_adam == frozenset({n - 1})
    assert solved.win_eve == frozenset(range(n - 1))


def one_vertex(priority, owner=Player.EVE):
    return ParityGame(
        names=("v",), owner=(owner,), edges=(Edge(0, 0),), priority=(priority,), initial=0
    )


def test_graph_solves_like_its_document():
    rng = make_rng(12)
    for _ in range(100):
        p = random_parity_game(rng, rng.randint(1, 8), max_priority=4)
        graph = Graph(p.n, p.owner, p.priority, p.succ, p.pred)
        assert solve_parity(graph) == solve_parity(p)


def test_solve_parity_rejects_malformed_graphs():
    p = chain_game()
    dead_end = Graph(3, p.owner, p.priority, ((1,), (), (2,)), ((), (0,), (2,)))
    with pytest.raises(ValueError, match="without successors"):
        solve_parity(dead_end)
    short = Graph(3, p.owner, p.priority[:2], p.succ, p.pred)
    with pytest.raises(ValueError, match="columns"):
        solve_parity(short)


def test_solve_parity_single_loops():
    assert solve_parity(one_vertex(0)).win_eve == frozenset({0})
    assert solve_parity(one_vertex(1)).win_adam == frozenset({0})


def test_adam_picks_the_odd_loop():
    p = ParityGame(
        names=("v", "w1", "w2"),
        owner=(Player.ADAM, Player.ADAM, Player.ADAM),
        edges=(Edge(0, 1), Edge(0, 2), Edge(1, 0), Edge(2, 0)),
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
        text = write_document(p)
        again = read_document(text)
        assert again == p
        assert write_document(again) == text
