from intervalgames.arena import Edge, Player, read_document, write_document
from intervalgames.generate import random_parity_game
from intervalgames.oracle import brute_force_positional
from intervalgames.parity import ParityGame, attractor, solve_parity

from conftest import make_rng


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
    # Adam vertex with one edge into the target and one escaping
    p = ParityGame(
        names=("a", "t", "esc"),
        owner=(Player.ADAM, Player.EVE, Player.EVE),
        edges=(Edge(0, 1), Edge(0, 2), Edge(1, 1), Edge(2, 2)),
        priority=(0, 0, 0),
        initial=0,
    )
    assert attractor(p, {1}, Player.EVE) == frozenset({1})


def one_vertex(priority, owner=Player.EVE):
    return ParityGame(
        names=("v",), owner=(owner,), edges=(Edge(0, 0),), priority=(priority,), initial=0
    )


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
