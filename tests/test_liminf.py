from fractions import Fraction as F
from pathlib import Path

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
    fresh_namer,
    normalize,
    read_document,
    write_document,
)
from intervalgames.cli import main
from intervalgames.generate import (
    random_game,
    random_interval_union,
    random_objective,
    random_parity_game,
)
from intervalgames.liminf import (
    EmptyObjective,
    PriorityMap,
    _subdivision,
    integerize,
    liminf_to_parity,
    omega_I,
    parity_to_liminf,
    solve_liminf,
)
from intervalgames.oracle import brute_force_positional
from intervalgames.parity import ParityGame, solve_parity

from conftest import make_rng

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


def _per_edge_reduction(g, iu):
    """Edge subdivision written out edge by edge, one `omega_I` call per
    edge: the reference for both the solver's graph and the document."""
    pm = integerize(iu)
    fresh = fresh_namer(g.names)
    edges = []
    for sub, e in enumerate(g.edges, g.n):
        edges += [Edge(e.src, sub), Edge(sub, e.dst)]
    return ParityGame(
        names=g.names + tuple(fresh(f"e{k}") for k in range(len(g.edges))),
        owner=g.owner + (Player.EVE,) * len(g.edges),
        edges=tuple(edges),
        priority=(2 * pm.r + 1,) * g.n + tuple(omega_I(e.weight, pm) for e in g.edges),
        initial=g.initial,
    )


def test_solver_graph_equals_the_parity_document():
    rng = make_rng(34)
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 6), max_weight=3)
        # parallel edges, and a vertex named like a subdivider
        doubled = [rng.choice(g.edges) for _ in range(rng.randint(1, 3))]
        g = GameGraph(("e0",) + g.names[1:], g.owner, g.edges + tuple(doubled), 0)
        payoff = rng.choice((Payoff.LIMINF, Payoff.LIMSUP))
        g, o = normalize(g, random_objective(rng, payoff, max_pieces=3))
        pm = integerize(o.intervals)
        if pm.is_empty:
            continue
        graph = _subdivision(g, pm)
        doc = liminf_to_parity(g, o.intervals)
        assert doc == _per_edge_reduction(g, o.intervals)
        assert graph.n == doc.n
        assert tuple(graph.owner) == doc.owner
        assert tuple(graph.priority) == doc.priority
        assert tuple(map(tuple, graph.succ)) == doc.succ
        assert tuple(map(tuple, graph.pred)) == doc.pred


def test_reduce_to_parity_output_on_corpus(capsys):
    games = []
    for path in sorted(CORPUS.glob("*.game")):
        parsed = read_document(path.read_text())
        if isinstance(parsed, tuple) and parsed[1].payoff in (Payoff.LIMINF, Payoff.LIMSUP):
            games.append((path, *normalize(*parsed)))
    assert games
    for path, g, o in games:
        assert main(["reduce", str(path), "--to", "parity"]) == 0
        out = capsys.readouterr().out
        assert out == write_document(_per_edge_reduction(g, o.intervals)), path.name
