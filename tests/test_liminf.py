from fractions import Fraction as F
from pathlib import Path

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
    contains,
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
    assert omega_I(0, PriorityMap(())) == 1


def _staircase_reference(n, pm):
    # direct three-case transcription, kept separate from the implementation
    for i, (lo, hi) in enumerate(pm.intervals, start=1):
        if lo <= n <= hi:
            return 2 * i
    if n < pm.intervals[0][0]:
        return 1
    return max(1 + 2 * i for i, (_, hi) in enumerate(pm.intervals, start=1) if hi < n)


def test_omega_monotone_staircase():
    for pm in (
        PriorityMap(((-7, -5), (-1, 2), (6, 9))),
        PriorityMap(((MINUS_INF, -5), (-1, 2), (6, 9))),
        PriorityMap(((-7, -5), (-1, 2), (6, PLUS_INF))),
        PriorityMap(((MINUS_INF, -5), (-1, 2), (6, PLUS_INF))),
        PriorityMap(((MINUS_INF, 3),)),
        PriorityMap(((3, PLUS_INF),)),
    ):
        values = [omega_I(n, pm) for n in range(-20, 21)]
        assert values == sorted(values), pm
        assert values == [_staircase_reference(n, pm) for n in range(-20, 21)], pm


def test_omega_is_even_exactly_on_the_objective():
    rng = make_rng(33)
    unbounded = set()  # (below, above) combinations seen
    for _ in range(300):
        iu = random_interval_union(rng, 3, 4, half_grid=True)
        pm = integerize(iu)
        unbounded.add((contains(iu, MINUS_INF), contains(iu, PLUS_INF)))
        values = [omega_I(n, pm) for n in range(-30, 31)]
        assert values == sorted(values), iu
        assert [v % 2 == 0 for v in values] == [contains(iu, F(n)) for n in range(-30, 31)], iu
    assert len(unbounded) == 4


def test_reduction_shape_and_forced_win():
    # the one edge enters v at v's own label: no subdivider
    g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 0),), 0)
    iu = IntervalUnion((Interval(F(0), F(0)),))
    p = liminf_to_parity(g, iu)
    assert p.n == 1
    assert p.priority == (2,)
    solved = solve_parity(p)
    assert solved.win_eve == frozenset({0})


def test_adam_picks_low_loop():
    g = GameGraph.from_edges(("v",), (Player.ADAM,), (Edge(0, 0, 1), Edge(0, 0, 2)), 0)
    res = solve_liminf(g, IntervalUnion((Interval(F(2), F(2)),)))
    assert res.win_adam == frozenset({0})
    res2 = solve_liminf(g, IntervalUnion((Interval(F(1), F(2)),)))
    assert res2.win_eve == frozenset({0})


def test_empty_integer_objective_reports_adam_everywhere():
    g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 0),), 0)
    iu = IntervalUnion((Interval(F(1, 3), F(2, 3)),))
    res = solve_liminf(g, iu)
    assert res.win_adam == frozenset({0})
    # the reduction is total: every priority is 1, so Adam wins there too
    p = liminf_to_parity(g, iu)
    assert p.priority == (1,)
    assert solve_parity(p).win_adam == frozenset({0})


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
    p = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    g, iu = parity_to_liminf(p)
    assert g.edges[0].weight == 0
    assert iu.intervals == (Interval(F(0), F(0)),)
    assert solve_liminf(g, iu).win_eve == frozenset({0})

    podd = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (1,), 0)
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
    edge: every vertex of `g` at 2r+1 and a subdivider per edge at the
    priority of its weight, the reference for the winners."""
    pm = integerize(iu)
    fresh = fresh_namer(g.names)
    edges = []
    for sub, e in enumerate(g.edges, g.n):
        edges += [Edge(e.src, sub), Edge(sub, e.dst)]
    return ParityGame.from_edges(
        names=g.names + tuple(fresh(f"e{k}") for k in range(len(g.edges))),
        owner=g.owner + (Player.EVE,) * len(g.edges),
        edges=tuple(edges),
        priority=(2 * pm.r + 1,) * g.n + tuple(omega_I(e.weight, pm) for e in g.edges),
        initial=g.initial,
    )


def _merged_reduction(g, iu):
    """The reduced game written out with plain loops: each vertex at the
    highest priority entering it (2r+1 if none enters), one subdivider per
    (target, lower priority) in the order of the edges, named
    "target@priority"."""
    pm = integerize(iu)
    q = [omega_I(e.weight, pm) for e in g.edges]
    highest = {}
    for e, p in zip(g.edges, q):
        highest[e.dst] = max(highest.get(e.dst, p), p)
    label = [highest.get(v, 2 * pm.r + 1) for v in range(g.n)]
    subs = list(dict.fromkeys((e.dst, p) for e, p in zip(g.edges, q) if p != label[e.dst]))
    index = {s: j for j, s in enumerate(subs, g.n)}
    fresh = fresh_namer(g.names)
    return ParityGame.from_edges(
        names=g.names + tuple(fresh(f"{g.names[v]}@{p}") for v, p in subs),
        owner=g.owner + (Player.EVE,) * len(subs),
        edges=tuple(
            Edge(e.src, e.dst if p == label[e.dst] else index[e.dst, p])
            for e, p in zip(g.edges, q)
        ) + tuple(Edge(index[s], s[0]) for s in subs),
        priority=tuple(label) + tuple(p for _, p in subs),
        initial=g.initial,
    )


def _varied_game(rng, max_vertices):
    """A random game with parallel edges, its first vertex named like a
    subdivider of its last, and up to three added vertices that no edge
    enters."""
    g = random_game(rng, rng.randint(1, max_vertices), max_weight=rng.randint(0, 4))
    first = f"{g.names[-1]}@{rng.randint(1, 3)}" if g.n > 1 else g.names[0]
    extra = rng.randint(0, 3)
    return GameGraph.from_edges(
        (first,) + g.names[1:] + tuple(f"s{i}" for i in range(extra)),
        g.owner + tuple(rng.choice(tuple(Player)) for _ in range(extra)),
        g.edges
        + tuple(rng.choice(g.edges) for _ in range(rng.randint(1, 4)))
        + tuple(Edge(g.n + i, rng.randrange(g.n), rng.randint(-3, 3)) for i in range(extra)),
        0,
    )


def test_solver_graph_equals_the_parity_document():
    rng = make_rng(34)
    clashes = 0
    for _ in range(300):
        payoff = rng.choice((Payoff.LIMINF, Payoff.LIMSUP))
        g, o = normalize(_varied_game(rng, 6), random_objective(rng, payoff, max_pieces=3))
        pm = integerize(o.intervals)
        if pm.is_empty:
            continue
        graph = _subdivision(g, pm)
        doc = liminf_to_parity(g, o.intervals)
        assert doc == _merged_reduction(g, o.intervals)
        clashes += g.names[0] + "_1" in doc.names
        assert graph.n == doc.n
        assert tuple(graph.owner) == doc.owner
        assert tuple(graph.priority) == doc.priority
        assert tuple(map(tuple, graph.succ)) == doc.succ
        assert tuple(map(tuple, graph.pred)) == doc.pred
    # the first vertex's name is taken by a subdivider often enough that
    # the fresh names are pinned too
    assert clashes >= 10


def test_reduction_has_the_per_edge_winners():
    # 1-40 vertices; objectives unbounded on either side or with no integer
    rng = make_rng(35)
    no_integer = IntervalUnion((Interval(F(1, 3), F(2, 3)),))
    seen = set()
    for _ in range(3000):
        g = _varied_game(rng, 40)
        iu = no_integer if rng.random() < 0.05 else random_interval_union(rng, 3, 4)
        seen.add((integerize(iu).is_empty, contains(iu, MINUS_INF), contains(iu, PLUS_INF)))
        per_edge = solve_parity(_per_edge_reduction(g, iu))
        merged = solve_parity(liminf_to_parity(g, iu))
        everything = frozenset(range(g.n))
        assert merged.win_eve & everything == per_edge.win_eve & everything, (g, iu)
    assert {(True, False, False), (False, True, False), (False, False, True)} <= seen


def test_lower_edges_into_a_vertex_share_one_subdivider():
    iu = IntervalUnion((Interval(F(0), F(0)),))  # priorities: <0 -> 1, 0 -> 2, >0 -> 3
    eve = (Player.EVE,) * 2
    # both edges into 1 have priority 3: it carries 3 and needs no subdivider
    g = GameGraph.from_edges(("a", "b"), eve, (Edge(0, 1, 5), Edge(1, 1, 4), Edge(0, 0, 0)), 0)
    p = liminf_to_parity(g, iu)
    assert (p.n, p.priority, p.edges) == (2, (2, 3), tuple(Edge(e.src, e.dst) for e in g.edges))
    # priorities 2 and 1 into 1: it carries 2, and the edge at 1 passes
    # through the one subdivider, at 1, whose name "b@1" is taken
    g = GameGraph.from_edges(("b@1", "b"), eve, (Edge(0, 1, 0), Edge(1, 1, -1), Edge(0, 0, 0)), 0)
    p = liminf_to_parity(g, iu)
    assert p.names == ("b@1", "b", "b@1_1")
    assert p.priority == (2, 2, 1)
    assert p.edges == (Edge(0, 1), Edge(1, 2), Edge(0, 0), Edge(2, 1))
    # two parallel edges and a third at the same lower priority into 1
    # share the subdivider; the edge at 3 is direct
    g = GameGraph.from_edges(
        ("a", "b"), eve,
        (Edge(0, 1, 1), Edge(0, 1, 0), Edge(0, 1, 0), Edge(1, 1, 0), Edge(1, 0, 0)), 0,
    )
    p = liminf_to_parity(g, iu)
    assert p.names == ("a", "b", "b@2")
    assert p.priority == (2, 3, 2)
    assert p.edges == (Edge(0, 1), Edge(0, 2), Edge(0, 2), Edge(1, 2), Edge(1, 0), Edge(2, 1))
    assert p.pred[2] == (0, 0, 1)
    assert solve_parity(p).win_eve == frozenset({0, 1, 2})


def test_reduce_to_parity_output_on_corpus(capsys):
    games = []
    for path in sorted(CORPUS.glob("*.game")):
        g, o = read_document(path.read_text())
        if o is not None and o.payoff in (Payoff.LIMINF, Payoff.LIMSUP):
            games.append((path, *normalize(g, o)))
    assert games
    for path, g, o in games:
        assert main(["reduce", str(path), "--to", "parity"]) == 0
        out = capsys.readouterr().out
        assert out == write_document(_merged_reduction(g, o.intervals)), path.name
        everything = frozenset(range(g.n))
        reduced = solve_parity(read_document(out)[0])
        per_edge = solve_parity(_per_edge_reduction(g, o.intervals))
        assert reduced.win_eve & everything == per_edge.win_eve & everything, path.name
