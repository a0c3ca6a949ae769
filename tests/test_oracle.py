import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
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
    UnsupportedObjective,
    Verdict,
)
from intervalgames.discounted import DsValueTable, decision_depth, ds_optimal_values
from intervalgames.generate import random_game, random_interval_union, random_parity_game
from intervalgames.liminf import parity_to_liminf
from intervalgames import oracle
from intervalgames.meanpayoff import solve_mp_interval
from intervalgames.oracle import (
    TooLarge,
    brute_force_finite_horizon_ds,
    brute_force_positional,
    check_ds_values,
    one_player_mp_achievable,
    play_value,
)
from intervalgames.parity import ParityGame
from intervalgames.totalsum import solve_total_interval

from conftest import RAYS, make_rng


def test_play_value_examples():
    up = ((1,), (2,))
    assert play_value(*up, Payoff.LIMINF) == 2
    assert play_value(*up, Payoff.MP_INF) == 2
    assert play_value(*up, Payoff.TOTAL_INF) == PLUS_INF

    seesaw = ((), (-1, 1))
    assert play_value(*seesaw, Payoff.MP_INF) == 0
    assert play_value(*seesaw, Payoff.TOTAL_INF) == -1
    assert play_value(*seesaw, Payoff.TOTAL_SUP) == 0

    pulse = ((), (1, 0))
    assert play_value(*pulse, Payoff.DISCOUNTED, F(1, 2)) == F(4, 3)
    # the cycle read once more as a prefix leaves the value as it is
    assert play_value((1, 0), (1, 0), Payoff.DISCOUNTED, F(1, 2)) == F(4, 3)


def test_play_value_negation_swaps_inf_and_sup():
    rng = make_rng(71)
    for _ in range(100):
        prefix = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        cycle = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        plain = (prefix, cycle)
        flipped = ([-w for w in prefix], [-w for w in cycle])
        assert play_value(*plain, Payoff.LIMSUP) == -play_value(*flipped, Payoff.LIMINF)
        assert play_value(*plain, Payoff.MP_SUP) == -play_value(*flipped, Payoff.MP_INF)
        assert play_value(*flipped, Payoff.TOTAL_INF) == -play_value(*plain, Payoff.TOTAL_SUP)


def test_play_value_is_pinned():
    # sha256 over the values of seeded plays, recorded once: prefixes of
    # 0-3 weights (a quarter empty), cycles of 1-4, every payoff, the
    # discounted one at four discount factors
    rng = make_rng(94)
    discounts = (F(1, 3), F(1, 2), F(2, 3), F(19, 20))
    values = hashlib.sha256()
    for _ in range(3000):
        prefix = tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 3)))
        cycle = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        for payoff in Payoff:
            for lam in discounts if payoff is Payoff.DISCOUNTED else (None,):
                values.update(repr(play_value(prefix, cycle, payoff, lam)).encode())
    assert values.hexdigest() == (
        "7bbb3b54145acf1fc15aa7066263c7b9f16835b2b3df8bb8c215e03f367380c4"
    )


def test_oracle_is_deterministic():
    rng = make_rng(72)
    g = random_game(rng, 4, max_weight=2)
    iu = random_interval_union(rng, 2, 2)
    o = Objective(Payoff.LIMINF, iu)
    first = brute_force_positional(g, o)
    second = brute_force_positional(g, o)
    assert first == second


def test_parity_mode_exact():
    p = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    res = brute_force_positional(p)
    assert res.exact and res.win_eve == frozenset({0})


def test_parity_reads_as_its_liminf_reduction():
    # Eve wins a parity play iff the liminf of its source priorities is
    # even, so the oracle answers a parity game as it answers the liminf
    # arena of the paper's reduction
    rng = make_rng(93)
    for _ in range(300):
        p = random_parity_game(rng, rng.randint(1, 6), max_priority=5)
        g, iu = parity_to_liminf(p)
        as_parity = brute_force_positional(p)
        as_liminf = brute_force_positional(g, Objective(Payoff.LIMINF, iu))
        assert as_parity.exact and as_liminf.exact
        assert as_parity == as_liminf


SHAPES = {
    "threshold": IntervalUnion((Interval(F(0), PLUS_INF, False, True),)),
    "bounded-union": IntervalUnion((Interval(F(-1), F(0)), Interval(F(1), F(2)))),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("payoff", list(Payoff), ids=lambda p: p.value)
def test_exactness_by_payoff_and_objective_shape(payoff, shape):
    # liminf and limsup are exact on every union; mean-payoff and total-sum
    # only on a one-sided threshold; discounted has no positional oracle
    g = GameGraph.from_edges(
        ("a", "b"), (Player.EVE, Player.ADAM),
        (Edge(0, 1, 1), Edge(0, 0, -1), Edge(1, 0, 2), Edge(1, 1, 0)), 0,
    )
    iu = SHAPES[shape]
    if payoff is Payoff.DISCOUNTED:
        with pytest.raises(UnsupportedObjective):
            brute_force_positional(g, Objective(payoff, iu, F(1, 2)))
        return
    res = brute_force_positional(g, Objective(payoff, iu))
    assert res.exact is (payoff in (Payoff.LIMINF, Payoff.LIMSUP) or shape == "threshold")


def test_region_checks_run_under_optimization():
    # `python -O` strips assert statements; the checks raise explicitly, on
    # the parity path and on the objective path alike
    code = (
        "from fractions import Fraction\n"
        "from intervalgames import oracle\n"
        "from intervalgames.arena import Edge, GameGraph, Interval, IntervalUnion, Objective,"
        " Payoff, Player\n"
        "from intervalgames.parity import ParityGame\n"
        "assert False, 'asserts are not stripped'\n"
        "oracle._pair_enumeration = lambda game, wins: (frozenset({0}), frozenset({0}))\n"
        "g = GameGraph.from_edges(('v',), (Player.EVE,), (Edge(0, 0, 0),), 0)\n"
        "o = Objective(Payoff.LIMINF, IntervalUnion((Interval(Fraction(0), Fraction(0)),)))\n"
        "p = ParityGame.from_edges(('v',), (Player.EVE,), (Edge(0, 0),), (0,), 0)\n"
        "for args in ((p,), (g, o)):\n"
        "    try:\n"
        "        oracle.brute_force_positional(*args)\n"
        "    except AssertionError as e:\n"
        "        print(e)\n"
    )
    proc = _fresh_python("-O", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "region sizes do not sum to the vertex count\n" * 2


def _fresh_python(*args):
    """Run a new interpreter on this checkout's `src`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_oracle_loads_no_solver_module():
    # the oracle shares only the data model with the solvers, so importing
    # it loads none of them
    code = (
        "import sys\n"
        "import intervalgames.oracle\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = _fresh_python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert "intervalgames.oracle" in loaded
    solvers = ("parity", "liminf", "meanpayoff", "discounted", "totalsum", "generate", "cli")
    assert loaded & {f"intervalgames.{name}" for name in solvers} == set()


def test_memory_hard_instance_gets_empty_lower_bound():
    fig1 = GameGraph.from_edges(
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


def test_total_sum_union_enumeration_is_no_bound():
    # Adam's v0 has a +1 loop and a 0 edge to v1, which loops at 0; the
    # objective excludes only a total of 3.  Each positional Adam strategy
    # gives +inf or 0, so the enumeration gives Eve both vertices, but Adam
    # wins v0 by looping three times and then leaving
    g = GameGraph.from_edges(
        ("v0", "v1"), (Player.ADAM, Player.ADAM),
        (Edge(0, 0, 1), Edge(0, 1, 0), Edge(1, 1, 0)), 0,
    )
    iu = IntervalUnion(
        (Interval(MINUS_INF, F(3), True, True), Interval(F(3), PLUS_INF, True, True))
    )
    res = brute_force_positional(g, Objective(Payoff.TOTAL_INF, iu))
    assert res == oracle.OracleRegions(frozenset({0, 1}), frozenset(), exact=False)
    # three times around v0's loop, then to v1 and around its loop
    assert play_value((1, 1, 1, 0), (0,), Payoff.TOTAL_INF) == 3
    assert solve_total_interval(g, iu).vertices.verdict(0) is Verdict.ADAM


def test_matches_threshold_solver_on_small_games():
    rng = make_rng(73)
    for _ in range(100):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        a = F(rng.randint(-2, 2))
        iu = IntervalUnion((Interval(a, PLUS_INF, False, True),))
        ref = brute_force_positional(g, Objective(Payoff.MP_INF, iu))
        assert ref.exact
        assert ref.win_eve == solve_mp_interval(g, iu).win_eve
        # a threshold equal to a simple cycle's mean is a tie, where the
        # strict and non-strict games part
        ties = oracle._simple_cycle_means(g, range(g.n))
        for tie, (cmp, ray) in itertools.product(ties, RAYS.items()):
            iu = IntervalUnion((ray(tie),))
            ref = brute_force_positional(g, Objective(Payoff.MP_INF, iu))
            assert ref.exact
            res = solve_mp_interval(g, iu)
            assert (res.win_eve, res.win_adam) == (ref.win_eve, ref.win_adam), (cmp, tie)


def test_one_player_achievability():
    swing = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, -1), Edge(0, 0, 1)), 0)
    zero = IntervalUnion((Interval(F(0), F(0)),))
    assert one_player_mp_achievable(swing, zero) == [True]
    lone = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 1),), 0)
    assert one_player_mp_achievable(lone, zero) == [False]
    # a -> b -> c: only c's loop has its mean in the union, a's own loop
    # does not, and b lies on no cycle, so a reaches a good component only
    # through b
    chain = GameGraph.from_edges(
        ("a", "b", "c"), (Player.EVE,) * 3,
        (Edge(0, 0, 1), Edge(0, 1, 0), Edge(1, 2, 0), Edge(2, 2, 0)), 0,
    )
    assert one_player_mp_achievable(chain, zero) == [True, True, True]


def test_one_player_achievability_is_pinned():
    # sha256 over the analysis' answers on seeded games of 1-8 vertices,
    # recorded once; the owners are ignored, one controller moves everywhere
    rng = make_rng(93)
    answers = hashlib.sha256()
    for _ in range(4000):
        g = random_game(rng, rng.randint(1, 8), max_weight=rng.randint(0, 3))
        iu = random_interval_union(rng, rng.randint(0, 3), 3, half_grid=rng.random() < 0.5)
        answers.update(repr(one_player_mp_achievable(g, iu)).encode())
    assert answers.hexdigest() == (
        "794bc1465d87ac43b0f2a6269de8e0860eddecf2e3b0efd38b342ed20cc39aad"
    )


def test_guards_are_hard_errors():
    big = GameGraph.from_edges(
        tuple(f"v{i}" for i in range(9)),
        tuple(Player.EVE for _ in range(9)),
        tuple(Edge(i, (i + 1) % 9, 0) for i in range(9)) + (Edge(0, 0, 1),),
        0,
    )
    with pytest.raises(TooLarge):
        one_player_mp_achievable(big, IntervalUnion((Interval(F(0), F(0)),)))

    wide = GameGraph.from_edges(
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


def test_finite_horizon_guard_counts_every_root(monkeypatch):
    # two vertices with two edges each: one root's tree to depth 3 has
    # 1 + 2 + 4 + 8 = 15 nodes, and the search grows one tree per vertex
    g = GameGraph.from_edges(
        ("a", "b"),
        (Player.EVE, Player.ADAM),
        (Edge(0, 0, 1), Edge(0, 1, -1), Edge(1, 0, 1), Edge(1, 1, -1)),
        0,
    )
    iu = IntervalUnion((Interval(F(0), PLUS_INF, False, True),))
    for guard in (15, 2 * 15 - 1):
        monkeypatch.setattr(oracle, "NODE_GUARD", guard)
        with pytest.raises(TooLarge, match="node guard"):
            brute_force_finite_horizon_ds(g, F(1, 2), iu, 3)
    monkeypatch.setattr(oracle, "NODE_GUARD", 2 * 15)
    assert brute_force_finite_horizon_ds(g, F(1, 2), iu, 3) <= {0, 1}


def test_discounted_values_certified_by_one_step_equations():
    rng = make_rng(61)
    lams = (F(1, 2), F(9, 10), F(19, 20), F(999, 1000))
    for i in range(320):
        g = random_game(rng, rng.randint(1, 8), max_weight=rng.randint(0, 4))
        lam = lams[i % len(lams)]
        table = ds_optimal_values(g, lam)
        assert check_ds_values(g, lam, table), (g.edges, lam)
        # the equations have one solution, so any other table fails them
        v = rng.randrange(g.n)
        column = rng.choice(("minmax", "maxmin"))
        values = list(getattr(table, column))
        values[v] += F(1, values[v].denominator)
        moved = dataclasses.replace(table, **{column: tuple(values)})
        assert not check_ds_values(g, lam, moved), (g.edges, lam, column, v)
    # the two tables of a game where the players' roles matter differ,
    # and swapping them fails
    eve = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 0), Edge(0, 0, 1)), 0)
    table = ds_optimal_values(eve, F(1, 2))
    assert check_ds_values(eve, F(1, 2), table)
    assert not check_ds_values(eve, F(1, 2), DsValueTable(table.maxmin, table.minmax))


@pytest.mark.parametrize("column", ["minmax", "maxmin"])
def test_value_table_of_the_wrong_length_fails(column):
    two = GameGraph.from_edges(
        ("a", "b"), (Player.EVE, Player.ADAM), (Edge(0, 1, 1), Edge(1, 0, 0)), 0
    )
    table = ds_optimal_values(two, F(1, 2))
    assert check_ds_values(two, F(1, 2), table)
    short = dataclasses.replace(table, **{column: getattr(table, column)[:1]})
    assert not check_ds_values(two, F(1, 2), short)


def test_oracle_results_are_pinned():
    # sha256 over the oracle's own answers on seeded families, recorded
    # once: positional regions and exactness for parity games and every
    # non-discounted payoff on rays and 0-3-piece unions, and the
    # finite-horizon search at the decision depth K and at K + 1, where
    # lambda = 19/20 mostly trips the node guard
    rng = make_rng(91)
    kinds = (None, Payoff.LIMINF, Payoff.LIMSUP, Payoff.MP_INF, Payoff.MP_SUP,
             Payoff.TOTAL_INF, Payoff.TOTAL_SUP)
    positional = hashlib.sha256()
    for i in range(1400):
        payoff = kinds[i % len(kinds)]
        if payoff is None:
            res = brute_force_positional(random_parity_game(rng, rng.randint(1, 4), max_priority=3))
        else:
            g = random_game(rng, rng.randint(1, 4), max_weight=2)
            res = brute_force_positional(g, Objective(payoff, random_interval_union(rng, 3, 3)))
        positional.update(repr((sorted(res.win_eve), sorted(res.win_adam), res.exact)).encode())
    assert positional.hexdigest() == (
        "ce9af7d5b6783fec8f5aeadae9723e550b90415adae664796959528bbe188626"
    )

    rng = make_rng(92)
    searches = hashlib.sha256()
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 3), max_weight=2)
        lam = rng.choice((F(1, 3), F(1, 2), F(2, 3), F(19, 20)))
        iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
        k = decision_depth(g, lam, iu)
        for depth in (k, k + 1):
            try:
                won = sorted(brute_force_finite_horizon_ds(g, lam, iu, depth))
            except TooLarge:
                won = "TooLarge"
            searches.update(repr(won).encode())
    assert searches.hexdigest() == (
        "af303cc31dfca0f8fc5c96eee8ea1b25fc371d02840e79156c068272d3f9088c"
    )
