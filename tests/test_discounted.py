import gc
from dataclasses import replace
from fractions import Fraction as F

import pytest

from intervalgames.arena import (
    Edge,
    GameError,
    GameGraph,
    Interval,
    IntervalUnion,
    LambdaOutOfRange,
    MINUS_INF,
    Objective,
    PLUS_INF,
    Payoff,
    Player,
    contains,
)
from intervalgames import discounted, oracle
from intervalgames.discounted import (
    NonpositiveWidth,
    SingletonNotSupported,
    SubsetSumInstance,
    decision_depth,
    ds_optimal_values,
    horizon,
    solve_ds_interval,
    subset_sum_to_ds,
)
from intervalgames.generate import random_game, random_interval_union, random_subset_sum
from intervalgames.oracle import (
    TooLarge,
    brute_force_finite_horizon_ds,
    check_ds_values,
    play_value,
    positional_ds_values,
    subset_sum_winner,
)

from conftest import loop, make_rng


def test_lasso_values():
    half = F(1, 2)
    assert play_value((), (1,), Payoff.DISCOUNTED, half) == 2
    assert play_value((1,), (0,), Payoff.DISCOUNTED, half) == 1
    assert play_value((), (1, 0), Payoff.DISCOUNTED, half) == F(4, 3)
    for lam in (F(0), F(1), F(3, 2)):
        with pytest.raises(GameError, match="not in"):
            play_value((), (1,), Payoff.DISCOUNTED, lam)
    with pytest.raises(GameError, match="nonempty"):
        play_value((1,), (), Payoff.DISCOUNTED, half)


_LOOP = loop(1)
_UNIT = IntervalUnion((Interval(F(0), F(1)),))


@pytest.mark.parametrize("lam", [F(0), F(1), F(3, 2), F(-1, 2)], ids=str)
@pytest.mark.parametrize(
    "entry",
    [
        lambda lam: Objective(Payoff.DISCOUNTED, _UNIT, lam),
        lambda lam: ds_optimal_values(_LOOP, lam),
        lambda lam: horizon(_LOOP, lam, F(1)),
        lambda lam: solve_ds_interval(_LOOP, lam, _UNIT),
        lambda lam: subset_sum_to_ds(SubsetSumInstance(1, ((1, 0),)), lam),
        lambda lam: play_value((), (1,), Payoff.DISCOUNTED, lam),
        lambda lam: check_ds_values(_LOOP, lam, ((F(2),), (F(2),))),
    ],
    ids=["Objective", "ds_optimal_values", "horizon", "solve_ds_interval",
         "subset_sum_to_ds", "play_value", "check_ds_values"],
)
def test_every_entry_point_rejects_a_discount_out_of_range(entry, lam):
    with pytest.raises(LambdaOutOfRange) as raised:
        entry(lam)
    assert str(raised.value) == f"discount factor {lam} not in (0,1)"


def test_four_values_single_loop():
    minmax, maxmin = ds_optimal_values(loop(1), F(1, 2))
    assert minmax == maxmin == (F(2),)


def test_four_values_controlled_by_one_player():
    eve = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 0), Edge(0, 0, 1)), 0)
    minmax, maxmin = ds_optimal_values(eve, F(1, 2))
    assert (minmax[0], maxmin[0]) == (2, 0)
    adam = GameGraph.from_edges(("v",), (Player.ADAM,), (Edge(0, 0, 0), Edge(0, 0, 1)), 0)
    minmax, maxmin = ds_optimal_values(adam, F(1, 2))
    assert (minmax[0], maxmin[0]) == (0, 2)


def test_four_values_bounded_by_weight_range():
    rng = make_rng(51)
    for _ in range(50):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        lam = rng.choice((F(1, 2), F(2, 3)))
        minmax, maxmin = ds_optimal_values(g, lam)
        bound = F(max(abs(e.weight) for e in g.edges)) / (1 - lam)
        for v in range(g.n):
            assert -bound <= minmax[v] <= bound
            assert -bound <= maxmin[v] <= bound


def test_four_values_match_positional_strategy_enumeration():
    # minmax[v] is the best over Eve's positional strategies of the worst
    # over Adam's; maxmin[v] the worst over Eve's of the best over Adam's
    rng = make_rng(53)
    for _ in range(60):
        g = random_game(rng, rng.randint(1, 5), max_weight=3)
        lam = rng.choice((F(1, 2), F(2, 3), F(3, 5), F(9, 10)))
        assert ds_optimal_values(g, lam) == positional_ds_values(g, lam), (g, lam)


# The strategy iteration as it was on `Fraction`s, kept as the reference
# that the integer one must reproduce round for round and switch for switch.


def _fraction_profile_values(g, lam, choice):
    values = [None] * g.n
    for start in range(g.n):
        if values[start] is not None:
            continue
        path = []
        pos = {}
        v = start
        while values[v] is None and v not in pos:
            pos[v] = len(path)
            path.append(v)
            v = g.edges[choice[v]].dst
        if values[v] is None:
            cycle = path[pos[v]:]
            cur = play_value((), [g.weight[choice[u]] for u in cycle], Payoff.DISCOUNTED, lam)
            for u in cycle:
                values[u] = cur
                cur = (cur - g.edges[choice[u]].weight) / lam
        for u in reversed(path):
            if values[u] is None:
                e = g.edges[choice[u]]
                values[u] = e.weight + lam * values[e.dst]
    return values


def _fraction_improve(g, lam, choice, values, vertices):
    changed = False
    for v in vertices:
        eve = g.owner[v] is Player.EVE
        best_j = choice[v]
        best = values[v]
        for j in g.out_edges[v]:
            e = g.edges[j]
            cand = e.weight + lam * values[e.dst]
            if (cand > best) if eve else (cand < best):
                best = cand
                best_j = j
        if best_j != choice[v]:
            choice[v] = best_j
            changed = True
    return changed


def _fraction_minmax(g, lam):
    eve_vertices = [v for v in range(g.n) if g.owner[v] is Player.EVE]
    adam_vertices = [v for v in range(g.n) if g.owner[v] is Player.ADAM]
    choice = [edges[0] for edges in g.out_edges]

    def improve(values, vertices, maximize):
        # the integer evaluation and switches agree with these at each round
        pairs = discounted._profile_values(g, lam, choice)
        assert [F(num, den) for num, den in pairs] == values
        mirror = list(choice)
        changed = _fraction_improve(g, lam, choice, values, vertices)
        assert discounted._improve(g, lam, mirror, pairs, vertices, maximize) == changed
        assert mirror == choice
        return changed

    while True:
        values = _fraction_profile_values(g, lam, choice)
        if improve(values, adam_vertices, False):
            continue
        if not improve(values, eve_vertices, True):
            return values


def test_integer_iteration_matches_the_fraction_reference():
    rng = make_rng(58)
    lams = (F(1, 3), F(3, 7), F(1, 2), F(2, 3), F(3, 4), F(4, 5), F(9, 10), F(19, 20))
    for i in range(1200):
        g = random_game(rng, rng.randint(1, 10), max_weight=rng.randint(0, 4))
        lam = lams[i % len(lams)]
        negated = replace(g, weight=tuple(-w for w in g.weight))
        reference = (
            tuple(_fraction_minmax(g, lam)),
            tuple(-x for x in _fraction_minmax(negated, lam)),
        )
        table = ds_optimal_values(g, lam)
        assert hash(table) == hash(reference) and table == reference, (g.edges, lam)


def _profile_with_cycle(rng, length, tail):
    """A game and an edge choice per vertex under which vertices
    0..length-1 form one cycle and each of the `tail` further vertices
    leads to an earlier vertex; every vertex also has a spare edge."""
    n = length + tail
    succ = [(v + 1) % length if v < length else rng.randrange(v) for v in range(n)]
    edges = []
    choice = []
    for v in range(n):
        spare = Edge(v, rng.randrange(n), rng.randint(-4, 4))
        chosen = Edge(v, succ[v], rng.randint(-4, 4))
        pair = [spare, chosen] if rng.random() < 0.5 else [chosen, spare]
        choice.append(len(edges) + pair.index(chosen))
        edges += pair
    owner = tuple(rng.choice((Player.EVE, Player.ADAM)) for _ in range(n))
    return GameGraph.from_edges(tuple(f"v{v}" for v in range(n)), owner, tuple(edges), 0), choice


def test_profile_pairs_are_lasso_values():
    rng = make_rng(59)
    lams = (F(1, 3), F(2, 3), F(3, 7), F(9, 10), F(19, 20), F(999, 1000))
    for length in range(1, 11):
        for _ in range(30):
            g, choice = _profile_with_cycle(rng, length, rng.randint(0, 6))
            lam = rng.choice(lams)
            pairs = discounted._profile_values(g, lam, choice)
            for v, (num, den) in enumerate(pairs):
                assert den > 0
                prefix, cycle = oracle._lasso_from(choice, g, v)
                assert len(cycle) == length
                expected = play_value(prefix, cycle, Payoff.DISCOUNTED, lam)
                assert F(num, den) == expected, (g.edges, choice, lam, v)


def test_horizon_examples():
    g = loop(1)
    assert horizon(g, F(1, 2), F(2)) == 1
    assert horizon(g, F(1, 2), F(1, 2)) == 3
    with pytest.raises(NonpositiveWidth):
        horizon(g, F(1, 2), F(0))
    # the narrowest piece is the gap (1, 3/2), of width 1/2
    iu = IntervalUnion((Interval(F(0), F(1)), Interval(F(3, 2), F(4))))
    assert decision_depth(g, F(1, 2), iu) == horizon(g, F(1, 2), F(1, 2)) + 1 == 4
    # with no bounded interval or gap every node decides at the root
    ray = IntervalUnion((Interval(F(0), PLUS_INF, False, True),))
    assert decision_depth(g, F(1, 2), ray) == 1
    assert decision_depth(g, F(1, 2), IntervalUnion(())) == 1


def test_horizon_defining_inequality():
    rng = make_rng(52)
    for _ in range(200):
        g = random_game(rng, rng.randint(1, 4), max_weight=3)
        lam = rng.choice((F(1, 2), F(2, 3), F(3, 4)))
        w = max(abs(e.weight) for e in g.edges)
        if w == 0:
            continue
        bound = F(2 * w) / (1 - lam)
        width = F(rng.randint(1, 4 * bound.numerator), 4)
        if width > bound:
            continue
        n = horizon(g, lam, width)
        assert lam ** (n + 1) * bound < width
        assert width <= lam ** n * bound


def test_solver_trivial_loops():
    g = loop(1)
    inside = IntervalUnion((Interval(F(3, 2), F(5, 2), True, True),))
    assert solve_ds_interval(g, F(1, 2), inside).win_eve == frozenset({0})
    outside = IntervalUnion((Interval(F(0), F(1), True, True),))
    assert solve_ds_interval(g, F(1, 2), outside).win_adam == frozenset({0})
    # with every weight 0 the payoff is exactly 0
    for piece, eve_wins in (
        (Interval(F(-1, 2), F(1, 2)), True),
        (Interval(F(0), PLUS_INF, False, True), True),
        (Interval(F(1, 2), F(3, 2), True, True), False),
        (Interval(F(0), PLUS_INF, True, True), False),
    ):
        res = solve_ds_interval(loop(0), F(1, 2), IntervalUnion((piece,)))
        assert res.win_eve == (frozenset({0}) if eve_wins else frozenset()), piece
        assert res.win_adam == (frozenset() if eve_wins else frozenset({0})), piece


def test_singleton_rejection():
    g = loop(1)
    point = IntervalUnion((Interval(F(2), F(2)),))
    with pytest.raises(SingletonNotSupported):
        solve_ds_interval(g, F(1, 2), point)
    gap = IntervalUnion(
        (Interval(F(0), F(1), False, True), Interval(F(1), F(2), True, False))
    )
    assert gap.has_singleton
    with pytest.raises(SingletonNotSupported):
        solve_ds_interval(g, F(1, 2), gap)


def test_unbounded_threshold_style_union():
    adam = GameGraph.from_edges(("v",), (Player.ADAM,), (Edge(0, 0, 0), Edge(0, 0, 1)), 0)
    ray = IntervalUnion((Interval(F(1), PLUS_INF, False, True),))
    # Adam minimizes to 0, below the ray
    assert solve_ds_interval(adam, F(1, 2), ray).win_adam == frozenset({0})
    low = IntervalUnion((Interval(MINUS_INF, F(0), True, False),))
    # and maximizes to 2 against the low ray
    assert solve_ds_interval(adam, F(1, 2), low).win_adam == frozenset({0})
    eve = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 0), Edge(0, 0, 1)), 0)
    assert solve_ds_interval(eve, F(1, 2), low).win_eve == frozenset({0})
    assert solve_ds_interval(eve, F(1, 2), ray).win_eve == frozenset({0})


def test_subset_sum_reduction_structure():
    s = SubsetSumInstance(target=1, pairs=((1, 2),))
    g, iu, lam, scale = subset_sum_to_ds(s, F(1, 2))
    assert g.n == 2 and len(g.edges) == 3
    assert scale == 1
    assert {e.weight for e in g.edges} == {0, 1, 2}
    assert iu.intervals[0] == Interval(F(0), F(2), True, True)
    assert g.owner[0] is Player.ADAM
    res = solve_ds_interval(g, lam, iu)
    assert 0 in res.win_adam
    assert not subset_sum_winner(1, ((1, 2),))


def test_subset_sum_two_round_example():
    s = SubsetSumInstance(target=4, pairs=((1, 2), (3, 2)))
    g, iu, lam, _ = subset_sum_to_ds(s, F(1, 2))
    assert g.n == 3 and len(g.edges) == 5
    res = solve_ds_interval(g, lam, iu)
    assert 0 in res.win_eve
    assert subset_sum_winner(4, ((1, 2), (3, 2)))


def test_subset_sum_nontrivial_discount_scales_integrally():
    s = SubsetSumInstance(target=3, pairs=((1, 2), (2, 0)))
    g, iu, lam, scale = subset_sum_to_ds(s, F(2, 3))
    assert scale == 2
    assert all(isinstance(e.weight, int) for e in g.edges)
    res = solve_ds_interval(g, lam, iu)
    assert (0 in res.win_eve) == subset_sum_winner(3, ((1, 2), (2, 0)))


def test_subset_sum_fidelity_suite():
    rng = make_rng(53)
    # with p > 1 the reduction scales by p^(n-1) and the solver steps by p^k
    for lam, count, max_pairs in ((F(1, 2), 100, 10), (F(2, 3), 40, 6), (F(3, 5), 40, 6)):
        for _ in range(count):
            inst = random_subset_sum(rng, rng.randint(1, max_pairs), max_value=8)
            g, iu, _, _ = subset_sum_to_ds(inst, lam)
            res = solve_ds_interval(g, lam, iu)
            expected = subset_sum_winner(inst.target, inst.pairs)
            assert (0 in res.win_eve) == expected, (inst, lam)


def test_agreement_with_unpruned_reference():
    rng = make_rng(55)
    for _ in range(120):
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        lam = rng.choice((F(1, 2), F(2, 3)))
        iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
        reference = brute_force_finite_horizon_ds(g, lam, iu, decision_depth(g, lam, iu))
        assert reference == solve_ds_interval(g, lam, iu).win_eve
    # larger discount factors keep more endpoints in the ball for longer
    compared = 0
    while compared < 60:
        g = random_game(rng, rng.randint(1, 3), max_weight=1)
        lam = rng.choice((F(3, 4), F(4, 5)))
        iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
        try:
            reference = brute_force_finite_horizon_ds(g, lam, iu, decision_depth(g, lam, iu))
        except TooLarge:
            continue
        assert reference == solve_ds_interval(g, lam, iu).win_eve, (g.edges, lam, iu)
        compared += 1


def _off_grid_union(rng):
    """One or two bounded pieces at most 1 wide with endpoints over 3, 5
    or 7, each end open or closed at random, and a right-unbounded ray
    half the time."""

    def point(span):
        den = rng.choice((3, 5, 7))
        return F(rng.randint(-span * den, span * den), den)

    while True:
        pieces = []
        for _ in range(rng.randint(1, 2)):
            a = point(3)
            b = a + (abs(point(1)) or 1)
            pieces.append(Interval(a, b, rng.random() < 0.5, rng.random() < 0.5))
        if rng.random() < 0.5:
            pieces.append(Interval(point(3), PLUS_INF, rng.random() < 0.5, True))
        iu = IntervalUnion(tuple(pieces))
        if not iu.has_singleton:
            return iu


def test_agreement_with_unpruned_reference_off_the_half_grid():
    # endpoint denominators 3, 5 and 7 and discount factors p/q with p > 1:
    # a scale that misses a denominator or a power of p shows here
    rng = make_rng(57)
    compared = rays = split = 0
    while compared < 150:
        g = random_game(rng, rng.randint(1, 3), max_weight=2)
        lam = rng.choice((F(1, 3), F(3, 5), F(2, 7), F(5, 7)))
        iu = _off_grid_union(rng)
        try:
            reference = brute_force_finite_horizon_ds(g, lam, iu, decision_depth(g, lam, iu))
        except TooLarge:
            continue
        assert reference == solve_ds_interval(g, lam, iu).win_eve, (g.edges, lam, iu)
        compared += 1
        rays += iu.intervals[-1].hi == PLUS_INF
        split += 0 < len(reference) < g.n
    assert rays >= 40 and split >= 20, (rays, split)


def _all_lassos(g, start, max_len):
    """The (prefix, cycle) weights of every lasso from start with prefix
    and cycle at most max_len long: any split of a walk whose suffix
    returns to its own first vertex."""
    out = []

    def extend(walk):
        if walk:
            for i in range(max(0, len(walk) - max_len), len(walk)):
                if i <= max_len and walk[i].src == walk[-1].dst:
                    weights = tuple(e.weight for e in walk)
                    out.append((weights[:i], weights[i:]))
        if len(walk) < 2 * max_len:
            v = walk[-1].dst if walk else start
            for j in g.out_edges[v]:
                extend(walk + [g.edges[j]])

    extend([])
    return out


def test_one_player_lasso_consistency():
    rng = make_rng(56)
    done = 0
    while done < 40:
        g = random_game(rng, rng.randint(1, 4), max_weight=2)
        if any(o is Player.ADAM for o in g.owner):
            g = GameGraph.from_edges(
                g.names, tuple(Player.EVE for _ in range(g.n)), g.edges, g.initial
            )
        lam = F(1, 2)
        iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
        res = solve_ds_interval(g, lam, iu)
        for v in range(g.n):
            achievable = any(
                contains(iu, play_value(*lasso, Payoff.DISCOUNTED, lam))
                for lasso in _all_lassos(g, v, g.n)
            )
            assert (v in res.win_eve) == achievable, (g.edges, iu, v)
        done += 1


def test_discount_close_to_one():
    # regions recorded from a forward search over the sums, which needs up
    # to half a minute and over a gigabyte on these arenas at lambda = 9/10
    iu = IntervalUnion((Interval(F(-1), F(0), False, True), Interval(F(1), F(2))))
    for seed, eve in ((1, {2, 3, 5, 8}), (2, {2, 4, 7, 8, 9}), (3, {1, 5}), (4, set()), (5, set())):
        g = random_game(make_rng(seed), 10, max_weight=3)
        assert solve_ds_interval(g, F(9, 10), iu).win_eve == eve, seed
    # decision depths 528 and 1,196: Eve loops at a for a payoff of exactly
    # 0, and Adam loops at b for 1/(1 - lam), above the interval
    g = GameGraph.from_edges(
        ("a", "b"),
        (Player.EVE, Player.ADAM),
        (Edge(0, 1, 1), Edge(0, 0, 0), Edge(1, 0, -1), Edge(1, 1, 1)),
        0,
    )
    unit = IntervalUnion((Interval(F(0), F(1)),))
    for lam in (F(99, 100), F(199, 200)):
        assert solve_ds_interval(g, lam, unit).win_eve == {0}, lam


def test_search_leaves_no_cyclic_garbage():
    # the command line pauses the cyclic collector, so the winning sets must
    # be freed by reference counting alone when the solve returns
    g = random_game(make_rng(1), 8, max_weight=3)
    iu = IntervalUnion((Interval(F(-1), F(0), False, True), Interval(F(1), F(2))))
    gc.collect()
    gc.disable()
    try:
        regions = solve_ds_interval(g, F(1, 2), iu)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert regions.win_eve and regions.win_adam
