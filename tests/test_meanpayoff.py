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
    Regions,
    complement_intervals,
    normalize,
)
from intervalgames.generate import (
    random_game,
    random_interval_union,
    random_objective,
    random_parity_game,
)
from intervalgames import meanpayoff
from intervalgames.meanpayoff import (
    PriorityOutOfRange,
    _energy_credits,
    _nested_objectives,
    _threshold,
    parity_to_mp,
    solve_mp_interval,
)
from intervalgames.oracle import brute_force_positional, one_player_mp_achievable
from intervalgames.parity import ParityGame, _run_frames, attractor, solve_parity

from conftest import RAYS, loop, make_rng


def mp_ray(g, cmp, a):
    """The regions of "MP cmp a", solved as the one-ray union."""
    return solve_mp_interval(g, IntervalUnion((RAYS[cmp](a),)))


FIG1 = GameGraph.from_edges(
    names=("q0", "q1"),
    owner=(Player.EVE, Player.ADAM),
    edges=(Edge(0, 1, 1), Edge(1, 1, 2), Edge(1, 0, 1), Edge(0, 0, 0)),
    initial=0,
)
FIG1_UNION = IntervalUnion(
    (Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True))
)


def test_threshold_trivia():
    assert mp_ray(loop(1), ">=", F(0)).win_eve == frozenset({0})
    assert mp_ray(loop(0), ">", F(0)).win_adam == frozenset({0})
    two = GameGraph.from_edges(
        ("v",), (Player.ADAM,), (Edge(0, 0, 0), Edge(0, 0, 2)), 0
    )
    assert mp_ray(two, ">=", F(1)).win_adam == frozenset({0})


def test_threshold_le_lt():
    assert mp_ray(loop(1), "<=", F(1)).win_eve == frozenset({0})
    assert mp_ray(loop(1), "<", F(1)).win_adam == frozenset({0})


def record_rounds(monkeypatch) -> list[list]:
    """Patch the threshold solver to log, per threshold, each of its energy
    games as (side, cap): side "player" for the game of the player the
    threshold asks about, which opens every round, and "opponent" for his
    game; cap the `_cap_units` (None for the round at Brim's bound)."""
    thresholds: list[list] = []
    sides: dict[Player, str] = {}
    threshold, credits = meanpayoff._threshold, meanpayoff._energy_credits

    def logged_threshold(g, alive, player, a, strict):
        thresholds.append([])
        sides[player], sides[player.opponent] = "player", "opponent"
        return threshold(g, alive, player, a, strict)

    def logged_credits(g, alive, player, scale, offset, _cap_units=None):
        thresholds[-1].append((sides[player], _cap_units))
        return credits(g, alive, player, scale, offset, _cap_units)

    monkeypatch.setattr(meanpayoff, "_threshold", logged_threshold)
    monkeypatch.setattr(meanpayoff, "_energy_credits", logged_credits)
    return thresholds


def round_caps(games: list) -> list:
    """The cap of each round of one threshold, read off its player's games."""
    return [cap for side, cap in games if side == "player"]


def test_threshold_credit_equal_to_the_cap(monkeypatch):
    # k chain edges into a weight-0 loop: rescaled by n = k + 1, the chain
    # head needs credit k * n, which is exactly the progress-measure cap
    # (the sum of every vertex's most negative rescaled edge)
    thresholds = record_rounds(monkeypatch)
    for k in range(1, 5):
        for w, owner in itertools.product((-1, 1), Player):
            chain_edges = tuple(Edge(i, i + 1, w) for i in range(k)) + (Edge(k, k, 0),)
            n = k + 1
            everything = frozenset(range(n))
            chain = GameGraph.from_edges(
                tuple(f"v{i}" for i in range(n)),
                (owner,) * n,
                chain_edges,
                0,
            )
            # w = -1 tests Eve's measure at the cap, w = 1 tests Adam's
            assert mp_ray(chain, ">=", F(0)).win_eve == everything
            assert mp_ray(chain, ">", F(0)).win_adam == everything
            # The same chain and one more vertex r = k + 1, which enters
            # the chain head at weight w or loops at weight 0, owned by the
            # other side than the one whose measure is tested (Adam for
            # w = -1).  Rescaled by n = k + 2, r needs credit (k + 1) * n,
            # the cap again, and past the first cap of one rescaled weight,
            # n + 1.  That first round certifies the chain's tail, and the
            # closure takes the whole chain, whose vertices have one edge
            # each, but not r, whose owner may stay on its loop: so only a
            # later round, with a higher cap, decides r.
            n = k + 2
            everything = frozenset(range(n))
            r_owner = Player.ADAM if w == -1 else Player.EVE
            escape = GameGraph.from_edges(
                tuple(f"v{i}" for i in range(n)),
                (owner,) * (k + 1) + (r_owner,),
                chain_edges + (Edge(k + 1, 0, w), Edge(k + 1, k + 1, 0)),
                0,
            )
            # one side wins everything, so each ray solve is one threshold
            assert mp_ray(escape, ">=", F(0)).win_eve == everything
            assert mp_ray(escape, ">", F(0)).win_adam == everything
            ge_rounds, gt_rounds = (len(round_caps(games)) for games in thresholds[-2:])
            assert (ge_rounds if w == -1 else gt_rounds) > 1


def test_capped_measure_is_a_certificate():
    # under every cap, the finite entries of the least fixpoint are a
    # progress measure for the player, they only grow with the cap, and
    # at Brim's bound they are exactly the player's energy region
    rng = make_rng(50)
    for _ in range(300):
        g = random_game(rng, rng.randint(1, 8), max_weight=rng.randint(1, 4))
        alive = frozenset(range(g.n))
        a = F(rng.randint(-6, 6), rng.randint(1, 3))
        scale, offset = a.denominator * g.n, a.numerator * g.n
        for strict in (False, True):
            games = (
                (Player.EVE, scale, -offset - strict),
                (Player.ADAM, -scale, offset - 1 + strict),
            )
            for player, s, o in games:
                grown = frozenset()
                for units in list(range(g.n + 2)) + [None]:
                    f, top = _energy_credits(g, alive, player, s, o, units)
                    finite = frozenset(v for v in alive if f[v] < top)
                    for v in finite:
                        out = [g.edges[j] for j in g.out_edges[v]]
                        kept = [
                            f[e.dst] < top and f[e.dst] - (s * e.weight + o) <= f[v]
                            for e in out
                        ]
                        assert f[v] >= 0
                        assert any(kept) if g.owner[v] is player else all(kept)
                    assert grown <= finite
                    grown = finite
                    if units is None or units >= g.n:
                        assert finite == energy_region(g, alive, player, s, o)


def energy_region(g, alive, player, scale, offset):
    """The finite entries of the measure at Brim's bound: exactly the
    player's energy region."""
    f, top = _energy_credits(g, alive, player, scale, offset)
    return frozenset(v for v in alive if f[v] < top)


def threshold_at_the_bound(g, alive, player, a, strict, sign=1):
    """The threshold solver before the credit cap grew in rounds: both
    energy games at Brim's bound, then the partition check."""
    n = len(alive)
    scale, offset = sign * a.denominator * n, a.numerator * n
    won = energy_region(g, alive, player, scale, -offset - strict)
    lost = energy_region(g, alive, player.opponent, -scale, offset - 1 + strict)
    Regions(win_eve=won, win_adam=lost).check_partition(alive)
    return won


def test_threshold_agrees_with_both_games_at_the_bound(monkeypatch):
    rng = make_rng(51)
    cases = []
    for _ in range(1500):
        g = random_game(rng, rng.randint(1, 6), max_weight=3)
        iu = random_interval_union(rng, 3, 4, half_grid=True)
        cases.append((g, iu, F(rng.randint(-8, 8), 2)))

    def solve_all():
        return [
            (solve_mp_interval(g, iu),)
            + tuple(mp_ray(g, cmp, a) for cmp in RAYS)
            for g, iu, a in cases
        ]

    with monkeypatch.context() as m:
        m.setattr(meanpayoff, "_threshold", threshold_at_the_bound)
        at_the_bound = solve_all()
    thresholds = record_rounds(monkeypatch)
    assert solve_all() == at_the_bound
    escalated = [round_caps(games) for games in thresholds if len(round_caps(games)) > 1]
    assert escalated
    assert any(caps[-1] is None for caps in escalated)


def test_most_thresholds_decided_under_a_low_cap(monkeypatch):
    # the arena family of the benchmark's mean-payoff workload: a later
    # change that climbs to Brim's bound on every threshold fails here
    thresholds = record_rounds(monkeypatch)
    rng = make_rng(52)
    for _ in range(30):
        g = random_game(rng, rng.randint(30, 60))
        o = random_objective(rng, rng.choice((Payoff.MP_INF, Payoff.MP_SUP)), max_pieces=2)
        g, o = normalize(g, o)
        solve_mp_interval(g, o.intervals)
    first = sum(round_caps(games) == [1] for games in thresholds)
    second = sum(round_caps(games) == [1, 4] for games in thresholds)
    assert thresholds and first >= 0.6 * len(thresholds)
    assert first + second >= 0.9 * len(thresholds)


def threshold_on_all_of_alive(g, alive, player, a, strict, sign=1):
    """The threshold solver before its rounds shrank: every round solves
    both energy games on all of `alive`, and the cap grows until the two
    regions cover it."""
    n = len(alive)
    scale, offset = sign * a.denominator * n, a.numerator * n
    units = 1
    while True:
        cap_units = None if units >= n else units
        f, top = _energy_credits(g, alive, player, scale, -offset - strict, cap_units)
        won = frozenset(v for v in alive if f[v] < top)
        f, top = _energy_credits(g, alive, player.opponent, -scale, offset - 1 + strict, cap_units)
        lost = frozenset(v for v in alive if f[v] < top)
        if cap_units is None or len(won | lost) == n:
            break
        units *= 4
    Regions(win_eve=won, win_adam=lost).check_partition(alive)
    return won


def interval_win_every_frame(g, nested, level, alive, player, sign):
    """`meanpayoff._interval_win` before it skipped frames: it solves the
    next level's frame after every threshold, an empty one too, and each
    threshold with `threshold_on_all_of_alive`."""
    if level == len(nested):
        return frozenset()
    iu = nested[level]
    a = iu.inf
    if a == MINUS_INF:
        dual = yield interval_win_every_frame(g, nested, level + 1, alive, player.opponent, sign)
        return alive - dual
    strict = iu.intervals[0].lo_open
    lost = frozenset()
    while len(lost) < len(alive):
        current = alive - lost
        won = threshold_on_all_of_alive(g, current, player, a, strict, sign)
        won &= yield interval_win_every_frame(g, nested, level + 1, current, player, sign)
        if won == current:
            break
        lost = attractor(g, alive - won, player.opponent, alive)
    return alive - lost


def solve_every_frame(g, iu, sign=1):
    alive = frozenset(range(g.n))
    frame = interval_win_every_frame(g, _nested_objectives(iu), 0, alive, Player.EVE, sign)
    win_eve = _run_frames(frame)
    return Regions(win_eve=win_eve, win_adam=alive - win_eve)


def test_pruned_fixpoint_agrees_with_the_full_one():
    rng = make_rng(53)
    for _ in range(1500):
        g = random_game(rng, rng.randint(1, 6), max_weight=3)
        iu = IntervalUnion(())
        while not 1 <= len(iu.intervals) <= 4:
            iu = random_interval_union(rng, 4, half_grid=True)
        sign = rng.choice((1, -1))  # mp-inf, or mp-sup on the mirrored union
        o = Objective(Payoff.MP_INF, iu) if sign > 0 else Objective(Payoff.MP_SUP, iu.negate())
        gn, on = normalize(g, o)
        assert solve_mp_interval(gn, on.intervals) == solve_every_frame(g, iu, sign)
    for _ in range(200):
        p = random_parity_game(rng, rng.randint(1, 5), max_priority=3)
        p = dataclasses.replace(p, priority=tuple(min(q, p.n) for q in p.priority))
        g, iu = parity_to_mp(p)
        assert solve_mp_interval(g, iu) == solve_every_frame(g, iu)


def test_fixpoint_prunes_frames_and_rounds(monkeypatch):
    # the benchmark's two mean-payoff families: arenas of 30-60 vertices
    # with unions of up to two pieces, and parity gadgets of 4-5 vertices
    # None for a frame entry, a threshold's region, "solved" after a solve
    events = []
    # per threshold, its arena, its player and, for each energy game, the
    # side solving it, its vertices and its finite region
    rounds = []
    threshold, frame, credits = (
        meanpayoff._threshold, meanpayoff._interval_win, meanpayoff._energy_credits
    )

    def logged_threshold(g, alive, player, a, strict):
        rounds.append((g, player, []))
        won = threshold(g, alive, player, a, strict)
        events.append(won)
        return won

    def logged_frame(*args):
        events.append(None)
        return frame(*args)

    def logged_credits(g, alive, player, *args):
        # every energy game is solved on a subgame: each of its vertices
        # keeps an edge into it
        for v in alive:
            assert any(g.dst[j] in alive for j in g.out_edges[v])
        f, top = credits(g, alive, player, *args)
        rounds[-1][2].append((player, alive, frozenset(v for v in alive if f[v] < top)))
        return f, top

    monkeypatch.setattr(meanpayoff, "_threshold", logged_threshold)
    monkeypatch.setattr(meanpayoff, "_interval_win", logged_frame)
    monkeypatch.setattr(meanpayoff, "_energy_credits", logged_credits)
    rng = make_rng(54)
    for _ in range(20):
        g = random_game(rng, rng.randint(30, 60))
        payoff = rng.choice((Payoff.MP_INF, Payoff.MP_SUP))
        g, o = normalize(g, random_objective(rng, payoff, max_pieces=2))
        solve_mp_interval(g, o.intervals)
        events.append("solved")
    for _ in range(20):
        g, iu = parity_to_mp(random_parity_game(rng, rng.randint(4, 5)))
        solve_mp_interval(g, iu)
        events.append("solved")
    # a level+1 frame follows every nonempty threshold region, and no
    # frame follows an empty one
    follows = [
        (won, after)
        for won, after in zip(events, events[1:])
        if isinstance(won, frozenset)
    ]
    assert any(not won for won, _ in follows)
    for won, after in follows:
        assert (after is None) == bool(won)
    # a round opens with the player's game on the round's vertices; the
    # opponent's game follows on exactly those outside her attractor of
    # her finite region there, and is absent exactly when none are; each
    # later round solves some of the earlier round's vertices
    shrank = skipped = False
    for g, player, games in rounds:
        rests = []
        i = 0
        while i < len(games):
            side, rest, won_here = games[i]
            assert side is player
            other = rest - attractor(g, won_here, player, rest)
            if other:
                assert games[i + 1][:2] == (player.opponent, other)
                i += 1
            skipped |= not other
            rests.append(rest)
            i += 1
        for earlier, later in zip(rests, rests[1:]):
            assert later <= earlier
            shrank |= later < earlier
    assert shrank and skipped


def test_threshold_agrees_with_both_games_on_all_of_alive(monkeypatch):
    # weights up to 20 make the first caps too low to cover, so many
    # thresholds run later rounds on what the player's attractor leaves
    thresholds = record_rounds(monkeypatch)
    rng = make_rng(55)
    for _ in range(300):
        g = random_game(rng, rng.randint(4, 16), max_weight=20)
        alive = frozenset(range(g.n))
        a = F(rng.randint(-10, 10), rng.randint(1, 2))
        for player, strict in itertools.product(Player, (False, True)):
            expected = threshold_on_all_of_alive(g, alive, player, a, strict)
            assert meanpayoff._threshold(g, alive, player, a, strict) == expected
    assert sum(len(round_caps(games)) >= 2 for games in thresholds) >= 50


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
        everything = frozenset(range(g.n))
        ge = mp_ray(g, ">=", a)
        assert ge.win_eve == _threshold(g, everything, Player.EVE, a, False)
        # Eve keeps MP <= a exactly where Adam cannot force MP > a
        le = mp_ray(g, "<=", a)
        assert le.win_eve == everything - _threshold(g, everything, Player.ADAM, a, True)


def test_single_interval_examples():
    zero = IntervalUnion((Interval(F(0), F(0)),))
    assert solve_mp_interval(loop(0), zero).win_eve == frozenset({0})
    swing_adam = GameGraph.from_edges(
        ("v",), (Player.ADAM,), (Edge(0, 0, -1), Edge(0, 0, 1)), 0
    )
    assert solve_mp_interval(swing_adam, zero).win_adam == frozenset({0})
    swing_eve = GameGraph.from_edges(
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
        reference = brute_force_positional(g, Objective(Payoff.MP_INF, iu))
        assert solved.win_adam == reference.win_adam
        assert reference.win_eve <= solved.win_eve


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
    g = GameGraph.from_edges(
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
    p = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (0,), 0)
    g, iu = parity_to_mp(p)
    assert g.n == 4
    assert len(g.edges) == 1 + 6
    assert sorted({e.weight for e in g.edges}) == [-1, 0, 1]
    assert iu.intervals[0] == Interval(F(0), F(1), False, True)
    assert solve_parity(p).win_eve == frozenset({0})
    assert 0 in solve_mp_interval(g, iu).win_eve

    podd = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (1,), 0)
    g, iu = parity_to_mp(podd)
    assert 0 in solve_mp_interval(g, iu).win_adam


def test_parity_gadget_counts():
    rng = make_rng(47)
    p = random_parity_game(rng, 5, max_priority=3)
    g, iu = parity_to_mp(p)
    assert g.n == 4 * p.n
    assert len(g.edges) == len(p.edges) + 6 * p.n


def test_parity_priority_out_of_range():
    p = ParityGame.from_edges(("v",), (Player.EVE,), (Edge(0, 0),), (7,), 0)
    with pytest.raises(PriorityOutOfRange):
        parity_to_mp(p)


def test_parity_winner_preserved_through_gadgets():
    rng = make_rng(48)
    for _ in range(200):
        p = random_parity_game(rng, rng.randint(1, 5), max_priority=3)
        p = ParityGame.from_edges(
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
