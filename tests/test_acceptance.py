"""Acceptance suite: every criterion at its stated size, exact arithmetic,
zero tolerance, one PASS/FAIL line per criterion on stdout."""

import contextlib
import json
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
    Verdict,
)
from intervalgames.cli import main as cli_main
from intervalgames.discounted import (
    SingletonNotSupported,
    _min_decision_width,
    horizon,
    solve_ds_interval,
    subset_sum_to_ds,
)
from intervalgames.generate import (
    random_countdown,
    random_game,
    random_interval_union,
    random_parity_game,
    random_subset_sum,
)
from intervalgames.liminf import integerize, liminf_to_parity, parity_to_liminf, solve_liminf
from intervalgames.meanpayoff import _threshold, parity_to_mp, solve_mp_interval
from intervalgames.oracle import (
    TooLarge,
    brute_force_finite_horizon_ds,
    brute_force_positional,
    countdown_winner,
    subset_sum_winner,
)
from intervalgames.parity import ParityGame, solve_parity
from intervalgames.totalsum import countdown_to_total, solve_total_interval

from conftest import make_rng, pm_has_finite_endpoint

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

FIG1 = GameGraph.from_edges(
    ("q0", "q1"),
    (Player.EVE, Player.ADAM),
    (Edge(0, 1, 1), Edge(1, 1, 2), Edge(1, 0, 1), Edge(0, 0, 0)),
    0,
)
FIG1_UNION = IntervalUnion(
    (Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True))
)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_acceptance_01_determinacy():
    with criterion(1, "determinacy partitions"):
        rng = make_rng(101)
        for _ in range(400):
            g = random_game(rng, rng.randint(1, 6), max_weight=3)
            iu = random_interval_union(rng, 2, 3)
            solve_liminf(g, iu).check_partition(frozenset(range(g.n)))
        for _ in range(350):
            g = random_game(rng, rng.randint(1, 6), max_weight=3)
            iu = random_interval_union(rng, 2, 3)
            regions = solve_mp_interval(g, iu)
            regions.check_partition(frozenset(range(g.n)))
            assert not regions.unknown
        for _ in range(250):
            g = random_game(rng, rng.randint(1, 6), max_weight=3)
            lam = F(1, 2) if rng.random() < 0.8 else F(2, 3)
            iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
            regions = solve_ds_interval(g, lam, iu)
            regions.check_partition(frozenset(range(g.n)))
            assert not regions.unknown
        done = 0
        while done < 100:
            g = random_game(rng, rng.randint(1, 4), max_weight=2)
            iu = random_interval_union(rng, 2, 2)
            if not pm_has_finite_endpoint(iu):
                continue
            res = solve_total_interval(g, iu)
            res.vertices.check_partition(frozenset(range(g.n)))
            done += 1


def test_acceptance_02_liminf_parity_equivalence():
    with criterion(2, "liminf and parity reductions preserve winners"):
        rng = make_rng(102)
        for _ in range(300):
            g = random_game(rng, rng.randint(1, 5), max_weight=3)
            iu = random_interval_union(rng, 2, 3)
            via_parity = solve_liminf(g, iu)
            reference = brute_force_positional(g, Objective(Payoff.LIMINF, iu))
            assert reference.exact
            assert via_parity.win_eve == reference.win_eve
            if not integerize(iu).is_empty:
                p = liminf_to_parity(g, iu)
                solved = solve_parity(p)
                assert {v for v in solved.win_eve if v < g.n} == set(reference.win_eve)
        for _ in range(300):
            p = random_parity_game(rng, rng.randint(1, 5), max_priority=3)
            g, iu = parity_to_liminf(p)
            direct = solve_parity(p)
            through = solve_liminf(g, iu)
            assert through.win_eve == direct.win_eve
            reference = brute_force_positional(p)
            assert reference.win_eve == direct.win_eve


def test_acceptance_03_memory_phenomenon():
    with criterion(3, "band-union instance beats every positional strategy"):
        regions = solve_mp_interval(FIG1, FIG1_UNION)
        assert regions.win_eve == frozenset({0, 1})
        reference = brute_force_positional(FIG1, Objective(Payoff.MP_INF, FIG1_UNION))
        assert not reference.exact
        assert reference.win_eve == frozenset()
        assert reference.win_eve < regions.win_eve


def test_acceptance_04_threshold_consistency():
    with criterion(4, "interval solver matches threshold solver on rays"):
        rng = make_rng(104)
        for _ in range(200):
            g = random_game(rng, rng.randint(1, 6), max_weight=3)
            a = F(rng.randint(-2, 2), rng.randint(1, 3))
            ray = IntervalUnion((Interval(a, PLUS_INF, False, True),))
            everything = frozenset(range(g.n))
            assert solve_mp_interval(g, ray).win_eve == _threshold(
                g, everything, Player.EVE, a, False
            )
        for _ in range(200):
            g = random_game(rng, rng.randint(1, 6), max_weight=3)
            b = F(rng.randint(-2, 2), rng.randint(1, 3))
            ray = IntervalUnion((Interval(MINUS_INF, b, True, False),))
            everything = frozenset(range(g.n))
            # Eve keeps MP <= b exactly where Adam cannot force MP > b
            assert solve_mp_interval(g, ray).win_eve == everything - _threshold(
                g, everything, Player.ADAM, b, True
            )


def test_acceptance_05_parity_to_mp():
    with criterion(5, "parity to unary mean-payoff gadget preserves winners"):
        rng = make_rng(105)
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


def test_acceptance_06_single_interval_oracle():
    with criterion(6, "single interval agrees with the one-player residual oracle"):
        rng = make_rng(106)
        for _ in range(300):
            g = random_game(rng, rng.randint(1, 5), max_weight=2)
            a = F(rng.randint(-4, 2), 2)
            b = a + F(rng.randint(0, 4), 2)
            iu = IntervalUnion((Interval(a, b),))
            solved = solve_mp_interval(g, iu)
            reference = brute_force_positional(g, Objective(Payoff.MP_INF, iu))
            assert solved.win_adam == reference.win_adam
            assert reference.win_eve <= solved.win_eve


def test_acceptance_07_horizon():
    with criterion(7, "discounted horizon is tight and the verdict depth-stable"):
        rng = make_rng(107)
        done = 0
        compared = 0
        while done < 500:
            g = random_game(rng, rng.randint(1, 4), max_weight=2)
            lam = rng.choice((F(1, 2), F(2, 3)))
            iu = random_interval_union(rng, 2, 3, forbid_singletons=True, half_grid=True)
            w = max(abs(e.weight) for e in g.edges)
            width = _min_decision_width(iu)
            if w == 0 or width is None:
                continue
            bound = F(2 * w) / (1 - lam)
            if width > bound:
                continue
            n = horizon(g, lam, width)
            assert lam ** (n + 1) * bound < width
            assert width <= lam ** n * bound
            base = solve_ds_interval(g, lam, iu)
            base.check_partition(frozenset(range(g.n)))
            # the unpruned search agrees one and two steps past the horizon
            try:
                for depth in (n + 1, n + 2):
                    reference = brute_force_finite_horizon_ds(g, lam, iu, depth)
                    assert reference == base.win_eve, (g.edges, lam, iu, depth)
                compared += 1
            except TooLarge:
                pass
            done += 1
        assert compared >= 490, compared


def test_acceptance_08_subset_sum():
    with criterion(8, "subset-sum chains replay the selection game"):
        rng = make_rng(108)
        for _ in range(100):
            inst = random_subset_sum(rng, rng.randint(1, 10), max_value=8)
            g, iu, lam, _ = subset_sum_to_ds(inst, F(1, 2))
            solved = solve_ds_interval(g, lam, iu)
            expected = subset_sum_winner(inst.target, inst.pairs)
            assert (0 in solved.win_eve) == expected


def test_acceptance_09_singleton_rejection():
    with criterion(9, "singleton intervals and gaps are rejected"):
        g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 1),), 0)
        for _ in range(3):  # deterministic across repeats
            with pytest.raises(SingletonNotSupported):
                solve_ds_interval(g, F(1, 2), IntervalUnion((Interval(F(2), F(2)),)))
            with pytest.raises(SingletonNotSupported):
                solve_ds_interval(
                    g,
                    F(1, 2),
                    IntervalUnion(
                        (
                            Interval(F(0), F(1), False, True),
                            Interval(F(1), F(2), True, False),
                        )
                    ),
                )


def test_acceptance_10_countdown():
    with criterion(10, "countdown reductions match the direct search, no unknowns"):
        rng = make_rng(110)
        for _ in range(100):
            cd = random_countdown(rng, rng.randint(2, 5), rng.randint(1, 20), max_weight=4)
            g, iu = countdown_to_total(cd)
            verdict = solve_total_interval(g, iu).vertices.verdict(g.initial)
            assert verdict is not Verdict.UNKNOWN
            direct = countdown_winner(
                cd.owner,
                [(e.src, e.dst, e.weight) for e in cd.edges],
                cd.initial,
                cd.credit,
            )
            assert (verdict is Verdict.EVE) == direct


def test_acceptance_11_total_monotone():
    with criterion(11, "total-sum verdicts only refine as the clamp widens"):
        rng = make_rng(111)
        done = 0
        while done < 200:
            g = random_game(rng, rng.randint(1, 4), max_weight=2)
            iu = random_interval_union(rng, 2, 2)
            if not pm_has_finite_endpoint(iu):
                continue
            base = solve_total_interval(g, iu)
            for extra in (1, 2, 3, 4):
                wider = solve_total_interval(g, iu, bound=base.bound + extra)
                for v in range(g.n):
                    was = base.vertices.verdict(v)
                    if was is not Verdict.UNKNOWN:
                        assert wider.vertices.verdict(v) is was
                assert wider.configs.unknown & base.configs.win_eve == frozenset()
                assert wider.configs.unknown & base.configs.win_adam == frozenset()
            done += 1


def test_acceptance_12_corpus(capsys):
    with criterion(12, "corpus golden run reproduces every expectation"):
        games = sorted(CORPUS.glob("*.game"))
        assert games, "corpus missing"
        for game in games:
            expect = json.loads(game.with_suffix(".expect").read_text())
            code = cli_main(["solve", str(game)])
            out = capsys.readouterr().out.strip()
            if expect["winner"] == "error":
                assert code == 3, game
            else:
                assert code == 0, game
                assert out.lower() == expect["winner"], (game, out)
