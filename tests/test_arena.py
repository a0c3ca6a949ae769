import json
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalgames import cli
from intervalgames.arena import (
    Arena,
    BadParameters,
    DeadEndVertexError,
    Edge,
    EmptyInterval,
    GameGraph,
    Infinity,
    Interval,
    IntervalUnion,
    LambdaOutOfRange,
    MINUS_INF,
    MalformedDocument,
    Objective,
    OneCounterParityGame,
    PLUS_INF,
    ParityGame,
    Payoff,
    Player,
    Regions,
    UnknownVertexReference,
    complement_intervals,
    contains,
    max_abs_weight,
    normalize,
    parse_rational,
    read_document,
    serialize_game,
    write_document,
)
from intervalgames.cli import main
from intervalgames.discounted import _min_decision_width
from intervalgames.generate import (
    random_game,
    random_objective,
    random_parity_game,
    zero_cycle_game,
)
from intervalgames.liminf import parity_to_liminf, solve_liminf
from intervalgames.oracle import brute_force_positional
from intervalgames.totalsum import solve_total_interval

from conftest import make_rng, pm_has_finite_endpoint

ROOT = Path(__file__).resolve().parent.parent

FIG1_DOC = """{
  "vertices": [{"id": "q0", "owner": "eve"}, {"id": "q1", "owner": "adam"}],
  "edges": [
    {"src": "q0", "dst": "q1", "weight": 1},
    {"src": "q1", "dst": "q1", "weight": 2},
    {"src": "q1", "dst": "q0", "weight": 1},
    {"src": "q0", "dst": "q0", "weight": 0}
  ],
  "initial": "q0",
  "objective": {
    "payoff": "mp-inf",
    "intervals": [
      {"lo": "0", "hi": "1", "lo_open": true, "hi_open": false},
      {"lo": "2", "hi": "inf", "lo_open": false, "hi_open": true}
    ]
  }
}"""


def test_parse_smallest_legal_arena():
    g, o = read_document(
        '{"vertices": [{"id": "q0", "owner": "eve"}],'
        ' "edges": [{"src": "q0", "dst": "q0", "weight": 0}],'
        ' "initial": "q0",'
        ' "objective": {"payoff": "liminf",'
        '  "intervals": [{"lo": "0", "hi": "0", "lo_open": false, "hi_open": false}]}}'
    )
    assert g.n == 1 and len(g.edges) == 1
    assert o.payoff is Payoff.LIMINF
    assert o.intervals.has_singleton


def test_parse_band_union_document():
    g, o = read_document(FIG1_DOC)
    assert g.n == 2 and len(g.edges) == 4
    assert len(o.intervals.intervals) == 2
    assert max_abs_weight(g) == 2


def test_parse_dead_end_rejected():
    with pytest.raises(DeadEndVertexError):
        read_document(
            '{"vertices": [{"id": "a", "owner": "eve"}, {"id": "b", "owner": "adam"}],'
            ' "edges": [{"src": "a", "dst": "b", "weight": 1}],'
            ' "initial": "a", "objective": {"payoff": "liminf", "intervals": []}}'
        )


def test_parse_unknown_vertex_and_bad_lambda():
    with pytest.raises(UnknownVertexReference):
        read_document(
            '{"vertices": [{"id": "a", "owner": "eve"}],'
            ' "edges": [{"src": "a", "dst": "zz", "weight": 1}],'
            ' "initial": "a", "objective": {"payoff": "liminf", "intervals": []}}'
        )
    with pytest.raises(LambdaOutOfRange):
        read_document(
            '{"vertices": [{"id": "a", "owner": "eve"}],'
            ' "edges": [{"src": "a", "dst": "a", "weight": 1}],'
            ' "initial": "a",'
            ' "objective": {"payoff": "discounted", "lambda": "3/2", "intervals": []}}'
        )


def test_parse_rejects_float_weights_and_bad_json():
    with pytest.raises(MalformedDocument):
        read_document("{")
    with pytest.raises(MalformedDocument):
        read_document(
            '{"vertices": [{"id": "a", "owner": "eve"}],'
            ' "edges": [{"src": "a", "dst": "a", "weight": 1.5}],'
            ' "initial": "a", "objective": {"payoff": "liminf", "intervals": []}}'
        )


@pytest.mark.parametrize(
    "edges, initial, message",
    [
        ((Edge(0, 1, 1), Edge(1, 0, 0)), 0.5, "initial vertex index 0.5"),
        ((Edge(0, 1.0, 1), Edge(1, 0, 0)), 0, r"edge Edge\(src=0, dst=1.0, weight=1\)"),
        ((Edge(True, 0, 1), Edge(0, 1, 0)), 0, r"edge Edge\(src=True, dst=0, weight=1\)"),
    ],
    ids=["float-initial", "float-edge-end", "bool-edge-end"],
)
def test_non_int_vertex_index_rejected(edges, initial, message):
    # 1.0 and True equal the int 1, so a set of the indices cannot see them
    with pytest.raises(MalformedDocument, match=message):
        GameGraph.from_edges(("a", "b"), (Player.EVE, Player.ADAM), edges, initial)


TWO = (("a", "b"), (Player.EVE, Player.ADAM))


def test_valid_game_built_in_code_holds_no_edge_tuples():
    # the validator walks the columns; only a reader of `edges` builds them
    g = GameGraph.from_edges(*TWO, (Edge(0, 1, 2), Edge(1, 0, -1)), 0)
    assert "edges" not in g.__dict__
    assert g.edges == (Edge(0, 1, 2), Edge(1, 0, -1))


def test_games_built_from_built_columns_walk_no_edges(monkeypatch):
    # a game whose edge columns come from a game already built skips the
    # walk: each generator walks once, for the `random_game` it starts from
    walked = []
    walk = Arena._walk_edges

    def counted(self, zero):
        walked.append(self)
        walk(self, zero)

    monkeypatch.setattr(Arena, "_walk_edges", counted)
    rng = make_rng(8)
    p = random_parity_game(rng, 5)
    assert len(walked) == 1
    g = zero_cycle_game(rng, 5)
    assert len(walked) == 2
    reweighted, _ = parity_to_liminf(p)
    negated, _ = normalize(g, Objective(Payoff.LIMSUP, IntervalUnion(())))
    assert len(walked) == 2
    assert negated.weight == tuple(-w for w in g.weight)
    assert reweighted.weight == tuple(p.priority[v] for v in p.src)


def _document(objective=(), **changes):
    """A valid one-vertex liminf document with the given top-level keys
    replaced and the `objective` keys merged into its objective."""
    return {
        "vertices": [{"id": "a", "owner": "eve"}],
        "edges": [{"src": "a", "dst": "a", "weight": 1}],
        "initial": "a",
        "objective": {"payoff": "liminf", "intervals": [{"lo": "0", "hi": "1"}], **dict(objective)},
        **changes,
    }


def _parity_document(*vertices):
    return _document(
        vertices=list(vertices), edges=[{"src": "a", "dst": "a"}], objective={"payoff": "parity"}
    )


def _interval(lo, hi, **flags):
    return _document(objective={"intervals": [{"lo": lo, "hi": hi, **flags}]})


ONE_LOOP = (("a",), (Player.EVE,), (Edge(0, 0, 0),), 0)


@pytest.mark.parametrize(
    "case, error, message",
    [
        (_document(vertices=[{"id": "a", "owner": "eve"}] * 2), MalformedDocument,
         "duplicate vertex identifiers"),
        (_document(objective={"payoff": "mean"}), MalformedDocument, "unknown payoff 'mean'"),
        (_document(objective={"lambda": "1/2"}), MalformedDocument,
         "'lambda' is only meaningful for the discounted payoff"),
        (_document(objective={"payoff": "discounted"}), MalformedDocument,
         "discounted objective: missing key 'lambda'"),
        ([], MalformedDocument, "document root must be an object"),
        ({**_document(), "objective": []}, MalformedDocument, "objective must be an object"),
        (_document(objective={"intervals": ["0"]}), MalformedDocument, "bad interval entry '0'"),
        (_document(initial="z"), UnknownVertexReference, "initial vertex 'z' not listed"),
        (_interval("1", "1", lo_open=True), EmptyInterval, "empty interval (1,1]"),
        (_interval("inf", "inf"), EmptyInterval, "empty interval (inf,inf)"),
        (_interval("0", "inf", hi_open=False), EmptyInterval, "infinite endpoints must be open"),
        (_interval("x", "1"), MalformedDocument, "bad rational 'x'"),
        (_interval(True, "1"), MalformedDocument, "expected a rational, got True"),
        (_interval("0", 1.5), MalformedDocument, "expected a rational, got 1.5"),
        (_parity_document({"id": "a", "owner": "eve"}), MalformedDocument,
         "vertex 'a': missing priority"),
        (_parity_document({"id": "a", "owner": "eve", "priority": -1}), MalformedDocument,
         "priority -1 is not a non-negative integer"),
        (lambda: GameGraph.from_edges((), (), (), 0), MalformedDocument,
         "a game needs at least one vertex"),
        (lambda: GameGraph.from_edges(("a",), (Player.EVE, Player.ADAM), (Edge(0, 0, 0),), 0),
         MalformedDocument, "owner list does not match vertex list"),
        (lambda: ParityGame.from_edges(("a",), (Player.EVE,), (Edge(0, 0),), (0, 1), 0),
         MalformedDocument, "priority list does not match vertex list"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:3], 1), UnknownVertexReference,
         "initial vertex index 1"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:2], (Edge(0, 0, 0), Edge(0, 1, 0)), 0),
         UnknownVertexReference, "edge Edge(src=0, dst=1, weight=0) references a missing vertex"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:2], (Edge(0, 0, F(1, 2)),), 0), MalformedDocument,
         "edge weight Fraction(1, 2) is not an integer"),
        (lambda: Objective(Payoff.DISCOUNTED, IntervalUnion()), LambdaOutOfRange,
         "discounted objective needs a discount factor"),
        (lambda: Objective(Payoff.LIMINF, IntervalUnion(), F(1, 2)), MalformedDocument,
         "discount factor given for a non-discounted payoff"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:2], (Edge(0, 0, True),), 0), MalformedDocument,
         "edge weight True is not an integer"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:2], (Edge(-1, 0, 0),), 0),
         UnknownVertexReference, "edge Edge(src=-1, dst=0, weight=0) references a missing vertex"),
        (lambda: GameGraph.from_edges(*TWO, (Edge(0, 1, 0),), 0), DeadEndVertexError,
         "vertex 'b' has no outgoing edge"),
        (lambda: OneCounterParityGame.from_edges(
            *ONE_LOOP[:3], (0,), zero_edges=(Edge(0, 3),), initial=0),
         UnknownVertexReference, "edge Edge(src=0, dst=3, weight=0) references a missing vertex"),
        (lambda: GameGraph.from_edges(*TWO, (Edge(0, 1, 0), Edge(0, 0, 1.5)), 0),
         MalformedDocument, "edge weight 1.5 is not an integer"),
        (lambda: GameGraph.from_edges(*ONE_LOOP[:2], (Edge([0], 0, 0),), 0), MalformedDocument,
         "edge Edge(src=[0], dst=0, weight=0) has a vertex index that is not an integer"),
        (lambda: GameGraph(("a",), (Player.EVE,), (0,), (0,), (), initial=0), MalformedDocument,
         "edge columns differ in length"),
    ],
)
def test_each_rejection_names_its_fault(case, error, message, capsys, tmp_path):
    # a document exits 2 through the command line with its one error line;
    # a game or objective built in code raises the same class of error
    if callable(case):
        with pytest.raises(error) as caught:
            case()
        assert str(caught.value) == message
        return
    text = json.dumps(case)
    with pytest.raises(error, match=re.escape(message)):
        read_document(text)
    f = tmp_path / "bad.game"
    f.write_text(text)
    assert main(["solve", str(f)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("text, value", [
    ("1_0", None),
    ("1/2_0", None),
    ("1 / 2", None),
    ("1/ 2", None),
    ("1\t/2", None),
    ("1/\u20032", None),
    (" 1/2 ", F(1, 2)),
    ("-3", F(-3)),
    ("1.5", F(3, 2)),
    ("2/3", F(2, 3)),
    ("\u0661/\u0662", None),
    ("\uff11/\uff12", None),
    ("\u0663", None),
])
def test_rationals_read_the_same_on_every_python(text, value):
    # Fraction alone accepts digit separators from Python 3.11, spaces
    # around the slash from 3.12 and non-ASCII digits on every version
    doc = json.dumps(_interval(text, "inf"))
    if value is None:
        message = f"bad rational {text!r}"
        for read in (lambda: parse_rational(text), lambda: read_document(doc)):
            with pytest.raises(MalformedDocument) as caught:
                read()
            assert str(caught.value) == message
    else:
        assert parse_rational(text) == value
        _, o = read_document(doc)
        assert o.intervals.intervals[0].lo == value


@pytest.mark.parametrize("lo, hi", [("-inf", "inf"), (" -inf", "+inf"), ("-inf", " +inf ")])
def test_unbounded_endpoints_read_with_an_optional_plus(lo, hi):
    _, o = read_document(json.dumps(_interval(lo, hi, lo_open=True, hi_open=True)))
    j = o.intervals.intervals[0]
    assert (j.lo, j.hi) == (MINUS_INF, PLUS_INF)


def test_empty_interval_rejected():
    with pytest.raises(EmptyInterval):
        Interval(F(1), F(0))
    with pytest.raises(EmptyInterval):
        Interval(F(0), F(0), lo_open=True)
    with pytest.raises(EmptyInterval):
        Interval(MINUS_INF, F(0), False, False)


def test_round_trip_on_random_instances():
    rng = make_rng(11)
    for _ in range(200):
        g = random_game(rng, rng.randint(1, 6))
        payoff = rng.choice(list(Payoff))
        o = random_objective(rng, payoff)
        text = serialize_game(g, o)
        g2, o2 = read_document(text)
        assert g2 == g
        assert o2 == o
        assert serialize_game(g2, o2) == text


def test_writer_needs_an_objective_for_a_game_graph():
    g, _ = read_document(FIG1_DOC)
    with pytest.raises(BadParameters):
        write_document(g)


def test_writer_refuses_an_objective_for_a_parity_game():
    _, o = read_document(FIG1_DOC)
    with pytest.raises(BadParameters):
        write_document(random_parity_game(make_rng(12), 3), o)


def test_interval_union_canonical_merge():
    # [0,1] u (1,2] merges, [0,1) u (1,2] does not
    a = IntervalUnion((Interval(F(0), F(1)), Interval(F(1), F(2), True, False)))
    assert len(a.intervals) == 1
    assert a.intervals[0] == Interval(F(0), F(2))
    b = IntervalUnion((Interval(F(0), F(1), False, True), Interval(F(1), F(2), True, False)))
    assert len(b.intervals) == 2
    assert b.has_singleton and not a.has_singleton


def _rank(x):
    # the order of the extended line, written out apart from Infinity's
    return (x.sign, 0) if x in (MINUS_INF, PLUS_INF) else (0, x)


@pytest.mark.parametrize("op", [
    operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge,
])
def test_infinities_order_against_numbers_and_each_other(op):
    values = (MINUS_INF, PLUS_INF, -3, 0, 7, F(-5, 2), F(0), F(10**30, 7))
    for inf in (MINUS_INF, PLUS_INF):
        for x in values:
            assert op(inf, x) is op(_rank(inf), _rank(x)), (op, inf, x)
            assert op(x, inf) is op(_rank(x), _rank(inf)), (op, x, inf)


def _halves(lower: Infinity) -> IntervalUnion:
    return IntervalUnion(
        (Interval(lower, F(0), True, False), Interval(F(1), PLUS_INF, False, True))
    )


@pytest.mark.parametrize("case, expected", [
    pytest.param(lambda: parse_rational(7), F(7), id="json-integer-endpoint"),
    pytest.param(lambda: PLUS_INF < 1.5, TypeError, id="infinity-against-float"),
    pytest.param(lambda: MINUS_INF >= "0", TypeError, id="infinity-against-string"),
    pytest.param(lambda: hash(_halves(Infinity(-1))) == hash(_halves(MINUS_INF)), True,
                 id="hash-of-equal-unions"),
    pytest.param(lambda: repr(IntervalUnion(())), "{}", id="repr-of-empty-union"),
])
def test_values_at_the_edges(case, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            case()
    else:
        assert case() == expected


def test_interval_union_ignores_the_order_of_its_pieces():
    rng = make_rng(71)
    ends = (MINUS_INF, F(-2), F(-1, 2), F(0), F(0), F(1), F(3, 2), PLUS_INF)
    for _ in range(3000):
        pieces = []
        for _ in range(rng.randint(1, 6)):
            lo, hi = sorted(rng.sample(ends, 2), key=_rank)
            lo_open = lo == MINUS_INF or rng.random() < 0.5
            hi_open = hi == PLUS_INF or rng.random() < 0.5
            if lo == hi:
                lo_open = hi_open = False
            pieces.append(Interval(lo, hi, lo_open, hi_open))
        in_order = IntervalUnion(tuple(sorted(pieces, key=lambda j: (_rank(j.lo), j.lo_open))))
        rng.shuffle(pieces)
        assert IntervalUnion(tuple(pieces)) == in_order, pieces


def test_normalize_limsup_and_total_sup():
    g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 2),), 0)
    o = Objective(Payoff.LIMSUP, IntervalUnion((Interval(F(2), F(2)),)))
    g2, o2 = normalize(g, o)
    assert o2.payoff is Payoff.LIMINF
    assert g2.edges[0].weight == -2
    assert o2.intervals.intervals[0] == Interval(F(-2), F(-2))

    g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, 1),), 0)
    o = Objective(Payoff.TOTAL_SUP, IntervalUnion((Interval(F(0), PLUS_INF, False, True),)))
    g2, o2 = normalize(g, o)
    assert o2.payoff is Payoff.TOTAL_INF
    assert g2.edges[0].weight == -1
    assert o2.intervals.intervals[0] == Interval(MINUS_INF, F(0), True, False)


@pytest.mark.parametrize(
    "payoff",
    [Payoff.LIMINF, Payoff.MP_INF, Payoff.DISCOUNTED, Payoff.TOTAL_INF],
    ids=lambda payoff: payoff.value,
)
def test_normalize_identity_on_inf_payoffs(payoff):
    # every solve calls `normalize`, so an inf-style solve must not pay for a copy
    rng = make_rng(5)
    g = random_game(rng, 3)
    o = random_objective(rng, payoff)
    gn, on = normalize(g, o)
    assert gn is g and on is o


def test_normalize_preserves_winners_through_the_solvers():
    rng = make_rng(6)
    for _ in range(100):
        g = random_game(rng, rng.randint(1, 4), max_weight=3)
        o = random_objective(rng, Payoff.LIMSUP)
        reference = brute_force_positional(g, o)  # evaluates limsup directly
        assert reference.exact
        g2, o2 = normalize(g, o)
        assert solve_liminf(g2, o2.intervals).win_eve == reference.win_eve


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from((Payoff.LIMSUP, Payoff.MP_SUP, Payoff.TOTAL_SUP)),
    st.integers(1, 5),
    st.integers(0, 2**32),
)
def test_sup_solves_agree_with_the_oracle(payoff, n, seed):
    # the command line solves a sup-style payoff as its inf counterpart on
    # `normalize`'s negated copy; the oracle reads the sup payoff itself
    rng = make_rng(seed)
    g = random_game(rng, n, max_weight=3)
    o = random_objective(rng, payoff, max_pieces=2)
    assume(payoff is not Payoff.TOTAL_SUP or pm_has_finite_endpoint(o.intervals))
    regions, meta = cli._solve_game(g, o, None)
    solved = [regions]
    if payoff is Payoff.TOTAL_SUP:
        # all three regions, at the default bound and at a smaller one
        gn, on = normalize(g, o)
        assert (regions, meta["bound"]) == tuple(solve_total_interval(gn, on.intervals))
        bound = rng.randint(1, max(1, meta["bound"]))
        again = solve_total_interval(gn, on.intervals, bound=bound).vertices
        assert cli._solve_game(g, o, bound)[0] == again
        solved.append(again)
    reference = brute_force_positional(g, o)
    if reference.exact:
        for r in solved:
            # total-sum may leave a vertex UNKNOWN; what it decides must agree
            assert r.win_eve <= reference.win_eve
            assert r.win_adam <= reference.win_adam
        if payoff is not Payoff.TOTAL_SUP:
            assert regions.win_eve == reference.win_eve


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "corpus").glob("*.game"))
    + sorted((ROOT / "tests" / "golden").glob("*.game")),
    ids=lambda path: path.name,
)
def test_documents_round_trip_byte_for_byte(path):
    # the writer puts the columns back as they were read
    def round_trip(text):
        return write_document(*read_document(text), comment=json.loads(text).get("comment"))

    text = path.read_text(encoding="utf-8")
    written = round_trip(text)
    assert round_trip(written) == written
    # escaped_ids.game is written by hand: it leaves out the default
    # interval flags and holds non-ASCII characters unescaped
    if path.name != "escaped_ids.game":
        assert written == text


def test_complement_examples():
    iu = IntervalUnion((Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True)))
    co = complement_intervals(iu)
    assert co.intervals == (
        Interval(MINUS_INF, F(0), True, False),
        Interval(F(1), F(2), True, True),
    )
    empty = IntervalUnion(())
    assert complement_intervals(empty).intervals == (Interval(MINUS_INF, PLUS_INF, True, True),)
    withdot = IntervalUnion((Interval(F(-1), F(0), False, True), Interval(F(5), F(5)),))
    assert complement_intervals(complement_intervals(withdot)) == withdot


@st.composite
def interval_unions(draw):
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(-6, 6))
        lo, hi = sorted((F(a, 2), F(b, 2)))
        lo_open = draw(st.booleans())
        hi_open = draw(st.booleans())
        if lo == hi:
            lo_open = hi_open = False
        pieces.append(Interval(lo, hi, lo_open, hi_open))
    if draw(st.booleans()):
        pieces.append(Interval(F(draw(st.integers(-6, 6)), 2), PLUS_INF, draw(st.booleans()), True))
    if draw(st.booleans()):
        pieces.append(Interval(MINUS_INF, F(draw(st.integers(-6, 6)), 2), True, draw(st.booleans())))
    return IntervalUnion(tuple(pieces))


@settings(max_examples=300, deadline=None)
@given(interval_unions())
def test_complement_is_involution(iu):
    assert complement_intervals(complement_intervals(iu)) == iu


@settings(max_examples=300, deadline=None)
@given(interval_unions())
def test_endpoint_view_matches_pieces_and_gaps(iu):
    # the per-piece and per-gap definitions that the endpoint view replaced
    pieces, gaps = iu.intervals, list(zip(iu.intervals, iu.intervals[1:]))
    singleton = any(j.lo == j.hi for j in pieces)
    singleton |= any(a.hi == b.lo and a.hi_open and b.lo_open for a, b in gaps)
    assert iu.has_singleton == singleton
    bounded = [j for j in pieces if not (isinstance(j.lo, Infinity) or isinstance(j.hi, Infinity))]
    widths = [j.hi - j.lo for j in bounded] + [b.lo - a.hi for a, b in gaps]
    assert _min_decision_width(iu) == (min(widths) if widths else None)


@settings(max_examples=300, deadline=None)
@given(interval_unions(), st.integers(-30, 30), st.integers(1, 4))
def test_membership_xor_complement(iu, num, den):
    co = complement_intervals(iu)
    for x in (F(num, den), PLUS_INF, MINUS_INF):
        assert contains(iu, x) != contains(co, x)


def test_contains_endpoint_flags_and_infinities():
    iu = IntervalUnion((Interval(F(0), F(1), True, False),))
    assert contains(iu, F(1)) and not contains(iu, F(0))
    ray = IntervalUnion((Interval(F(2), PLUS_INF, False, True),))
    assert contains(ray, PLUS_INF)
    assert not contains(ray, MINUS_INF)
    band = IntervalUnion(
        (Interval(F(0), F(1), True, False), Interval(F(2), PLUS_INF, False, True))
    )
    assert not contains(band, F(3, 2))


def test_max_abs_weight():
    g = GameGraph.from_edges(("a",), (Player.EVE,), (Edge(0, 0, -3), Edge(0, 0, 2)), 0)
    assert max_abs_weight(g) == 3
    z = GameGraph.from_edges(("a",), (Player.EVE,), (Edge(0, 0, 0),), 0)
    assert max_abs_weight(z) == 0


def test_check_partition_rejects_a_stray_vertex():
    everything = frozenset({0, 1, 2})
    Regions(frozenset({0}), frozenset({2}), frozenset({1})).check_partition(everything)
    # right size, but vertex 7 is not in the set and vertex 1 is missing
    with pytest.raises(AssertionError):
        Regions(frozenset({7}), frozenset()).check_partition(frozenset({1}))
    # a vertex in two regions covers the set but overfills the count
    with pytest.raises(AssertionError):
        Regions(frozenset({0, 1}), frozenset({1, 2})).check_partition(everything)


def test_check_partition_runs_under_optimization():
    # `python -O` strips assert statements; the check raises explicitly
    code = (
        "from intervalgames.arena import Regions\n"
        "assert False, 'asserts are not stripped'\n"
        "Regions(frozenset({0}), frozenset({0})).check_partition(frozenset({0, 1}))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "AssertionError: regions do not cover exactly the vertex set" in proc.stderr
