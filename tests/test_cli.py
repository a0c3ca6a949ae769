import copy
import gc
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import intervalgames
from intervalgames import cli, meanpayoff
from intervalgames.arena import (
    Edge,
    GameError,
    GameGraph,
    Interval,
    IntervalUnion,
    Objective,
    Payoff,
    Player,
    Regions,
    normalize,
    read_document,
    write_document,
)
from intervalgames.cli import build_parser, main
from intervalgames.discounted import solve_ds_interval
from intervalgames.generate import random_parity_game
from intervalgames.liminf import solve_liminf
from intervalgames.meanpayoff import solve_mp_interval
from intervalgames.parity import solve_parity
from intervalgames.totalsum import solve_total_interval

from conftest import fresh_python, priority_line

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_prints_single_token(capsys):
    code, out, _ = run(capsys, "solve", CORPUS / "fig1.game")
    assert code == 0
    assert out.strip() == "EVE"


def test_solve_regions_and_structured(capsys):
    code, out, _ = run(
        capsys, "solve", CORPUS / "fig1.game", "--regions", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["winner"] == "eve"
    assert doc["regions"] == {"q0": "eve", "q1": "eve"}


def test_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "solve", bad)
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "solve", CORPUS / "ds_singleton.game")
    assert code == 3
    assert "singleton intervals unsupported for discounted sum" in err

    # fields of the wrong JSON type are document errors, never tracebacks
    loop = {
        "vertices": [{"id": "a", "owner": "eve"}],
        "edges": [{"src": "a", "dst": "a", "weight": 1}],
        "initial": "a",
        "objective": {
            "payoff": "liminf",
            "intervals": [{"lo": "1", "hi": "2", "lo_open": False, "hi_open": False}],
        },
    }
    parity = {
        "vertices": [{"id": "a", "owner": "eve", "priority": 0}],
        "edges": [{"src": "a", "dst": "a"}],
        "initial": "a",
        "objective": {"payoff": "parity"},
    }
    good = tmp_path / "loop.game"
    good.write_text(json.dumps(loop))
    code, out, _ = run(capsys, "solve", good)
    assert code == 0 and out.strip() == "EVE"
    cases = [
        (loop, lambda d: d.update(vertices=5), ("solve",)),
        (loop, lambda d: d.update(edges=5), ("solve",)),
        (loop, lambda d: d["objective"].update(intervals=5), ("solve",)),
        (loop, lambda d: d.update(initial=["q"]), ("solve",)),
        (loop, lambda d: d["objective"].update(payoff=["liminf"]), ("solve",)),
        (loop, lambda d: d["edges"][0].update(src=["a"]), ("solve",)),
        (loop, lambda d: d["objective"]["intervals"][0].update(lo_open="false"), ("solve",)),
        (parity, lambda d: d.update(initial=["a"]), ("reduce", "--to", "liminf")),
    ]
    for base, edit, command in cases:
        doc = json.loads(json.dumps(base))
        edit(doc)
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, command[0], bad, *command[1:])
        assert code == 2 and "error" in err and "Traceback" not in err, doc

    # undecodable bytes, nesting past the stack, an integer past Python's
    # digit limit and an exponent that would expand to 10**100000000
    huge = json.dumps(loop).replace('"weight": 1', '"weight": ' + "9" * 5000)
    far = json.loads(json.dumps(loop))
    far["objective"].update(payoff="mp-inf")
    far["objective"]["intervals"][0].update(hi="1e100000000")
    for raw in (b"\xff\xfe{", b"[" * 200000, huge.encode(), json.dumps(far).encode()):
        bad.write_bytes(raw)
        code, _, err = run(capsys, "solve", bad)
        assert code == 2 and "error" in err and "Traceback" not in err, raw[:40]


def test_every_package_error_exits_with_a_documented_code():
    # exit 1 means only that stdout was closed early; every error the
    # package defines, in any module, ends in 2, 3, 4 or 5
    for info in pkgutil.iter_modules(intervalgames.__path__):
        importlib.import_module(f"intervalgames.{info.name}")
    errors, todo = [], [GameError]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("intervalgames."):
            errors.append(cls)
    assert len(errors) > 10
    wrong = {cls.__qualname__: cls.exit_code for cls in errors if cls.exit_code not in (2, 3, 4, 5)}
    assert wrong == {}


def test_corpus_golden_run(capsys):
    for game in sorted(CORPUS.glob("*.game")):
        expect = json.loads(game.with_suffix(".expect").read_text())
        code, out, err = run(capsys, "solve", game)
        if expect["winner"] == "error":
            assert code == 3, game
        else:
            assert code == 0, (game, err)
            assert out.strip().lower() == expect["winner"], game


def test_check_consumes_sidecars(capsys, tmp_path):
    for game in sorted(CORPUS.glob("*.game")):
        code, out, err = run(capsys, "check", game, "--suite", "stability")
        assert code == 0, (game, err)

    # a corrupted expectation must be reported as a disagreement
    target = tmp_path / "wrong.game"
    target.write_text((CORPUS / "loop0_total.game").read_text())
    (tmp_path / "wrong.expect").write_text(
        json.dumps({"winner": "adam", "notes": "deliberately wrong"})
    )
    code, _, err = run(capsys, "check", target)
    assert code == 4

    # so must a sidecar that is valid JSON but not an object, or no text
    for sidecar in (json.dumps([1, 2]).encode(), json.dumps("eve").encode(), b"\xff\xfe{"):
        (tmp_path / "wrong.expect").write_bytes(sidecar)
        code, _, err = run(capsys, "check", target)
        assert code == 4 and "error" in err and "Traceback" not in err, sidecar


def test_check_oracle_suites(capsys):
    for game in sorted(CORPUS.glob("*.game")):
        code, _, err = run(capsys, "check", game, "--suite", "oracle")
        assert code == 0, (game, err)

    code, out, _ = run(capsys, "check", CORPUS / "fig1.game", "--suite", "oracle")
    assert code == 0
    assert "bound-only" in out and "no contradiction" in out

    code, out, _ = run(capsys, "check", CORPUS / "liminf_two_loops.game", "--suite", "oracle")
    assert code == 0
    assert "agreement" in out

    code, out, _ = run(capsys, "check", CORPUS / "fig3_n2.game", "--suite", "oracle")
    assert code == 0
    assert "agreement" in out

    code, out, _ = run(capsys, "check", CORPUS / "ds_thirds.game", "--suite", "oracle")
    assert code == 0
    assert "game values certified by their one-step equations" in out
    assert "agreement with unpruned search" in out


def test_generate_is_deterministic(capsys):
    args = ("generate", "subset-sum", "--pairs", "2", "--target", "4", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["objective"]["payoff"] == "discounted"


# the first 16 hex digits of each document's sha256 for seeds 1, 2 and 3;
# perfbench draws its instance pools from these generators, so the order in
# which they draw from the seeded rng must not change
GENERATED_DIGESTS = {
    ("subset-sum", "--pairs", "3"):
        ("0f77df851b15a29c", "d16007519476c64c", "3b572630d83fd1f7"),
    ("countdown", "--vertices", "4", "--credit", "5"):
        ("fcf1808be2147d41", "4a9f2fde41a9b520", "e6364a0d57dc05a8"),
    ("random-parity", "--vertices", "5"):
        ("e9de054b6f4cebc6", "f35c83551a13d84d", "8f936699e0e73bcb"),
    ("random-arena", "--vertices", "4", "--payoff", "liminf"):
        ("7a3d2e46bd5d8fe6", "db2f6ddf093bfea7", "6e6576bf40a5cca6"),
    ("random-arena", "--vertices", "4", "--payoff", "limsup"):
        ("54d2c5ba7199e15a", "bf91e0b09b750d65", "ebb348e0bde4d210"),
    ("random-arena", "--vertices", "4", "--payoff", "mp-inf"):
        ("d2b49cd97aba1412", "b795f47ff115f601", "01715d562718efd0"),
    ("random-arena", "--vertices", "4", "--payoff", "mp-sup"):
        ("d70f0c608295e531", "3e0f15f61ca0bf89", "1f2b7072903858b3"),
    ("random-arena", "--vertices", "4", "--payoff", "discounted"):
        ("5dcb1f51bf679e16", "2ef9d9cc86e6482a", "a5cb8b6b22895d3b"),
    ("random-arena", "--vertices", "4", "--payoff", "total-inf"):
        ("1ef774048be6f5a8", "71d890c743a4931a", "18c0f073c6fe9f89"),
    ("random-arena", "--vertices", "4", "--payoff", "total-sup"):
        ("35efa1b9579b9f86", "58aa2a602df07108", "381919d5e3f711fa"),
}


@pytest.mark.parametrize("args", GENERATED_DIGESTS, ids=" ".join)
def test_generate_output_bytes_are_pinned(capsys, args):
    for seed, digest in zip((1, 2, 3), GENERATED_DIGESTS[args]):
        code, out, err = run(capsys, "generate", *args, "--seed", seed)
        assert (code, err) == (0, ""), (args, seed)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, (args, seed)


def test_generate_solve_round_trips(capsys, tmp_path):
    _, text, _ = run(
        capsys, "generate", "subset-sum", "--pairs", "2", "--target", "4", "--seed", "7"
    )
    f = tmp_path / "ss.game"
    f.write_text(text)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0 and out.strip() in ("EVE", "ADAM")

    _, text, _ = run(
        capsys, "generate", "countdown", "--vertices", "3", "--credit", "12", "--seed", "1"
    )
    f = tmp_path / "cd.game"
    f.write_text(text)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0 and out.strip() in ("EVE", "ADAM")


# each kind's integer flags at one below their least values, or missing,
# in the order in which `generate` checks them
FLAG_MINIMUM_ERRORS = {
    ("subset-sum",): "subset-sum needs --pairs >= 1",
    ("subset-sum", "--pairs", "0"): "subset-sum needs --pairs >= 1",
    ("subset-sum", "--pairs", "2", "--max-value", "-1"):
        "subset-sum needs --max-value >= 0",
    ("countdown", "--credit", "5"): "countdown needs --vertices >= 2",
    ("countdown", "--vertices", "1", "--credit", "5"): "countdown needs --vertices >= 2",
    ("countdown", "--vertices", "4"): "countdown needs --credit >= 1",
    ("countdown", "--vertices", "4", "--credit", "0"): "countdown needs --credit >= 1",
    ("countdown", "--vertices", "4", "--credit", "5", "--max-weight", "0"):
        "countdown needs --max-weight >= 1",
    ("random-parity", "--vertices", "0"): "random-parity needs --vertices >= 1",
    ("random-parity", "--vertices", "3", "--max-priority", "-1"):
        "random-parity needs --max-priority >= 0",
    ("random-arena", "--vertices", "0"): "random-arena needs --vertices >= 1",
    ("random-arena", "--vertices", "3", "--max-weight", "-1"):
        "random-arena needs --max-weight >= 0",
    ("random-arena", "--vertices", "3", "--intervals", "-1"):
        "random-arena needs --intervals >= 0",
}


@pytest.mark.parametrize("args", FLAG_MINIMUM_ERRORS, ids=" ".join)
def test_generate_names_each_flag_minimum(capsys, args):
    expected = (2, "", f"error: {FLAG_MINIMUM_ERRORS[args]}\n")
    assert run(capsys, "generate", *args, "--seed", "3") == expected


def test_generate_bad_parameters(capsys):
    # the flag minimums are checked before the discount is read
    result = run(capsys, "generate", "subset-sum", "--pairs", "2", "--seed", "3",
                 "--discount", "x", "--max-value", "-1")
    assert result == (2, "", "error: subset-sum needs --max-value >= 0\n")
    # argparse refuses a value outside --payoff's choices, also with exit 2
    with pytest.raises(SystemExit) as caught:
        main(["generate", "random-arena", "--vertices", "3", "--seed", "3", "--payoff", "bogus"])
    assert caught.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_generate_subset_sum_with_a_discount(capsys, tmp_path):
    code, text, _ = run(
        capsys, "generate", "subset-sum", "--pairs", "2", "--seed", "7", "--discount", "2/3"
    )
    assert code == 0 and json.loads(text)["objective"]["lambda"] == "2/3"
    f = tmp_path / "ss.game"
    f.write_text(text)
    code, out, _ = run(capsys, "solve", f)
    assert code == 0 and out.strip() in ("EVE", "ADAM")


@pytest.mark.parametrize("discount, message", [
    ("0", "discount factor 0 not in (0,1)"),
    ("1", "discount factor 1 not in (0,1)"),
    ("3/2", "discount factor 3/2 not in (0,1)"),
    ("1_0/3_0", "bad rational '1_0/3_0'"),
])
def test_generate_rejects_a_bad_discount(capsys, discount, message):
    result = run(
        capsys, "generate", "subset-sum", "--pairs", "2", "--seed", "7", "--discount", discount
    )
    assert result == (2, "", f"error: {message}\n")


def test_reduce_chain(capsys, tmp_path):
    _, parity_text, _ = run(
        capsys, "generate", "random-parity", "--vertices", "3", "--seed", "5"
    )
    pfile = tmp_path / "p.game"
    pfile.write_text(parity_text)

    code, mp_text, _ = run(capsys, "reduce", pfile, "--to", "mp")
    assert code == 0
    mp_doc = json.loads(mp_text)
    assert len(mp_doc["vertices"]) == 3 * 4
    assert mp_doc["objective"]["payoff"] == "mp-inf"
    assert mp_doc["objective"]["intervals"][0] == {
        "lo": "0", "hi": "1", "lo_open": False, "hi_open": True
    }

    code, lim_text, _ = run(capsys, "reduce", pfile, "--to", "liminf")
    assert code == 0
    assert json.loads(lim_text)["objective"]["payoff"] == "liminf"

    limf = tmp_path / "lim.game"
    limf.write_text(lim_text)
    code, par_text, _ = run(capsys, "reduce", limf, "--to", "parity")
    assert code == 0
    par_doc = json.loads(par_text)
    # weights 1 and 3 enter q1, which carries priority 3: the edge of
    # weight 1 alone passes through a subdivider, at priority 1
    assert [v["id"] for v in par_doc["vertices"]] == ["q0", "q1", "q2", "q1@1"]

    code, ocpg_text, _ = run(capsys, "reduce", CORPUS / "loop0_total.game", "--to", "ocpg")
    assert code == 0
    ocpg_doc = json.loads(ocpg_text)
    assert {(z["src"], z["dst"]) for z in ocpg_doc["zero_edges"]} == {
        ("bot", "zero"), ("top", "zero")
    }


def test_reduce_incompatible(capsys):
    code, _, err = run(capsys, "reduce", CORPUS / "fig1.game", "--to", "parity")
    assert code == 3


# the pairs `reduce` supports, by (payoff as reduced, target); a sup-style
# payoff reduces as its inf counterpart
REDUCTIONS = {("parity", "liminf"), ("parity", "mp"), ("liminf", "parity"), ("total-inf", "ocpg")}
INF_STYLE = {"limsup": "liminf", "mp-sup": "mp-inf", "total-sup": "total-inf"}


@pytest.mark.parametrize("target", ["parity", "ocpg", "mp", "liminf"])
@pytest.mark.parametrize("payoff", ["parity"] + [p.value for p in Payoff])
def test_reduce_supports_four_pairs_and_rejects_the_rest(capsys, tmp_path, payoff, target):
    f = tmp_path / "loop.game"
    if payoff == "parity":
        f.write_text(write_document(priority_line(2)))
    else:
        g = GameGraph.from_edges(("a",), (Player.EVE,), (Edge(0, 0, 1),), 0)
        lam = Fraction(1, 2) if payoff == "discounted" else None
        o = Objective(Payoff(payoff), IntervalUnion((Interval(Fraction(0), Fraction(1)),)), lam)
        f.write_text(write_document(g, o))
    source = INF_STYLE.get(payoff, payoff)
    code, out, err = run(capsys, "reduce", f, "--to", target)
    if (source, target) in REDUCTIONS:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (3, "")
        assert err == f"error: cannot reduce payoff {source!r} to {target!r}\n"


def test_solve_answers_parity_documents(capsys, tmp_path):
    # a parity document solves as it does under check, by Zielonka
    pfile = tmp_path / "p.game"
    for vertices, seed in (("2", "9"), ("6", "4")):
        _, parity_text, _ = run(
            capsys, "generate", "random-parity", "--vertices", vertices, "--seed", seed
        )
        pfile.write_text(parity_text)
        code, out, _ = run(capsys, "check", pfile, "--suite", "oracle")
        assert code == 0
        winner = out.splitlines()[0].removeprefix("winner: ")
        code, out, err = run(capsys, "solve", pfile)
        assert (code, out, err) == (0, f"{winner.upper()}\n", "")
        code, out, _ = run(capsys, "solve", pfile, "--regions", "--format", "structured")
        doc = json.loads(out)
        assert code == 0 and doc["winner"] == winner
        assert doc["meta"] == {"payoff": "parity", "algorithm": "zielonka"}
        p, _ = read_document(parity_text)
        regions = solve_parity(p)
        assert doc["regions"] == {name: regions.verdict(v).value for v, name in enumerate(p.names)}


def test_every_command_refuses_one_counter_documents(capsys, tmp_path):
    code, text, _ = run(capsys, "reduce", CORPUS / "loop0_total.game", "--to", "ocpg")
    assert code == 0
    f = tmp_path / "loop0.ocpg"
    f.write_text(text)
    # the payoff name alone refuses it, whatever the rest of the document holds
    junk = tmp_path / "junk.ocpg"
    junk.write_text(json.dumps({**json.loads(text), "zero_edges": [5, {"src": 1}]}))
    message = "error: one-counter documents are reduction outputs and cannot be solved directly\n"
    for path in (f, junk):
        for argv in (
            ("solve", path),
            ("check", path, "--suite", "oracle"),
            ("check", path, "--suite", "stability"),
            ("reduce", path, "--to", "parity"),
        ):
            assert run(capsys, *argv) == (3, "", message), argv


def test_total_sum_bound_flag(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", CORPUS / "fig5.game", "--bound", "8")
    assert code == 0 and out.strip() == "UNKNOWN"
    # the bound is checked for every payoff, not only for total-sum games
    for game in ("fig5.game", "fig1.game", "liminf_two_loops.game"):
        for bound in ("0", "-3"):
            code, out, err = run(capsys, "solve", CORPUS / game, "--bound", bound)
            assert code == 2 and "error" in err and not out, (game, bound)
    code, out, err = run(
        capsys, "solve", CORPUS / "fig1.game", "--bound", "-5", "--format", "structured"
    )
    assert code == 2 and "error" in err and not out
    # an objective without integers is decided before the clamp is built,
    # and a bad bound must still be rejected
    no_integers = tmp_path / "no_integers.game"
    no_integers.write_text(json.dumps({
        "vertices": [{"id": "a", "owner": "adam"}],
        "edges": [{"src": "a", "dst": "a", "weight": 0}],
        "initial": "a",
        "objective": {
            "payoff": "total-inf",
            "intervals": [{"lo": "1/3", "hi": "2/3", "lo_open": False, "hi_open": False}],
        },
    }))
    for bound in ("0", "-3"):
        code, _, err = run(
            capsys, "solve", no_integers, "--bound", bound, "--format", "structured"
        )
        assert code == 2 and "error" in err, bound
    # with no clamp built, the default bound reads 0
    code, out, _ = run(capsys, "solve", no_integers, "--format", "structured")
    assert code == 0
    assert json.loads(out) == {
        "winner": "adam",
        "meta": {"payoff": "total-inf", "algorithm": "total-ocpg-bounded", "bound": 0},
    }


# Eve's a and Adam's b under total-inf [0, 1].  In the climb game Adam's
# +1 loop at b lets the counter climb, but both vertices have finite
# credits, so every escape is pinned within a few counters of zero and the
# game has 6 configurations at any clamp.  In the wander game each vertex
# has a +1 and a -1 loop and a 0 edge to the other, so Eve can drive the
# counter either way from a: a has no finite credit, and a clamp of B
# materializes about 2B configurations.
CLIMB = (Edge(0, 1, 1), Edge(0, 0, 0), Edge(1, 0, -1), Edge(1, 1, 1))
WANDER = (
    Edge(0, 0, 1), Edge(0, 0, -1), Edge(0, 1, 0), Edge(1, 1, 1), Edge(1, 1, -1), Edge(1, 0, 0),
)


def _solve_total(tmp_path, edges, bound: int, cap_mb: int) -> subprocess.CompletedProcess:
    """Solve the game on a and b with these edges and the given clamp in a
    fresh process whose address space alone is capped, at `cap_mb`
    megabytes."""
    g = GameGraph.from_edges(("a", "b"), (Player.EVE, Player.ADAM), edges, 0)
    o = Objective(Payoff.TOTAL_INF, IntervalUnion((Interval(Fraction(0), Fraction(1)),)))
    f = tmp_path / "total.game"
    f.write_text(write_document(g, o))
    cap = cap_mb * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return fresh_python(
        "-m", "intervalgames.cli", "solve", f, "--bound", bound, timeout=120, preexec_fn=limit
    )


def test_large_total_sum_clamp_fits_in_512_mb(tmp_path):
    # a clamp of 100,000 must still answer
    proc = _solve_total(tmp_path, WANDER, 100_000, 512)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "EVE"
    assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_a_resource_guard(tmp_path):
    # a clamp of 1,000,000 needs more than 384 MB; the limit is set in the
    # child alone, so the machine is never asked for that much
    proc = _solve_total(tmp_path, WANDER, 1_000_000, 384)
    assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", "error: out of memory\n")


def test_pinned_escapes_do_not_grow_with_the_clamp(tmp_path):
    # the climb game's escapes are pinned at each vertex's own need, so a
    # clamp of 1,000,000 answers within the cap the wander game exceeds
    proc = _solve_total(tmp_path, CLIMB, 1_000_000, 384)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "EVE\n", "")


def test_late_malformed_entries_keep_their_messages(capsys, tmp_path):
    # the reader reads well-formed columns in bulk and, on any bad entry,
    # rereads entry by entry; a bad entry near the end must still give the
    # message of the first bad entry.  Messages recorded before the bulk read.
    n = 6
    game = {
        "vertices": [{"id": f"v{i}", "owner": ("eve", "adam")[i % 2]} for i in range(n)],
        "edges": [
            e
            for i in range(n)
            for e in (
                {"src": f"v{i}", "dst": f"v{(i + 1) % n}", "weight": i},
                {"src": f"v{i}", "dst": f"v{i}", "weight": -1},
            )
        ],
        "initial": "v0",
        "objective": {"payoff": "liminf", "intervals": [{"lo": "0", "hi": "3"}]},
    }
    missing = object()
    entry = "{'src': 'v4', 'dst': 'v4'"
    cases = [
        ("edges", "src", "nowhere", "edge references unknown vertex 'nowhere'"),
        ("edges", "dst", "nowhere", "edge references unknown vertex 'nowhere'"),
        ("edges", "src", 4, "edge references unknown vertex 4"),
        ("edges", "src", None, "edge references unknown vertex None"),
        ("edges", "dst", ["v1"],
         "edge {'src': 'v4', 'dst': ['v1'], 'weight': -1}: vertex ids must be strings"),
        ("edges", "src", missing, "edge: missing key 'src'"),
        ("edges", "dst", missing, "edge: missing key 'dst'"),
        ("edges", "weight", True, f"edge {entry}, 'weight': True}}: weight must be an integer"),
        ("edges", "weight", 1.5, f"edge {entry}, 'weight': 1.5}}: weight must be an integer"),
        ("edges", "weight", "1", f"edge {entry}, 'weight': '1'}}: weight must be an integer"),
        ("edges", "weight", None, f"edge {entry}, 'weight': None}}: missing weight"),
        ("edges", "weight", missing, f"edge {entry}}}: missing weight"),
        ("edges", None, ["v1", "v2"], "bad edge entry ['v1', 'v2']"),
        ("edges", None, "v1", "bad edge entry 'v1'"),
        ("vertices", "id", 4, "vertex id 4 is not a string"),
        ("vertices", "id", None, "vertex id None is not a string"),
        ("vertices", "id", missing, "vertex: missing key 'id'"),
        ("vertices", "owner", "bob", "vertex 'v4': owner must be 'eve' or 'adam'"),
        ("vertices", "owner", ["eve"], "vertex 'v4': owner must be 'eve' or 'adam'"),
        ("vertices", "owner", missing, "vertex: missing key 'owner'"),
        ("vertices", None, "v4", "bad vertex entry 'v4'"),
        ("vertices", None, None, "bad vertex entry None"),
    ]
    bad = tmp_path / "bad.game"
    for where, key, value, message in cases:
        doc = json.loads(json.dumps(game))
        at = 9 if where == "edges" else 4
        if key is None:
            doc[where][at] = value
        elif value is missing:
            del doc[where][at][key]
        else:
            doc[where][at][key] = value
        bad.write_text(json.dumps(doc))
        assert run(capsys, "solve", bad) == (2, "", f"error: {message}\n"), (where, key, value)


def test_output_bytes_match_the_recorded_files(capsys):
    # byte for byte, so the order of the meta keys counts too
    cases = [
        (("solve", CORPUS / "fig5.game", "--bound", "8", "--regions", "--format", "structured"),
         "fig5_bound8.structured.json"),
        (("solve", CORPUS / "fig1.game", "--regions", "--format", "structured"),
         "fig1.structured.json"),
        (("solve", CORPUS / "fig3_n2.game", "--regions", "--format", "structured"),
         "fig3_n2.structured.json"),
        # the default clamp, sized from the largest finite energy credit
        (("solve", CORPUS / "countdown_even.game", "--regions", "--format", "structured"),
         "countdown_even.structured.json"),
        (("reduce", CORPUS / "loop0_total.game", "--to", "ocpg"), "loop0_total.ocpg"),
        # the lowest gap is empty: Eve asserts regions 2, 3 and 4
        (("reduce", CORPUS / "fig5.game", "--to", "ocpg"), "fig5.ocpg"),
        # ids that JSON must escape: a quote, a backslash, a non-ASCII
        # letter and a character outside the Basic Multilingual Plane
        (("solve", GOLDEN / "escaped_ids.game", "--regions", "--format", "structured"),
         "escaped_ids.structured.json"),
        (("solve", CORPUS / "fig5.game", "--bound", "8", "--format", "structured"),
         "fig5_bound8.winner.json"),
    ]
    for argv, recorded in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out == (GOLDEN / recorded).read_text(), recorded


@pytest.mark.parametrize("name", ["fig1", "fig5", "liminf_two_loops"])
def test_sup_twins_print_their_originals_bytes(capsys, name):
    # each twin has its original's owners, negated weights, the mirrored
    # union and the sup-style payoff, so Eve wins exactly where she wins
    # the original, and the meta names the inf payoff that is solved
    def solve(game, *flags):
        code, out, err = run(capsys, "solve", game, *flags, "--regions", "--format", "structured")
        assert (code, err) == (0, ""), game
        return out

    twin = CORPUS / f"{name}_sup.game"
    assert solve(twin) == solve(CORPUS / f"{name}.game")
    if name == "fig5":
        assert solve(twin, "--bound", "8") == (GOLDEN / "fig5_bound8.structured.json").read_text()


def test_commands_restore_the_collector_state(capsys):
    # main pauses the cyclic collector for one command
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(capsys, "solve", CORPUS / "fig1.game")[0] == 0
            assert run(capsys, "solve", CORPUS / "ds_singleton.game")[0] == 3
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


def test_solvers_leave_no_cyclic_garbage():
    # what a command leaves while the collector is paused stays until the
    # command ends, so every solver must free its work by reference counting
    solvers = {
        Payoff.LIMINF: lambda g, o: solve_liminf(g, o.intervals),
        Payoff.MP_INF: lambda g, o: solve_mp_interval(g, o.intervals),
        Payoff.DISCOUNTED: lambda g, o: solve_ds_interval(g, o.lam, o.intervals),
        Payoff.TOTAL_INF: lambda g, o: solve_total_interval(g, o.intervals),
    }
    solved = set()
    for game in sorted(CORPUS.glob("*.game")):
        g, o = normalize(*read_document(game.read_text()))
        gc.collect()
        gc.disable()
        try:
            solvers[o.payoff](g, o)
        except GameError:
            continue
        else:
            assert gc.collect() == 0, game.name
            solved.add(o.payoff)
        finally:
            gc.enable()
    assert solved == set(solvers)
    gc.collect()
    gc.disable()
    try:
        solve_parity(priority_line(12))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_parity_document(capsys, tmp_path):
    _, text, _ = run(capsys, "generate", "random-parity", "--vertices", "4", "--seed", "2")
    f = tmp_path / "p.game"
    f.write_text(text)
    code, out, _ = run(capsys, "check", f, "--suite", "oracle")
    assert code == 0 and "agreement" in out
    code, out, _ = run(capsys, "check", f, "--suite", "stability")
    assert code == 0 and "deterministic" in out


def test_check_solves_a_parity_document_for_its_sidecar(capsys, tmp_path):
    # Adam wins from q0: every play from q0 reaches his vertex q1, where he
    # loops at priority 3 forever
    _, text, _ = run(capsys, "generate", "random-parity", "--vertices", "3", "--seed", "5")
    f = tmp_path / "p.game"
    f.write_text(text)
    for suite in ("oracle", "stability"):
        (tmp_path / "p.expect").write_text(json.dumps({"winner": "adam"}))
        code, out, _ = run(capsys, "check", f, "--suite", suite)
        assert code == 0 and out.startswith("winner: adam\n")
        (tmp_path / "p.expect").write_text(json.dumps({"winner": "eve"}))
        code, _, err = run(capsys, "check", f, "--suite", suite)
        assert code == 4 and "expected winner 'eve', got adam" in err


def _corpus(name):
    return lambda: (CORPUS / f"{name}.game").read_text()


def _band_loop(weight):
    """One Eve vertex looping at `weight`, under mean-payoff in {0} u {2}:
    the positional oracle gives bounds only, and claims the vertex for Eve
    at weight 0 and for Adam at weight 1."""
    g = GameGraph.from_edges(("v",), (Player.EVE,), (Edge(0, 0, weight),), 0)
    iu = IntervalUnion((Interval(Fraction(0), Fraction(0)), Interval(Fraction(2), Fraction(2))))
    return lambda: write_document(g, Objective(Payoff.MP_INF, iu))


def _flip_later(monkeypatch):
    # every solve after the first gives Adam everything
    solve, solves = cli._solve_game, []

    def flipping(g, o, bound):
        regions, meta = solve(g, o, bound)
        solves.append(regions)
        if len(solves) > 1:
            regions = Regions(win_eve=frozenset(), win_adam=frozenset(range(g.n)))
        return regions, meta

    monkeypatch.setattr(cli, "_solve_game", flipping)


def _flip_start(monkeypatch):
    # every solve gives the start vertex to the other player
    solve = cli._solve_game

    def flipping(g, o, bound):
        regions, meta = solve(g, o, bound)
        start = frozenset({g.initial})
        return Regions(win_eve=regions.win_eve ^ start, win_adam=regions.win_adam ^ start), meta

    monkeypatch.setattr(cli, "_solve_game", flipping)


def _move_a_value(monkeypatch):
    # the start vertex's minmax value is one more than the game's
    values = cli.ds_optimal_values

    def moved(g, lam):
        minmax, maxmin = values(g, lam)
        minmax = list(minmax)
        minmax[g.initial] += 1
        return tuple(minmax), maxmin

    monkeypatch.setattr(cli, "ds_optimal_values", moved)


@pytest.mark.parametrize(
    "document, suite, sidecar, patch, complaint",
    [
        pytest.param(_corpus("fig1"), "stability", {"winner": "error"}, None,
                     "expected an unsupported-objective error, got eve", id="error-sidecar"),
        pytest.param(_corpus("fig1"), "stability", None, _flip_later,
                     "verdict for q0 flipped from eve to adam at a second solve",
                     id="stability-flip"),
        pytest.param(lambda: write_document(random_parity_game(random.Random(2), 4)), "oracle",
                     None, _flip_start, "solver disagrees with exact positional oracle",
                     id="parity"),
        pytest.param(_corpus("liminf_two_loops"), "oracle", None, _flip_start,
                     "solver disagrees with exact positional oracle", id="exact-oracle"),
        pytest.param(_band_loop(0), "oracle", None, _flip_start,
                     "positional Eve bound exceeds the solved region", id="eve-bound"),
        pytest.param(_band_loop(1), "oracle", None, _flip_start,
                     "positional Adam bound exceeds the solved region", id="adam-bound"),
        pytest.param(_corpus("ds_thirds"), "oracle", None, _flip_start,
                     "discounted solver disagrees with reference search", id="reference-search"),
        pytest.param(_corpus("ds_thirds"), "oracle", None, _move_a_value,
                     "discounted game values fail their one-step equations",
                     id="value-certificate"),
    ],
)
def test_check_names_each_disagreement(
    capsys, tmp_path, monkeypatch, document, suite, sidecar, patch, complaint
):
    f = tmp_path / "doc.game"
    f.write_text(document())
    if sidecar is not None:
        (tmp_path / "doc.expect").write_text(json.dumps(sidecar))
    if patch is not None:
        patch(monkeypatch)
    assert run(capsys, "check", f, "--suite", suite) == (4, "", f"error: {complaint}\n")


def test_resource_guard_exit_code(capsys, tmp_path):
    # 10 vertices with 4 exits each: the positional oracle guard must trip
    vertices = [{"id": f"v{i}", "owner": "eve"} for i in range(10)]
    edges = [
        {"src": f"v{i}", "dst": f"v{(i + k) % 10}", "weight": 0}
        for i in range(10)
        for k in range(4)
    ]
    doc = {
        "vertices": vertices,
        "edges": edges,
        "initial": "v0",
        "objective": {
            "payoff": "liminf",
            "intervals": [{"lo": "0", "hi": "0", "lo_open": False, "hi_open": False}],
        },
    }
    f = tmp_path / "big.game"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", f, "--suite", "oracle")
    assert code == 5

    # at lambda = 999/1000 the decision depth is 7,598 steps; the backward
    # walk over winning sets answers without recursing: Eve loops at a for
    # a payoff of exactly 0
    deep = {
        "vertices": [{"id": "a", "owner": "eve"}, {"id": "b", "owner": "adam"}],
        "edges": [
            {"src": "a", "dst": "b", "weight": 1},
            {"src": "a", "dst": "a", "weight": 0},
            {"src": "b", "dst": "a", "weight": -1},
            {"src": "b", "dst": "b", "weight": 1},
        ],
        "initial": "a",
        "objective": {
            "payoff": "discounted",
            "lambda": "999/1000",
            "intervals": [{"lo": "0", "hi": "1", "lo_open": False, "hi_open": False}],
        },
    }
    f.write_text(json.dumps(deep))
    code, out, err = run(capsys, "solve", f)
    assert code == 0 and out.split() == ["EVE"] and err == ""


def test_check_raises_unplanned_solve_errors(capsys, tmp_path):
    # solving a total-sum game needs a finite endpoint: without a sidecar
    # planning for that error, check exits 3 as solve does
    doc = {
        "vertices": [{"id": "v", "owner": "eve"}],
        "edges": [{"src": "v", "dst": "v", "weight": 1}],
        "initial": "v",
        "objective": {
            "payoff": "total-inf",
            "intervals": [{"lo": "-inf", "hi": "inf", "lo_open": True, "hi_open": True}],
        },
    }
    f = tmp_path / "everything.game"
    f.write_text(json.dumps(doc))
    assert run(capsys, "solve", f)[0] == 3
    code, out, err = run(capsys, "check", f)
    assert code == 3 and out == "" and "finite" in err

    # a sidecar expecting the error makes it the planned outcome
    code, out, _ = run(capsys, "check", CORPUS / "ds_singleton.game")
    assert code == 0 and "solve error (expected)" in out

    # a sidecar expecting a winner makes it a disagreement
    (tmp_path / "everything.expect").write_text(json.dumps({"winner": "eve"}))
    code, _, err = run(capsys, "check", f)
    assert code == 4 and "expected winner 'eve', got error" in err


def test_deep_reference_search_is_a_resource_guard(capsys, tmp_path):
    # the unpruned finite-horizon oracle recurses once per step: at
    # lambda = 199/200 this game's decision depth is 1,196 steps, while the
    # production solver walks back over them without recursing
    doc = {
        "vertices": [{"id": "v", "owner": "eve"}],
        "edges": [{"src": "v", "dst": "v", "weight": 1}],
        "initial": "v",
        "objective": {
            "payoff": "discounted",
            "lambda": "199/200",
            "intervals": [
                {"lo": "0", "hi": "1", "lo_open": False, "hi_open": False},
                {"lo": "2", "hi": "3", "lo_open": False, "hi_open": False},
            ],
        },
    }
    f = tmp_path / "deep.game"
    f.write_text(json.dumps(doc))
    # hold the stack to 500 frames above the caller's, so the outcome does
    # not hang on how many frames the interpreter spends per call
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 500)
    try:
        assert run(capsys, "solve", f)[0] == 0
        code, _, err = run(capsys, "check", f, "--suite", "oracle")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 5 and "depth 1196" in err and "Traceback" not in err


def test_parser_is_built_once(capsys):
    # one process runs each command as a fresh process would
    commands = [
        ["generate", "random-arena", "--seed", "3", "--vertices", "4"],
        ["solve", str(CORPUS / "fig1.game"), "--regions", "--format", "structured"],
        ["reduce", str(CORPUS / "liminf_two_loops.game"), "--to", "parity"],
        ["check", str(CORPUS / "fig1.game"), "--suite", "stability"],
    ]
    build_parser.cache_clear()
    for argv in commands:
        fresh = fresh_python("-m", "intervalgames.cli", *argv)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser.cache_info().misses == 1


def test_commands_load_the_oracle_and_the_generators_only_to_run_them():
    # one fresh interpreter runs the commands in turn and prints, after the
    # import and after each command, its exit code and which of the two
    # modules are loaded
    code = (
        "import contextlib, io, sys\n"
        "from intervalgames import cli\n"
        "fig1, two_loops = sys.argv[1:]\n"
        "def report(code):\n"
        "    names = ('oracle', 'generate')\n"
        "    print(code, *(m for m in names if f'intervalgames.{m}' in sys.modules))\n"
        "report('import')\n"
        "for argv in (['solve', fig1], ['reduce', two_loops, '--to', 'parity'],\n"
        "             ['check', fig1, '--suite', 'stability'], ['check', fig1, '--suite', 'oracle'],\n"
        "             ['generate', 'random-arena', '--seed', '1', '--vertices', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    report(code)\n"
    )
    proc = fresh_python("-c", code, CORPUS / "fig1.game", CORPUS / "liminf_two_loops.game")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "import", "0", "0", "0", "0 oracle", "0 oracle generate",
    ]


def test_credit_caps_decide_a_2000_vertex_arena(capsys, tmp_path, monkeypatch):
    # every energy game of this solve runs under a credit cap below Brim's
    # bound (14 of them); solved straight at the bound the command takes
    # about 35 times longer, which a timeout cannot tell from a slow host
    code, text, _ = run(
        capsys, "generate", "random-arena", "--seed", 1, "--vertices", 2000, "--payoff", "mp-inf"
    )
    assert code == 0
    f = tmp_path / "arena2000.game"
    f.write_text(text)
    caps = []
    energy_credits = meanpayoff._energy_credits

    def recorded(g, alive, player, scale, offset, _cap_units=None):
        caps.append(_cap_units)
        return energy_credits(g, alive, player, scale, offset, _cap_units)

    monkeypatch.setattr(meanpayoff, "_energy_credits", recorded)
    code, _, err = run(capsys, "solve", f)
    assert (code, err) == (0, "")
    assert caps and None not in caps


def test_deep_parity_game_needs_no_recursion(capsys, tmp_path):
    # a line of 1,201 priorities makes Zielonka nest 1,201 frames deep,
    # past the interpreter's default recursion limit
    n = 1201
    f = tmp_path / "line.game"
    f.write_text(write_document(priority_line(n)))
    code, out, err = run(capsys, "check", f, "--suite", "stability")
    assert code == 0 and "deterministic" in out
    assert "Traceback" not in err
    code, text, err = run(capsys, "reduce", f, "--to", "liminf")
    assert code == 0
    g = tmp_path / "line_liminf.game"
    g.write_text(text)
    code, out, err = run(capsys, "solve", g, "--regions")
    assert code == 0 and "Traceback" not in err
    lines = out.split("\n")
    assert lines[0] == "EVE"
    assert sorted(lines[1:-1]) == sorted(f"v{i} eve" for i in range(n))


def test_reader_closing_early_is_no_traceback(tmp_path):
    # 3,000 long vertex names print far more than a pipe holds, so the
    # solve is still writing when the reader goes away
    n = 3000
    g = GameGraph.from_edges(
        names=tuple(f"{'v' * 100}{i}" for i in range(n)),
        owner=(Player.EVE,) * n,
        edges=tuple(Edge(i, i, i % 2) for i in range(n)),
        initial=0,
    )
    o = Objective(Payoff.LIMINF, IntervalUnion((Interval(Fraction(0), Fraction(0)),)))
    f = tmp_path / "wide.game"
    f.write_text(write_document(g, o))
    # buffered stdout, as in a terminal session: unbuffered, the rest of
    # one large write can be dropped without an error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for argv in (["solve", f, "--regions"], ["reduce", f, "--to", "parity"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "intervalgames.cli", *map(str, argv)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(3):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, err
        assert "Traceback" not in err, err
        assert not err, err


_FUZZ_BASES = (
    {
        "vertices": [{"id": "a", "owner": "eve"}, {"id": "b", "owner": "adam"}],
        "edges": [
            {"src": "a", "dst": "b", "weight": 1},
            {"src": "b", "dst": "a", "weight": -1},
            {"src": "b", "dst": "b", "weight": 2},
        ],
        "initial": "a",
        "objective": {
            "payoff": "mp-inf",
            "intervals": [{"lo": "0", "hi": "1", "lo_open": False, "hi_open": True}],
        },
    },
    {
        "vertices": [{"id": "a", "owner": "eve"}, {"id": "b", "owner": "adam"}],
        "edges": [
            {"src": "a", "dst": "b", "weight": 2},
            {"src": "a", "dst": "a", "weight": 0},
            {"src": "b", "dst": "a", "weight": -1},
        ],
        "initial": "b",
        "objective": {
            "payoff": "discounted",
            "lambda": "1/2",
            "intervals": [{"lo": "-1", "hi": "1", "lo_open": True, "hi_open": False}],
        },
    },
    {
        "vertices": [
            {"id": "a", "owner": "eve", "priority": 2},
            {"id": "b", "owner": "adam", "priority": 1},
        ],
        "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}, {"src": "b", "dst": "b"}],
        "initial": "a",
        "objective": {"payoff": "parity"},
    },
)
_FUZZ_PATHS = (
    ("objective", "payoff"),
    ("objective", "lambda"),
    ("objective", "intervals", 0, "lo"),
    ("objective", "intervals", 0, "hi"),
    ("objective", "intervals", 0, "lo_open"),
    ("objective", "intervals", 0, "hi_open"),
    ("initial",),
    ("vertices", 0, "id"),
    ("vertices", 1, "owner"),
    ("vertices", 0, "priority"),
    ("edges", 0, "src"),
    ("edges", 1, "dst"),
    ("edges", 2, "weight"),
    ("vertices",),
    ("edges",),
    ("objective", "intervals"),
    ("zero_edges",),
)
_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.just(0.5),
    st.sampled_from(
        ["1_0", "1e5", "1/0", "1/2", "3/2", "inf", "-inf", "a", "b", "zz", "eve", "adam",
         "parity", "ocpg", *(p.value for p in Payoff)]
    ),
    st.just({}),
    st.lists(st.integers(0, 1), max_size=2),
)
_FUZZ_COMMANDS = (
    ("solve",),
    ("check", "--suite", "oracle"),
    ("check", "--suite", "stability"),
    *(("reduce", "--to", target) for target in ("parity", "ocpg", "mp", "liminf")),
)


def _mutate(doc, path, value):
    """Set the field at `path` to `value`, unless an earlier mutation left
    no such field to reach."""
    *head, last = path
    try:
        for key in head:
            doc = doc[key]
        doc[last] = value
    except (LookupError, TypeError):
        pass


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(_FUZZ_BASES),
    st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES), min_size=1, max_size=3),
)
def test_mutated_documents_end_in_a_documented_exit_code(capsys, tmp_path, base, mutations):
    # any document either solves or exits with its documented code, and no
    # exception escapes `main`
    doc = copy.deepcopy(base)
    for path, value in mutations:
        _mutate(doc, path, value)
    f = tmp_path / "fuzz.game"
    f.write_text(json.dumps(doc))
    for command, *flags in _FUZZ_COMMANDS:
        code = main([command, str(f), *flags])
        assert code in (0, 2, 3, 4, 5), (command, flags, doc)
    capsys.readouterr()
