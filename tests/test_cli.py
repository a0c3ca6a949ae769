import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from intervalgames.arena import (
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    Objective,
    Payoff,
    Player,
    write_document,
)
from intervalgames.cli import main

from conftest import priority_line

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


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


def test_generate_is_deterministic(capsys):
    args = ("generate", "subset-sum", "--pairs", "2", "--target", "4", "--seed", "7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["objective"]["payoff"] == "discounted"


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


def test_generate_bad_parameters(capsys):
    code, _, err = run(capsys, "generate", "countdown", "--vertices", "1",
                       "--credit", "5", "--seed", "3")
    assert code == 2
    # flags whose value leaves a generator an empty range to draw from
    cases = [
        ("countdown", "--vertices", "4", "--credit", "5", "--max-weight", "0"),
        ("random-arena", "--vertices", "3", "--max-weight", "-1"),
        ("random-arena", "--vertices", "3", "--intervals", "-1"),
        ("random-parity", "--vertices", "3", "--max-priority", "-1"),
        ("subset-sum", "--pairs", "2", "--max-value", "-1"),
    ]
    for args in cases:
        code, _, err = run(capsys, "generate", *args, "--seed", "3")
        assert code == 2 and "error" in err, args


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
    lim_doc = json.loads(lim_text)
    assert len(par_doc["vertices"]) == len(lim_doc["vertices"]) + len(lim_doc["edges"])

    code, ocpg_text, _ = run(capsys, "reduce", CORPUS / "loop0_total.game", "--to", "ocpg")
    assert code == 0
    ocpg_doc = json.loads(ocpg_text)
    assert {(z["src"], z["dst"]) for z in ocpg_doc["zero_edges"]} == {
        ("bot", "zero"), ("top", "zero")
    }


def test_reduce_incompatible(capsys):
    code, _, err = run(capsys, "reduce", CORPUS / "fig1.game", "--to", "parity")
    assert code == 3


def test_solve_rejects_parity_documents(capsys, tmp_path):
    _, parity_text, _ = run(
        capsys, "generate", "random-parity", "--vertices", "2", "--seed", "9"
    )
    pfile = tmp_path / "p.game"
    pfile.write_text(parity_text)
    code, _, err = run(capsys, "solve", pfile)
    assert code == 3


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


def test_check_parity_document(capsys, tmp_path):
    _, text, _ = run(capsys, "generate", "random-parity", "--vertices", "4", "--seed", "2")
    f = tmp_path / "p.game"
    f.write_text(text)
    code, out, _ = run(capsys, "check", f, "--suite", "oracle")
    assert code == 0 and "agreement" in out
    code, out, _ = run(capsys, "check", f, "--suite", "stability")
    assert code == 0 and "deterministic" in out


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

    # at lambda = 999/1000 the discounted search outgrows the interpreter
    # stack long before its horizon
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
    code, _, err = run(capsys, "solve", f)
    assert code == 5 and "error" in err and "depth" in err and "Traceback" not in err


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
    g = GameGraph(
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
