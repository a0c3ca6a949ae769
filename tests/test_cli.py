import json
from pathlib import Path

from intervalgames.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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

    # a search stopped short of the horizon would decide wrongly
    for slack in ("-1", "-50"):
        code, _, err = run(capsys, "solve", CORPUS / "fig3_n1.game", "--horizon-slack", slack)
        assert code == 2 and "error" in err and "Traceback" not in err, slack


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


def test_check_oracle_suites(capsys):
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


def test_total_sum_bound_flag(capsys):
    code, out, _ = run(capsys, "solve", CORPUS / "fig5.game", "--bound", "8")
    assert code == 0 and out.strip() == "UNKNOWN"
    for bound in ("0", "-3"):
        code, _, err = run(capsys, "solve", CORPUS / "fig5.game", "--bound", bound)
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


def test_horizon_slack_flag(capsys):
    code, out, _ = run(capsys, "solve", CORPUS / "fig3_n2.game", "--horizon-slack", "2")
    assert code == 0 and out.strip() == "EVE"
