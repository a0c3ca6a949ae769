"""Command line front end: solve, reduce, generate and check instances.

Exit codes: 0 solved (any winner), 1 standard output closed by its
reader before everything was written (as in `solve --regions | head`),
2 document or parameter error, 3 unsupported objective or reduction,
4 oracle disagreement, 5 resource guard tripped or memory exhausted.

`main` pauses Python's cyclic garbage collector for the one command it
runs and restores the collector's prior state after.  The solvers leave
no reference cycles, so everything a command frees is freed by reference
counting; the collector would only rescan the command's live containers.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import generate
from .arena import (
    BadParameters,
    GameError,
    MalformedDocument,
    Objective,
    Payoff,
    UnsupportedObjective,
    Verdict,
    normalize,
    parse_rational,
    read_document,
    write_document,
)
from .discounted import decision_depth, ds_optimal_values, solve_ds_interval, subset_sum_to_ds
from .liminf import liminf_to_parity, parity_to_liminf, solve_liminf
from .meanpayoff import parity_to_mp, solve_mp_interval
from .oracle import brute_force_finite_horizon_ds, brute_force_positional, check_ds_values
from .parity import solve_parity
from .totalsum import countdown_to_total, solve_total_interval, totalsum_to_ocpg


class OracleDisagreement(GameError):
    exit_code = 4


def _load_document(path: str):
    """The document's (game, objective), the objective None for a parity game."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    return read_document(text)


def _solve_game(g, o: Optional[Objective], bound: Optional[int]):
    """Dispatch one instance, a parity game when `o` is None; returns
    (regions over g's vertices, meta).  A sup-style payoff is solved as its
    inf counterpart on `normalize`'s negated copy, whose vertices are g's."""
    if o is None:
        return solve_parity(g), {"payoff": "parity", "algorithm": "zielonka"}
    g, o = normalize(g, o)
    meta: dict = {"payoff": o.payoff.value}
    if o.payoff is Payoff.LIMINF:
        regions = solve_liminf(g, o.intervals)
        meta["algorithm"] = "liminf-to-parity"
    elif o.payoff is Payoff.MP_INF:
        regions = solve_mp_interval(g, o.intervals)
        meta["algorithm"] = "mp-interval-fixpoint"
    elif o.payoff is Payoff.DISCOUNTED:
        regions = solve_ds_interval(g, o.lam, o.intervals)
        meta["algorithm"] = "ds-bounded-search"
    else:  # total-inf: `normalize` leaves no sup-style payoff
        solved = solve_total_interval(g, o.intervals, bound=bound)
        regions = solved.vertices
        meta["algorithm"] = "total-ocpg-bounded"
        meta["bound"] = solved.bound
    return regions, meta


def cmd_solve(args) -> int:
    if args.bound is not None and args.bound < 1:
        raise BadParameters(f"--bound {args.bound} must be at least 1")
    g, o = _load_document(args.file)
    regions, meta = _solve_game(g, o, args.bound)
    verdict = regions.verdict(g.initial)
    if args.regions:
        # regions.verdict(v).value for every vertex v
        column = [Verdict.UNKNOWN.value] * g.n
        adam, eve = Verdict.ADAM.value, Verdict.EVE.value
        for v in regions.win_adam:
            column[v] = adam
        for v in regions.win_eve:
            column[v] = eve
    if args.format == "structured":
        text = json.dumps({"winner": verdict.value, "meta": meta}, indent=2)
        if args.regions:
            # what indent=2 gives with "regions" as the last key, its
            # entries written by the C encoder, which indent would disable
            entries = json.dumps(dict(zip(g.names, column)), separators=(",\n    ", ": "))
            text = f'{text[:-2]},\n  "regions": {{\n    {entries[1:-1]}\n  }}\n}}'
        print(text)
    else:
        print(verdict.name)
        if args.regions:
            for name, value in zip(g.names, column):
                print(f"{name} {value}")
    return 0


def cmd_reduce(args) -> int:
    g, o = _load_document(args.file)
    if o is not None:
        g, o = normalize(g, o)
    source = "parity" if o is None else o.payoff.value
    match source, args.to:
        case "parity", "liminf":
            g, iu = parity_to_liminf(g)
            o = Objective(payoff=Payoff.LIMINF, intervals=iu)
        case "parity", "mp":
            g, iu = parity_to_mp(g)
            o = Objective(payoff=Payoff.MP_INF, intervals=iu)
        case "liminf", "parity":
            g, o = liminf_to_parity(g, o.intervals), None
        case "total-inf", "ocpg":
            g, o = totalsum_to_ocpg(g, o.intervals), None
        case _:
            raise UnsupportedObjective(f"cannot reduce payoff {source!r} to {args.to!r}")
    sys.stdout.write(write_document(g, o))
    return 0


# each kind's integer flags and their least values, checked in this order
_GENERATE_MINIMUMS = {
    "subset-sum": {"pairs": 1, "max_value": 0},
    "countdown": {"vertices": 2, "credit": 1, "max_weight": 1},
    "random-parity": {"vertices": 1, "max_priority": 0},
    "random-arena": {"vertices": 1, "max_weight": 0, "intervals": 0},
}


def cmd_generate(args) -> int:
    kind = args.kind
    for flag, least in _GENERATE_MINIMUMS[kind].items():
        value = getattr(args, flag)
        if value is None or value < least:
            raise BadParameters(f"{kind} needs --{flag.replace('_', '-')} >= {least}")
    rng = random.Random(args.seed)
    if kind == "subset-sum":
        instance = generate.random_subset_sum(
            rng, args.pairs, target=args.target, max_value=args.max_value
        )
        g, iu, lam, scale = subset_sum_to_ds(instance, parse_rational(args.discount))
        o = Objective(payoff=Payoff.DISCOUNTED, intervals=iu, lam=lam)
        comment = (
            f"subset-sum instance target={instance.target} "
            f"pairs={list(instance.pairs)} scale={scale}"
        )
    elif kind == "countdown":
        cd = generate.random_countdown(rng, args.vertices, args.credit, max_weight=args.max_weight)
        g, iu = countdown_to_total(cd)
        o = Objective(payoff=Payoff.TOTAL_INF, intervals=iu)
        comment = f"countdown instance credit={cd.credit}"
    elif kind == "random-parity":
        g = generate.random_parity_game(rng, args.vertices, args.max_priority)
        o = comment = None
    else:  # random-arena, the last kind argparse allows
        g = generate.random_game(rng, args.vertices, max_weight=args.max_weight)
        o = generate.random_objective(rng, Payoff(args.payoff), max_pieces=args.intervals)
        comment = None
    sys.stdout.write(write_document(g, o, comment=comment))
    return 0


def _sidecar(path: str) -> Path:
    return Path(path).with_suffix(".expect")


def _check_expectation(path: str, verdict: Optional[Verdict], error: Optional[GameError]) -> None:
    """Compare against a sidecar file, if present, and raise
    OracleDisagreement with the complaint; sidecars may expect a winner or
    that solving errors out."""
    sidecar = _sidecar(path)
    if not sidecar.exists():
        return
    try:
        expect = json.loads(sidecar.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise OracleDisagreement(f"cannot read expectation sidecar: {exc}")
    if not isinstance(expect, dict):
        raise OracleDisagreement("cannot read expectation sidecar: not a JSON object")
    want = expect.get("winner")
    if want == "error":
        if error is None:
            raise OracleDisagreement(
                f"expected an unsupported-objective error, got {verdict.value}"
            )
    elif error is not None:
        raise OracleDisagreement(f"expected winner {want!r}, got error: {error}")
    elif verdict.value != want:
        raise OracleDisagreement(f"expected winner {want!r}, got {verdict.value}")


def _oracle_suite(g, o: Optional[Objective], base) -> list[str]:
    """Cross-check the production solver against the matching oracle on
    one instance; `base` is its `_solve_game` result.  The oracles read
    the document's own objective, sup-style payoffs included; a parity
    game, with none, meets the exact positional oracle.  Returns report
    lines, raises OracleDisagreement."""
    regions, meta = base
    if o is not None and o.payoff is Payoff.DISCOUNTED:
        if not check_ds_values(g, o.lam, ds_optimal_values(g, o.lam)):
            raise OracleDisagreement("discounted game values fail their one-step equations")
        depth = decision_depth(g, o.lam, o.intervals)
        if brute_force_finite_horizon_ds(g, o.lam, o.intervals, depth) != regions.win_eve:
            raise OracleDisagreement("discounted solver disagrees with reference search")
        return [
            "discounted: game values certified by their one-step equations",
            "discounted: agreement with unpruned search",
        ]
    payoff = meta["payoff"]  # inf-style, as solved, or parity
    if payoff == Payoff.TOTAL_INF.value:
        return ["total-sum: no positional oracle suite (three-valued solver); skipped"]
    reference = brute_force_positional(g, o)
    if reference.exact:
        if reference.win_eve != regions.win_eve:
            raise OracleDisagreement("solver disagrees with exact positional oracle")
        return [f"{payoff}: agreement"]
    if not reference.win_eve <= regions.win_eve:
        raise OracleDisagreement("positional Eve bound exceeds the solved region")
    if not reference.win_adam <= regions.win_adam:
        raise OracleDisagreement("positional Adam bound exceeds the solved region")
    return [f"{payoff}: bound-only oracle (objective may need memory); no contradiction"]


def _stability_suite(g, o: Optional[Objective], base) -> list[str]:
    """Re-solve a document under a larger total-sum bound, or once more;
    `base` is its `_solve_game` result, whose definite verdicts must not
    change."""
    regions, meta = base
    payoff = meta["payoff"]
    if payoff == Payoff.TOTAL_INF.value:
        bounds = [meta["bound"] + extra for extra in (1, 2, 3)]
        variants = [(b, f"bound {b}") for b in bounds]
        line = "total-sum: verdicts stable under bound increase 1..3"
    else:
        variants = [(None, "a second solve")]
        line = f"{payoff}: deterministic"
    for bound, label in variants:
        again, _ = _solve_game(g, o, bound)
        flipped = (regions.win_eve - again.win_eve) | (regions.win_adam - again.win_adam)
        if flipped:
            v = min(flipped)
            raise OracleDisagreement(
                f"verdict for {g.names[v]} flipped from {regions.verdict(v).value} "
                f"to {again.verdict(v).value} at {label}"
            )
    return [line]


def cmd_check(args) -> int:
    g, o = _load_document(args.file)
    try:
        solved = _solve_game(g, o, None)
    except UnsupportedObjective as exc:
        # only a sidecar can plan for an error; without one it exits as it
        # does under `solve`
        if not _sidecar(args.file).exists():
            raise
        _check_expectation(args.file, None, exc)
        print(f"solve error (expected): {exc}")
        return 0
    verdict = solved[0].verdict(g.initial)
    _check_expectation(args.file, verdict, None)
    suite = _oracle_suite if args.suite == "oracle" else _stability_suite
    lines = suite(g, o, solved)  # a disagreement raises before anything prints
    print(f"winner: {verdict.value}", *lines, sep="\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    later `main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="intervalgames",
        description="solve, reduce, generate and cross-check interval payoff games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="print the winner from the initial vertex")
    p_solve.add_argument("file")
    p_solve.add_argument("--bound", type=int, default=None,
                         help="counter clamp for total-sum solving")
    p_solve.add_argument("--regions", action="store_true",
                         help="also print one verdict per vertex")
    p_solve.add_argument("--format", choices=("text", "structured"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_reduce = sub.add_parser("reduce", help="emit a reduced instance document")
    p_reduce.add_argument("file")
    p_reduce.add_argument("--to", required=True,
                          choices=("parity", "ocpg", "mp", "liminf"))
    p_reduce.set_defaults(func=cmd_reduce)

    p_gen = sub.add_parser("generate", help="emit a generated instance document")
    p_gen.add_argument("kind",
                       choices=("subset-sum", "countdown", "random-parity", "random-arena"))
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--pairs", type=int, default=None)
    p_gen.add_argument("--target", type=int, default=None)
    p_gen.add_argument("--max-value", type=int, default=8)
    p_gen.add_argument("--discount", default="1/2")
    p_gen.add_argument("--vertices", type=int, default=None)
    p_gen.add_argument("--credit", type=int, default=None)
    p_gen.add_argument("--max-weight", type=int, default=3)
    p_gen.add_argument("--max-priority", type=int, default=3)
    p_gen.add_argument("--payoff", choices=[p.value for p in Payoff], default="mp-inf")
    p_gen.add_argument("--intervals", type=int, default=2)
    p_gen.set_defaults(func=cmd_generate)

    p_check = sub.add_parser("check", help="cross-check an instance")
    p_check.add_argument("file")
    p_check.add_argument("--suite", choices=("oracle", "stability"), default="oracle")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        # what the command built is freed by now, so there is room to say so
        print("error: out of memory", file=sys.stderr)
        return 5
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
