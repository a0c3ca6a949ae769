"""Command line front end: solve, reduce, generate and check instances.

Exit codes: 0 solved (any winner), 1 standard output closed by its
reader before everything was written (as in `solve --regions | head`),
2 document or parameter error, 3 unsupported objective or reduction,
4 oracle disagreement, 5 resource guard tripped.
"""

from __future__ import annotations

import argparse
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
    GameGraph,
    MalformedDocument,
    Objective,
    OneCounterParityGame,
    ParityGame,
    Payoff,
    UnsupportedObjective,
    Verdict,
    normalize,
    parse_rational,
    read_document,
    write_document,
)
from .discounted import decision_depth, solve_ds_interval, subset_sum_to_ds
from .liminf import liminf_to_parity, parity_to_liminf, solve_liminf
from .meanpayoff import parity_to_mp, solve_mp_interval
from .oracle import brute_force_finite_horizon_ds, brute_force_positional
from .parity import solve_parity
from .totalsum import countdown_to_total, solve_total_interval, totalsum_to_ocpg


class IncompatibleReduction(UnsupportedObjective):
    pass


class OracleDisagreement(GameError):
    exit_code = 4


def _load_document(path: str):
    """Returns (graph, objective) for a payoff game or a ParityGame."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    parsed = read_document(text)
    if isinstance(parsed, OneCounterParityGame):
        raise UnsupportedObjective(
            "one-counter documents are reduction outputs and cannot be solved directly"
        )
    return parsed


def _solve_game(g: GameGraph, o: Objective, bound: Optional[int]):
    """Dispatch one instance; returns (verdict, per-vertex verdicts, meta)."""
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
    elif o.payoff is Payoff.TOTAL_INF:
        solved = solve_total_interval(g, o.intervals, bound=bound)
        meta["algorithm"] = "total-ocpg-bounded"
        meta["bound"] = solved.bound
        verdicts = {name: solved.verdicts[name] for name in g.names}
        return verdicts[g.names[g.initial]], verdicts, meta
    else:
        raise UnsupportedObjective(f"cannot solve payoff {o.payoff.value}")
    verdicts = {name: regions.verdict(v) for v, name in enumerate(g.names)}
    return verdicts[g.names[g.initial]], verdicts, meta


def cmd_solve(args) -> int:
    if args.bound is not None and args.bound < 1:
        raise BadParameters(f"--bound {args.bound} must be at least 1")
    parsed = _load_document(args.file)
    if isinstance(parsed, ParityGame):
        raise UnsupportedObjective(
            "parity documents are only accepted by reduce/check"
        )
    g, o = parsed
    verdict, verdicts, meta = _solve_game(g, o, args.bound)
    if args.format == "structured":
        out = {
            "winner": verdict.value,
            "meta": meta,
        }
        if args.regions:
            out["regions"] = {name: v.value for name, v in verdicts.items()}
        print(json.dumps(out, indent=2))
    else:
        print(verdict.name)
        if args.regions:
            for name, v in verdicts.items():
                print(f"{name} {v.value}")
    return 0


def cmd_reduce(args) -> int:
    parsed = _load_document(args.file)
    target = args.to
    if isinstance(parsed, ParityGame):
        p = parsed
        if target == "liminf":
            g, iu = parity_to_liminf(p)
            sys.stdout.write(write_document(g, Objective(payoff=Payoff.LIMINF, intervals=iu)))
            return 0
        if target == "mp":
            g, iu = parity_to_mp(p)
            sys.stdout.write(write_document(g, Objective(payoff=Payoff.MP_INF, intervals=iu)))
            return 0
        raise IncompatibleReduction(f"cannot reduce a parity game to {target!r}")
    g, o = parsed
    g, o = normalize(g, o)
    if target == "parity":
        if o.payoff is not Payoff.LIMINF:
            raise IncompatibleReduction(
                f"cannot reduce payoff {o.payoff.value!r} to a parity game"
            )
        sys.stdout.write(write_document(liminf_to_parity(g, o.intervals)))
        return 0
    if target == "ocpg":
        if o.payoff is not Payoff.TOTAL_INF:
            raise IncompatibleReduction(
                f"cannot reduce payoff {o.payoff.value!r} to a one-counter game"
            )
        sys.stdout.write(write_document(totalsum_to_ocpg(g, o.intervals)))
        return 0
    raise IncompatibleReduction(f"cannot reduce a payoff game to {target!r}")


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "subset-sum":
        if args.pairs is None or args.pairs < 1:
            raise BadParameters("subset-sum needs --pairs >= 1")
        lam = parse_rational(args.discount)
        if not 0 < lam < 1:
            raise BadParameters(f"discount factor {args.discount} not in (0,1)")
        if args.max_value < 0:
            raise BadParameters("subset-sum needs --max-value >= 0")
        instance = generate.random_subset_sum(
            rng, args.pairs, target=args.target, max_value=args.max_value
        )
        g, iu, lam, scale = subset_sum_to_ds(instance, lam)
        comment = (
            f"subset-sum instance target={instance.target} "
            f"pairs={list(instance.pairs)} scale={scale}"
        )
        o = Objective(payoff=Payoff.DISCOUNTED, intervals=iu, lam=lam)
        sys.stdout.write(write_document(g, o, comment=comment))
        return 0
    if args.kind == "countdown":
        if args.vertices is None or args.vertices < 2:
            raise BadParameters("countdown needs --vertices >= 2")
        if args.credit is None or args.credit < 1:
            raise BadParameters("countdown needs --credit >= 1")
        if args.max_weight < 1:
            raise BadParameters("countdown needs --max-weight >= 1")
        cd = generate.random_countdown(
            rng, args.vertices, args.credit, max_weight=args.max_weight
        )
        g, iu = countdown_to_total(cd)
        comment = f"countdown instance credit={cd.credit}"
        o = Objective(payoff=Payoff.TOTAL_INF, intervals=iu)
        sys.stdout.write(write_document(g, o, comment=comment))
        return 0
    if args.kind == "random-parity":
        if args.vertices is None or args.vertices < 1:
            raise BadParameters("random-parity needs --vertices >= 1")
        if args.max_priority < 0:
            raise BadParameters("random-parity needs --max-priority >= 0")
        p = generate.random_parity_game(rng, args.vertices, args.max_priority)
        sys.stdout.write(write_document(p))
        return 0
    if args.kind == "random-arena":
        if args.vertices is None or args.vertices < 1:
            raise BadParameters("random-arena needs --vertices >= 1")
        if args.max_weight < 0:
            raise BadParameters("random-arena needs --max-weight >= 0")
        if args.intervals < 0:
            raise BadParameters("random-arena needs --intervals >= 0")
        try:
            payoff = Payoff(args.payoff)
        except ValueError:
            raise BadParameters(f"unknown payoff {args.payoff!r}")
        g = generate.random_game(rng, args.vertices, max_weight=args.max_weight)
        o = generate.random_objective(rng, payoff, max_pieces=args.intervals)
        sys.stdout.write(write_document(g, o))
        return 0
    raise BadParameters(f"unknown generator kind {args.kind!r}")


def _check_expectation(path: str, verdict: Optional[Verdict], error: Optional[GameError]) -> Optional[str]:
    """Compare against a sidecar file, if present.  Returns a complaint or
    None; sidecars may expect a winner or that solving errors out."""
    sidecar = Path(path).with_suffix(".expect")
    if not sidecar.exists():
        return None
    try:
        expect = json.loads(sidecar.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        return f"cannot read expectation sidecar: {exc}"
    if not isinstance(expect, dict):
        return "cannot read expectation sidecar: not a JSON object"
    want = expect.get("winner")
    if want == "error":
        if error is None:
            got = verdict.value if verdict is not None else "nothing"
            return f"expected an unsupported-objective error, got {got}"
        return None
    if error is not None:
        return f"expected winner {want!r}, got error: {error}"
    if verdict is None or verdict.value != want:
        got = verdict.value if verdict is not None else "nothing"
        return f"expected winner {want!r}, got {got}"
    return None


def _oracle_suite(parsed, base) -> list[str]:
    """Cross-check the production solver against the matching oracle on
    one instance; `base` is a payoff game's `_solve_game` result.  Returns
    report lines, raises OracleDisagreement."""
    if isinstance(parsed, ParityGame):
        if brute_force_positional(parsed).win_eve != solve_parity(parsed).win_eve:
            raise OracleDisagreement("parity solver disagrees with enumeration")
        return ["parity: agreement"]
    g, o = parsed
    gn, on = normalize(g, o)
    _, verdicts, _ = base
    win_eve = frozenset(v for v, name in enumerate(gn.names) if verdicts[name] is Verdict.EVE)
    win_adam = frozenset(v for v, name in enumerate(gn.names) if verdicts[name] is Verdict.ADAM)
    if on.payoff is Payoff.DISCOUNTED:
        depth = decision_depth(gn, on.lam, on.intervals)
        if brute_force_finite_horizon_ds(gn, on.lam, on.intervals, depth) != win_eve:
            raise OracleDisagreement("discounted solver disagrees with reference search")
        return ["discounted: agreement with unpruned search"]
    if on.payoff is Payoff.TOTAL_INF:
        return ["total-sum: no positional oracle suite (three-valued solver); skipped"]
    reference = brute_force_positional(gn, on)
    if reference.exact:
        if reference.win_eve != win_eve:
            raise OracleDisagreement("solver disagrees with exact positional oracle")
        return [f"{on.payoff.value}: agreement"]
    if not reference.win_eve <= win_eve:
        raise OracleDisagreement("positional Eve bound exceeds the solved region")
    if not reference.win_adam <= win_adam:
        raise OracleDisagreement("positional Adam bound exceeds the solved region")
    return [
        f"{on.payoff.value}: bound-only oracle (objective may need memory); "
        "no contradiction"
    ]


def _stability_suite(parsed, base) -> list[str]:
    """Re-solve a payoff game under a larger total-sum bound, or once
    more; `base` is its `_solve_game` result, whose definite verdicts must
    not change."""
    if isinstance(parsed, ParityGame):
        a = solve_parity(parsed)
        b = solve_parity(parsed)
        if a.win_eve != b.win_eve:
            raise OracleDisagreement("parity solver is not deterministic")
        return ["parity: deterministic"]
    g, o = parsed
    _, verdicts, meta = base
    payoff = meta["payoff"]
    if payoff == Payoff.TOTAL_INF.value:
        bounds = [meta["bound"] + extra for extra in (1, 2, 3)]
        variants = [(b, f"bound {b}") for b in bounds]
        line = "total-sum: verdicts stable under bound increase 1..3"
    else:
        variants = [(None, "a second solve")]
        line = f"{payoff}: deterministic"
    for bound, label in variants:
        _, again, _ = _solve_game(g, o, bound)
        for name, was in verdicts.items():
            now = again[name]
            if was is not Verdict.UNKNOWN and now is not was:
                raise OracleDisagreement(
                    f"verdict for {name} flipped from {was.value} to {now.value} at {label}"
                )
    return [line]


def cmd_check(args) -> int:
    parsed = _load_document(args.file)
    solved = None
    solve_error: Optional[GameError] = None
    if not isinstance(parsed, ParityGame):
        g, o = parsed
        try:
            solved = _solve_game(g, o, None)
        except UnsupportedObjective as exc:
            solve_error = exc
    verdict: Optional[Verdict] = solved[0] if solved else None
    complaint = _check_expectation(args.file, verdict, solve_error)
    if complaint:
        raise OracleDisagreement(complaint)
    lines = []
    if verdict is not None:
        lines.append(f"winner: {verdict.value}")
    if solve_error is not None:
        lines.append(f"solve error (expected): {solve_error}")
    if solve_error is None:
        if args.suite == "oracle":
            lines += _oracle_suite(parsed, solved)
        else:
            lines += _stability_suite(parsed, solved)
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_gen.add_argument("--payoff", default="mp-inf")
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
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
