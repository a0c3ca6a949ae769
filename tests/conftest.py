import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from intervalgames.arena import (
    MINUS_INF,
    PLUS_INF,
    Edge,
    GameGraph,
    Interval,
    ParityGame,
    Player,
    Regions,
)
from intervalgames.liminf import integerize
from intervalgames.parity import attractor, solve_parity
from intervalgames.totalsum import LIMBO_WIN, _clamped_game, _pin_bounds

SRC = Path(__file__).resolve().parent.parent / "src"


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


# the one-sided ray on which "MP ~ a" holds, by comparison
RAYS = {
    ">=": lambda a: Interval(a, PLUS_INF, False, True),
    ">": lambda a: Interval(a, PLUS_INF, True, True),
    "<=": lambda a: Interval(MINUS_INF, a, True, False),
    "<": lambda a: Interval(MINUS_INF, a, True, True),
}


def pm_has_finite_endpoint(iu) -> bool:
    """Usable by the total-sum reduction: empty objectives short-circuit,
    otherwise some region boundary must be finite."""
    pm = integerize(iu)
    if pm.is_empty:
        return True
    return any(isinstance(x, int) for lo_hi in pm.intervals for x in lo_hi)


def fresh_python(*args, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """Run a new interpreter on this checkout's `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout, **kwargs,
    )


def loop(weight, owner=Player.EVE):
    """One vertex of `owner` with a self-loop of `weight`."""
    return GameGraph.from_edges(("v",), (owner,), (Edge(0, 0, weight),), 0)


def two_full_solves(game, configs):
    """The configurations' Eve region in the pessimistic reading and Adam
    region in the optimistic one, each solved on the whole clamped game
    whose last vertices are `configs`."""
    everything = frozenset(range(game.n))
    pessimistic = solve_parity(game, everything - {LIMBO_WIN})
    optimistic = solve_parity(game)
    assert attractor(game, pessimistic.win_eve, Player.EVE, everything) == pessimistic.win_eve
    first = game.n - len(configs)
    win_eve = {cfg for k, cfg in enumerate(configs, first) if k in pessimistic.win_eve}
    win_adam = {cfg for k, cfg in enumerate(configs, first) if k in optimistic.win_adam}
    return win_eve, win_adam


def config_regions(g, iu, bound):
    """The regions of two full solves over every configuration of `g`'s
    clamped game at `bound`, UNKNOWN where neither reading decides; none
    when the objective has no integer, where the solver builds no game."""
    pm = integerize(iu)
    if pm.is_empty:
        return Regions(set(), set(), set())
    game, configs = _clamped_game(g, pm, bound, *_pin_bounds(g, pm)[:2])
    win_eve, win_adam = two_full_solves(game, configs)
    return Regions(win_eve, win_adam, set(configs) - win_eve - win_adam)


def priority_line(n: int) -> ParityGame:
    """Eve's line: vertex i has priority i, a self-loop and an edge to
    i+1.  Zielonka nests one frame per priority.  Eve stays on an even
    loop or steps to one, so she wins everywhere except at the last vertex
    when its priority n - 1 is odd."""
    return ParityGame.from_edges(
        names=tuple(f"v{i}" for i in range(n)),
        owner=(Player.EVE,) * n,
        edges=tuple(Edge(i, i) for i in range(n)) + tuple(Edge(i, i + 1) for i in range(n - 1)),
        priority=tuple(range(n)),
        initial=0,
    )


@pytest.fixture
def rng():
    return make_rng(0xC0FFEE)
