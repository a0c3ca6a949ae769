import random

import pytest

from intervalgames.arena import MINUS_INF, PLUS_INF, Edge, Interval, ParityGame, Player
from intervalgames.liminf import integerize


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
