"""Deterministic instance generators for the CLI and the test suites.

Every generator takes an explicit `random.Random` so the same seed always
yields byte-identical documents.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .arena import (
    BadParameters,
    Edge,
    GameGraph,
    Interval,
    IntervalUnion,
    MINUS_INF,
    PLUS_INF,
    Objective,
    ParityGame,
    Payoff,
    Player,
)
from .totalsum import CountdownInstance
from .discounted import SubsetSumInstance


def random_game(
    rng: random.Random,
    n_vertices: int,
    max_weight: int = 3,
) -> GameGraph:
    """Random arena: one guaranteed exit per vertex plus n_vertices more."""
    names = tuple(f"q{i}" for i in range(n_vertices))
    owner = tuple(rng.choice((Player.EVE, Player.ADAM)) for _ in range(n_vertices))
    edges = []
    for v in range(n_vertices):
        edges.append(
            Edge(v, rng.randrange(n_vertices), rng.randint(-max_weight, max_weight))
        )
    for _ in range(n_vertices):
        edges.append(
            Edge(
                rng.randrange(n_vertices),
                rng.randrange(n_vertices),
                rng.randint(-max_weight, max_weight),
            )
        )
    return GameGraph.from_edges(names, owner, edges, 0)


def random_parity_game(
    rng: random.Random,
    n_vertices: int,
    max_priority: int = 3,
) -> ParityGame:
    g = random_game(rng, n_vertices, max_weight=0)
    return ParityGame(
        g.names, g.owner, g.src, g.dst, g.weight,  # weight 0 throughout
        priority=tuple(rng.randint(0, max_priority) for _ in range(n_vertices)),
        initial=0,
        checked=True,
    )


def random_interval_union(
    rng: random.Random,
    max_pieces: int = 2,
    span: int = 4,
    allow_unbounded: bool = True,
    forbid_singletons: bool = False,
    half_grid: bool = False,
) -> IntervalUnion:
    """Random canonical union of up to `max_pieces` intervals with
    endpoints in [-span, span] (integer or half-integer grid)."""
    denominator = 2 if half_grid else 1

    def point() -> Fraction:
        return Fraction(rng.randint(-span * denominator, span * denominator), denominator)

    while True:
        pieces = []
        for _ in range(rng.randint(0, max_pieces)):
            a, b = sorted((point(), point()))
            lo_open = rng.random() < 0.5
            hi_open = rng.random() < 0.5
            if a == b:
                if forbid_singletons:
                    continue
                lo_open = hi_open = False
            pieces.append(Interval(a, b, lo_open, hi_open))
        if allow_unbounded and rng.random() < 0.3:
            pieces.append(Interval(point(), PLUS_INF, rng.random() < 0.5, True))
        if allow_unbounded and rng.random() < 0.2:
            pieces.append(Interval(MINUS_INF, point(), True, rng.random() < 0.5))
        union = IntervalUnion(tuple(pieces))
        if forbid_singletons and union.has_singleton:
            continue
        return union


def random_countdown(
    rng: random.Random,
    n_vertices: int,
    credit: int,
    max_weight: int = 4,
) -> CountdownInstance:
    """Bipartite countdown instance (edges always switch owner, so the
    players alternate as the reduction to total-sum games assumes)."""
    if n_vertices < 2:
        raise BadParameters("countdown instances need at least two vertices")
    names = tuple(f"c{i}" for i in range(n_vertices))
    owner = tuple(Player.EVE if i % 2 == 0 else Player.ADAM for i in range(n_vertices))
    other = [
        [u for u in range(n_vertices) if owner[u] is not owner[v]]
        for v in range(n_vertices)
    ]
    edges = []
    for v in range(n_vertices):
        for _ in range(rng.randint(1, 2)):
            edges.append(
                Edge(v, rng.choice(other[v]), -rng.randint(1, max_weight))
            )
    return CountdownInstance(
        names=names, owner=owner, edges=tuple(edges), initial=0, credit=credit
    )


def random_subset_sum(
    rng: random.Random,
    n_pairs: int,
    target: Optional[int] = None,
    max_value: int = 8,
) -> SubsetSumInstance:
    pairs = tuple(
        (rng.randint(0, max_value), rng.randint(0, max_value)) for _ in range(n_pairs)
    )
    if target is None:
        # aim near the middle so both players have a fighting chance
        target = sum(min(a, b) for a, b in pairs) + rng.randint(
            0, max(1, sum(abs(a - b) for a, b in pairs))
        )
    return SubsetSumInstance(target=target, pairs=pairs)


def random_objective(
    rng: random.Random,
    payoff: Payoff,
    max_pieces: int = 2,
) -> Objective:
    if payoff is Payoff.DISCOUNTED:
        lam = rng.choice((Fraction(1, 2), Fraction(2, 3)))
        iu = random_interval_union(rng, max_pieces, forbid_singletons=True, half_grid=True)
        return Objective(payoff=payoff, intervals=iu, lam=lam)
    iu = random_interval_union(rng, max_pieces, half_grid=True)
    return Objective(payoff=payoff, intervals=iu)


def zero_cycle_game(rng: random.Random, n_vertices: int) -> GameGraph:
    """Arena in which every cycle has weight exactly zero: weights are the
    differences of a random vertex potential in [-3, 3], so the running sum
    at a vertex is a function of the vertex alone."""
    g = random_game(rng, n_vertices, max_weight=0)
    phi = [rng.randint(-3, 3) for _ in range(n_vertices)]
    weight = tuple(phi[dst] - phi[src] for src, dst in zip(g.src, g.dst))
    return GameGraph(g.names, g.owner, g.src, g.dst, weight, initial=0, checked=True)
