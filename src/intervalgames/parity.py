"""Min-parity games: attractor computation and a Zielonka-style solver.

Convention: Eve wins a play iff the minimal priority seen infinitely
often is even.  The solver returns positional strategies for both players
on their winning regions; ties are broken toward the lowest-index edge.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .arena import (
    MalformedDocument,
    ParityGame,
    PEdge,  # noqa: F401  (re-exported)
    Player,
    Regions,
    read_document,
    write_document,
)


def parse_parity_game(text: str) -> ParityGame:
    """Parse a parity document: the game format with payoff "parity" and a
    per-vertex priority; edge weights are ignored."""
    parsed = read_document(text)
    if not isinstance(parsed, ParityGame):
        raise MalformedDocument("not a parity document")
    return parsed


def serialize_parity_game(p: ParityGame, comment: Optional[str] = None) -> str:
    return write_document(p, comment=comment)


def attractor(
    game,
    target: Iterable[int],
    player: Player,
    within: Optional[frozenset[int]] = None,
) -> frozenset[int]:
    """Least set from which `player` can force reaching `target`.

    Works on every `Arena` (game graphs and parity games alike).
    `within` restricts play to a subset of vertices (edges leaving it do
    not exist); by default all vertices.
    """
    attr, _ = attractor_with_strategy(game, target, player, within)
    return attr


def attractor_with_strategy(
    game,
    target: Iterable[int],
    player: Player,
    within: Optional[frozenset[int]] = None,
) -> tuple[frozenset[int], dict[int, int]]:
    """Attractor plus, for player-owned vertices pulled in (excluding the
    target itself), the lowest-index edge that makes progress."""
    alive = frozenset(range(game.n)) if within is None else within
    attr = {v for v in target if v in alive}
    strategy: dict[int, int] = {}
    # countdown of not-yet-attracted successors for opponent vertices
    remaining = {}
    for v in alive:
        if game.owner[v] is not player:
            remaining[v] = sum(1 for i in game.out_edges[v] if game.edges[i].dst in alive)
    queue = sorted(attr)
    while queue:
        next_queue: set[int] = set()
        for u in queue:
            for i in game.in_edges[u]:
                v = game.edges[i].src
                if v not in alive or v in attr:
                    continue
                if game.owner[v] is player:
                    # lowest-index edge into the attractor before v joins,
                    # so progress toward the target is guaranteed
                    for j in game.out_edges[v]:
                        if game.edges[j].dst in attr:
                            strategy[v] = j
                            break
                    attr.add(v)
                    next_queue.add(v)
                else:
                    remaining[v] -= 1
                    if remaining[v] == 0:
                        attr.add(v)
                        next_queue.add(v)
        queue = sorted(next_queue)
    return frozenset(attr), strategy


def _only_priority_region(p: ParityGame, alive: frozenset[int], parity: int):
    """All of `alive` is won by the parity owner when every priority in it
    has that parity; strategy: lowest-index edge staying alive."""
    winner = Player.EVE if parity == 0 else Player.ADAM
    strat = {}
    for v in alive:
        if p.owner[v] is winner:
            for j in p.out_edges[v]:
                if p.edges[j].dst in alive:
                    strat[v] = j
                    break
    return winner, strat


def _solve(p: ParityGame, alive: frozenset[int]):
    """Zielonka recursion over an alive-mask; the second recursion is
    unrolled into a loop so stack depth stays proportional to the number
    of priority alternations rather than the vertex count."""
    adam_total: set[int] = set()
    adam_strat_total: dict[int, int] = {}
    eve_total: set[int] = set()
    eve_strat_total: dict[int, int] = {}
    while alive:
        d = min(p.priority[v] for v in alive)
        player = Player.EVE if d % 2 == 0 else Player.ADAM
        if all(p.priority[v] % 2 == d % 2 for v in alive):
            winner, strat = _only_priority_region(p, alive, d % 2)
            if winner is Player.EVE:
                eve_total |= alive
                eve_strat_total.update(strat)
            else:
                adam_total |= alive
                adam_strat_total.update(strat)
            break
        target = frozenset(v for v in alive if p.priority[v] == d)
        attr, attr_strat = attractor_with_strategy(p, target, player, alive)
        sub_eve, sub_adam, sub_se, sub_sa = _solve(p, alive - attr)
        opp_region = sub_adam if player is Player.EVE else sub_eve
        if not opp_region:
            # player wins everything still alive
            strat = dict(sub_se if player is Player.EVE else sub_sa)
            strat.update(attr_strat)
            for v in sorted(target):
                if p.owner[v] is player and v not in strat:
                    for j in p.out_edges[v]:
                        if p.edges[j].dst in alive:
                            strat[v] = j
                            break
            if player is Player.EVE:
                eve_total |= alive
                eve_strat_total.update(strat)
            else:
                adam_total |= alive
                adam_strat_total.update(strat)
            break
        opponent = player.opponent
        battr, battr_strat = attractor_with_strategy(p, opp_region, opponent, alive)
        opp_strat = dict(sub_sa if player is Player.EVE else sub_se)
        opp_strat.update(battr_strat)
        if opponent is Player.EVE:
            eve_total |= battr
            eve_strat_total.update(opp_strat)
        else:
            adam_total |= battr
            adam_strat_total.update(opp_strat)
        alive = alive - battr
    return (
        frozenset(eve_total),
        frozenset(adam_total),
        eve_strat_total,
        adam_strat_total,
    )


def solve_parity(p: ParityGame) -> Regions:
    """Exact winning partition with positional strategies for both players."""
    eve, adam, se, sa = _solve(p, frozenset(range(p.n)))
    regions = Regions(
        win_eve=eve,
        win_adam=adam,
        eve_strategy={v: j for v, j in se.items() if p.owner[v] is Player.EVE},
        adam_strategy={v: j for v, j in sa.items() if p.owner[v] is Player.ADAM},
    )
    regions.check_partition(p.n)
    return regions
