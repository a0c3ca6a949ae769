"""Min-parity games: attractor computation and a Zielonka-style solver.

Convention: Eve wins a play iff the minimal priority seen infinitely
often is even.  The solver returns positional strategies for both players
on their winning regions; ties are broken toward the lowest-index edge.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .arena import ParityGame, Player, Regions


def _edge_within(game, v: int, inside) -> int:
    """Lowest-index edge from v into the vertex set `inside`."""
    return next(j for j in game.out_edges[v] if game.edges[j].dst in inside)


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
    # countdown of not-yet-attracted successors for opponent vertices,
    # counted when the vertex is first reached
    remaining: dict[int, int] = {}
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
                    left = remaining.get(v)
                    if left is None:
                        left = sum(1 for j in game.out_edges[v] if game.edges[j].dst in alive)
                    left -= 1
                    remaining[v] = left
                    if left == 0:
                        attr.add(v)
                        next_queue.add(v)
        queue = sorted(next_queue)
    return frozenset(attr), strategy


def _solve(p: ParityGame, alive: frozenset[int]):
    """Zielonka recursion over an alive-mask; the second recursion is
    unrolled into a loop so stack depth stays proportional to the number
    of priority alternations rather than the vertex count.  Returns each
    player's region and strategy, keyed by player."""
    region: dict[Player, set[int]] = {Player.EVE: set(), Player.ADAM: set()}
    strategy: dict[Player, dict[int, int]] = {Player.EVE: {}, Player.ADAM: {}}
    while alive:
        d = min(p.priority[v] for v in alive)
        player = Player.EVE if d % 2 == 0 else Player.ADAM
        if all(p.priority[v] % 2 == d % 2 for v in alive):
            # every priority has d's parity: player wins by staying alive
            region[player] |= alive
            strategy[player].update(
                {v: _edge_within(p, v, alive) for v in alive if p.owner[v] is player}
            )
            break
        target = frozenset(v for v in alive if p.priority[v] == d)
        attr, attr_strat = attractor_with_strategy(p, target, player, alive)
        sub_region, sub_strategy = _solve(p, alive - attr)
        opponent = player.opponent
        if not sub_region[opponent]:
            # player wins everything still alive
            region[player] |= alive
            strategy[player].update(sub_strategy[player])
            strategy[player].update(attr_strat)
            strategy[player].update(
                {v: _edge_within(p, v, alive) for v in target if p.owner[v] is player}
            )
            break
        battr, battr_strat = attractor_with_strategy(p, sub_region[opponent], opponent, alive)
        region[opponent] |= battr
        strategy[opponent].update(sub_strategy[opponent])
        strategy[opponent].update(battr_strat)
        alive = alive - battr
    return region, strategy


def solve_parity(p: ParityGame, alive: Optional[frozenset[int]] = None) -> Regions:
    """Exact winning partition with positional strategies for both players.

    Play is restricted to `alive` (by default every vertex), whose
    vertices must each keep an edge into it; the regions partition it.
    """
    alive = frozenset(range(p.n)) if alive is None else alive
    region, strategy = _solve(p, alive)
    regions = Regions(
        win_eve=frozenset(region[Player.EVE]),
        win_adam=frozenset(region[Player.ADAM]),
        eve_strategy=strategy[Player.EVE],
        adam_strategy=strategy[Player.ADAM],
    )
    regions.check_partition(len(alive))
    return regions
