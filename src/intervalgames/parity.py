"""Min-parity games: attractor computation and a Zielonka-style solver.

Convention: Eve wins a play iff the minimal priority seen infinitely
often is even.  The solver returns both players' winning regions.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .arena import ParityGame, Player, Regions


def attractor(
    game,
    target: Iterable[int],
    player: Player,
    within: Optional[frozenset[int]] = None,
) -> frozenset[int]:
    """Vertices of `within` (by default every vertex) from which `player`
    forces play into `target` while it stays in `within`."""
    alive = frozenset(range(game.n)) if within is None else within
    attr = {v for v in target if v in alive}
    # countdown of not-yet-attracted successors for opponent vertices,
    # counted when the vertex is first reached
    remaining: dict[int, int] = {}
    queue = list(attr)
    while queue:
        next_queue: list[int] = []
        for u in queue:
            for i in game.in_edges[u]:
                v = game.edges[i].src
                if v not in alive or v in attr:
                    continue
                if game.owner[v] is not player:
                    left = remaining.get(v)
                    if left is None:
                        left = sum(1 for j in game.out_edges[v] if game.edges[j].dst in alive)
                    left -= 1
                    remaining[v] = left
                    if left:
                        continue
                attr.add(v)
                next_queue.append(v)
        queue = next_queue
    return frozenset(attr)


def _solve(p: ParityGame, alive: frozenset[int]) -> dict[Player, set[int]]:
    """Zielonka recursion over an alive-mask; the second recursion is
    unrolled into a loop so stack depth stays proportional to the number
    of priority alternations rather than the vertex count.  Returns each
    player's region, keyed by player."""
    region: dict[Player, set[int]] = {Player.EVE: set(), Player.ADAM: set()}
    while alive:
        d = min(p.priority[v] for v in alive)
        player = Player.EVE if d % 2 == 0 else Player.ADAM
        if all(p.priority[v] % 2 == d % 2 for v in alive):
            # every priority has d's parity: player wins by staying alive
            region[player] |= alive
            break
        target = frozenset(v for v in alive if p.priority[v] == d)
        attr = attractor(p, target, player, alive)
        sub_region = _solve(p, alive - attr)
        opponent = player.opponent
        if not sub_region[opponent]:
            # player wins everything still alive
            region[player] |= alive
            break
        battr = attractor(p, sub_region[opponent], opponent, alive)
        region[opponent] |= battr
        alive = alive - battr
    return region


def solve_parity(p: ParityGame, alive: Optional[frozenset[int]] = None) -> Regions:
    """Exact winning partition.

    Play is restricted to `alive` (by default every vertex), whose
    vertices must each keep an edge into it; the regions partition it.
    """
    alive = frozenset(range(p.n)) if alive is None else alive
    region = _solve(p, alive)
    regions = Regions(
        win_eve=frozenset(region[Player.EVE]),
        win_adam=frozenset(region[Player.ADAM]),
    )
    regions.check_partition(alive)
    return regions
