"""Min-parity games: attractor computation and a Zielonka-style solver.

Convention: Eve wins a play iff the minimal priority seen infinitely
often is even.  The solver returns both players' winning regions.
"""

from __future__ import annotations

from typing import Generator, Iterable, NamedTuple, Optional, Sequence

from .arena import ParityGame, Player, Regions, predecessors


class Graph(NamedTuple):
    """All the solver reads of a game: the vertex count, each vertex's
    owner and priority, and its successors and `predecessors`.  A
    `ParityGame` has all five, so documents are solved as they are;
    reductions that are solved but never written out build a Graph of
    plain ints with `Graph.of` instead of a named, validated document."""

    n: int
    owner: Sequence[Player]
    priority: Sequence[int]
    succ: Sequence[Sequence[int]]
    pred: Sequence[Sequence[int]]

    @classmethod
    def of(cls, owner: Sequence[Player], priority: Sequence[int], succ: Sequence[Sequence[int]]):
        """The graph of these columns, its size and predecessors derived."""
        return cls(len(succ), owner, priority, succ, predecessors(succ))


def attractor(
    game,
    target: Iterable[int],
    player: Player,
    alive: frozenset[int],
) -> frozenset[int]:
    """Vertices of `alive` from which `player` forces play into `target`
    while it stays in `alive`."""
    owner, succ, pred = game.owner, game.succ, game.pred
    attr = {v for v in target if v in alive}
    # countdown of edges into not-yet-attracted vertices for opponent
    # vertices, counted when the vertex is first reached; each edge counts
    # down once (see `arena.predecessors`)
    remaining: dict[int, int] = {}
    work = list(attr)
    while work:
        u = work.pop()
        for v in pred[u]:
            if v in attr or v not in alive:
                continue
            if owner[v] is not player:
                left = remaining.get(v)
                if left is None:
                    left = sum(map(alive.__contains__, succ[v]))
                left -= 1
                if left:
                    remaining[v] = left
                    continue
            attr.add(v)
            work.append(v)
    return frozenset(attr)


def _zielonka(p: Graph, alive: frozenset[int]):
    """One Zielonka frame over an alive-mask, run by `_run_frames`.  The
    first recursive call is a `yield` of the subgame's frame, answered
    with that subgame's regions; the second is unrolled into the loop.
    Returns each player's region, keyed by player.

    Say a round peels B, the opponent's attractor of its region in the
    subgame G - A, and B misses the player's region W there.  If the next
    round has the same least priority and attractor A - B, its subgame
    (G - A) - B is W, a dominion of the player's in G - A, so the player
    wins all of it and then everything alive: the frame ends there instead
    of solving W again, which would take n^3 steps on Eve's priority line
    with an odd last priority."""
    region: dict[Player, set[int]] = {Player.EVE: set(), Player.ADAM: set()}
    # (d, A - B) of the last peel, while B missed the player's region
    last = None
    while alive:
        d = min(p.priority[v] for v in alive)
        player = Player.EVE if d % 2 == 0 else Player.ADAM
        if all(p.priority[v] % 2 == d % 2 for v in alive):
            # every priority has d's parity: player wins by staying alive
            region[player] |= alive
            break
        target = frozenset(v for v in alive if p.priority[v] == d)
        attr = attractor(p, target, player, alive)
        if last == (d, attr):
            region[player] |= alive
            break
        sub_region = yield _zielonka(p, alive - attr)
        opponent = player.opponent
        if not sub_region[opponent]:
            # player wins everything still alive
            region[player] |= alive
            break
        battr = attractor(p, sub_region[opponent], opponent, alive)
        region[opponent] |= battr
        alive = alive - battr
        last = (d, attr - battr) if battr.isdisjoint(sub_region[player]) else None
    return region


def _run_frames(frame: Generator):
    """Run a nested fixpoint on an explicit stack and return its value.

    A frame is a generator whose recursive calls are `yield`s of
    sub-frames; each `yield` is answered with that sub-frame's return
    value.  So the nesting depth is bounded by memory rather than by the
    interpreter's recursion limit."""
    stack = [frame]
    answer = None
    while True:
        try:
            sub = stack[-1].send(answer)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            answer = done.value
        else:
            stack.append(sub)
            answer = None


def solve_parity(p: Graph | ParityGame, alive: Optional[frozenset[int]] = None) -> Regions:
    """Exact winning partition.

    Play is restricted to `alive` (by default every vertex), whose
    vertices must each keep an edge into it; the regions partition it.
    A document was validated when it was read; a derived Graph is only
    checked here for a successor at every vertex and columns of one
    length, which is what the attractors rely on.
    """
    if not p.n == len(p.owner) == len(p.priority) == len(p.succ) == len(p.pred):
        raise ValueError("graph columns differ in length")
    if not all(p.succ):
        raise ValueError("graph has a vertex without successors")
    alive = frozenset(range(p.n)) if alive is None else alive
    region = _run_frames(_zielonka(p, alive))
    regions = Regions(
        win_eve=frozenset(region[Player.EVE]),
        win_adam=frozenset(region[Player.ADAM]),
    )
    regions.check_partition(alive)
    return regions
