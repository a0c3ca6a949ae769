"""Core data model: weighted game graphs, interval unions, objectives.

Everything here is exact: weights are integers, all other numeric data
(interval endpoints, thresholds, discount factors) are `fractions.Fraction`.
Floating point never participates in a decision.

All types are immutable after construction and safe to share between
concurrent tasks; the operations in this module are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union


class GameError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DocumentError(GameError):
    """A document could not be parsed or validated."""

    exit_code = 2


class MalformedDocument(DocumentError):
    pass


class UnknownVertexReference(DocumentError):
    pass


class DeadEndVertexError(DocumentError):
    """A vertex has no outgoing edge (zero-test edges count as exits)."""

    def __init__(self, vertex: str):
        super().__init__(f"vertex {vertex!r} has no outgoing edge")
        self.vertex = vertex


class LambdaOutOfRange(DocumentError):
    pass


class EmptyInterval(DocumentError):
    pass


class BadParameters(DocumentError):
    pass


class UnsupportedObjective(GameError):
    """The instance is valid but the requested solve is not supported."""

    exit_code = 3


class Player(Enum):
    EVE = "eve"
    ADAM = "adam"

    @property
    def opponent(self) -> "Player":
        return Player.ADAM if self is Player.EVE else Player.EVE


class Verdict(Enum):
    EVE = "eve"
    ADAM = "adam"
    UNKNOWN = "unknown"


class Payoff(Enum):
    LIMINF = "liminf"
    LIMSUP = "limsup"
    MP_INF = "mp-inf"
    MP_SUP = "mp-sup"
    DISCOUNTED = "discounted"
    TOTAL_INF = "total-inf"
    TOTAL_SUP = "total-sup"


# sup-style payoffs normalize to their inf counterpart by weight negation
_SUP_TO_INF = {
    Payoff.LIMSUP: Payoff.LIMINF,
    Payoff.MP_SUP: Payoff.MP_INF,
    Payoff.TOTAL_SUP: Payoff.TOTAL_INF,
}


class Infinity:
    """Signed infinity, totally ordered against Fraction and int."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __neg__(self) -> "Infinity":
        return MINUS_INF if self.sign > 0 else PLUS_INF

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("Infinity", self.sign))

    def _cmp(self, other) -> Optional[int]:
        if isinstance(other, Infinity):
            return (self.sign > other.sign) - (self.sign < other.sign)
        if isinstance(other, (int, Fraction)):
            return self.sign
        return None

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"


PLUS_INF = Infinity(1)
MINUS_INF = Infinity(-1)

ExtRational = Union[Fraction, Infinity]


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "n"; JSON integers are accepted, floats are not."""
    if isinstance(text, bool):
        raise MalformedDocument(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedDocument(f"bad rational {text!r}") from exc
    raise MalformedDocument(f"expected a rational, got {text!r}")


def parse_ext(text) -> ExtRational:
    """Like `parse_rational` but also accepts "inf" and "-inf"."""
    if isinstance(text, str):
        s = text.strip()
        if s in ("inf", "+inf"):
            return PLUS_INF
        if s == "-inf":
            return MINUS_INF
    return parse_rational(text)


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_ext(x: ExtRational) -> str:
    if isinstance(x, Infinity):
        return repr(x)
    return format_rational(x)


class Edge(NamedTuple):
    """An edge between vertex indices; parity and zero-test edges carry
    weight 0."""

    src: int
    dst: int
    weight: int = 0


def _by_vertex(n: int, edges: Sequence[Edge], end: int) -> tuple[tuple[int, ...], ...]:
    """Edge indices grouped by source (end 0) or target (end 1), in
    edge-list order."""
    buckets: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        buckets[e[end]].append(i)
    return tuple(tuple(b) for b in buckets)


class Arena:
    """Shared core of the graph types: named vertices with owners, edges
    and an initial vertex, one validator and the adjacency views.

    Vertex identifiers are strings in documents; internally vertices are
    dense indices in document order, which is also the universal tie-break
    order for strategy choices.  Subclasses are frozen dataclasses that
    list their fields; `COLUMNS` names the optional columns a type has
    ("priority", "weight", "zero_edges") and `PAYOFF` the payoff of its
    documents, None where documents carry a separate objective.
    """

    COLUMNS: tuple[str, ...] = ()
    PAYOFF: Optional[str] = None

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise MalformedDocument("a game needs at least one vertex")
        if len(set(self.names)) != n:
            raise MalformedDocument("duplicate vertex identifiers")
        if len(self.owner) != n:
            raise MalformedDocument("owner list does not match vertex list")
        if "priority" in self.COLUMNS:
            if len(self.priority) != n:
                raise MalformedDocument("priority list does not match vertex list")
            for p in self.priority:
                if type(p) is not int or p < 0:
                    raise MalformedDocument(f"priority {p!r} is not a non-negative integer")
        if not 0 <= self.initial < n:
            raise UnknownVertexReference(f"initial vertex index {self.initial}")
        has_out = [False] * n
        for e in chain(self.edges, getattr(self, "zero_edges", ())):
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise UnknownVertexReference(f"edge {e} references a missing vertex")
            if type(e.weight) is not int:
                raise MalformedDocument(f"edge weight {e.weight!r} is not an integer")
            has_out[e.src] = True
        for v, ok in enumerate(has_out):
            if not ok:
                raise DeadEndVertexError(self.names[v])

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        return _by_vertex(self.n, self.edges, 0)

    @cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        return _by_vertex(self.n, self.edges, 1)

    @cached_property
    def out_zero(self) -> tuple[tuple[int, ...], ...]:
        """Zero-test edge indices grouped by source vertex."""
        return _by_vertex(self.n, getattr(self, "zero_edges", ()), 0)


@dataclass(frozen=True)
class GameGraph(Arena):
    """Finite arena with integer-weighted edges."""

    names: tuple[str, ...]
    owner: tuple[Player, ...]
    edges: tuple[Edge, ...]
    initial: int

    COLUMNS = ("weight",)

    def swap_owners(self) -> "GameGraph":
        return replace(self, owner=tuple(o.opponent for o in self.owner))

    def negate_weights(self) -> "GameGraph":
        return replace(self, edges=tuple(Edge(e.src, e.dst, -e.weight) for e in self.edges))


@dataclass(frozen=True)
class ParityGame(Arena):
    """Min-parity game: a priority per vertex, unweighted edges."""

    names: tuple[str, ...]
    owner: tuple[Player, ...]
    edges: tuple[Edge, ...]
    priority: tuple[int, ...]
    initial: int

    COLUMNS = ("priority",)
    PAYOFF = "parity"


@dataclass(frozen=True)
class OneCounterParityGame(Arena):
    """Parity game over configurations (vertex, counter in Z).

    Counter edges add their weight to the counter; zero-test edges are
    enabled only when the counter is exactly 0.  Negative counter values
    are allowed.  A vertex may have zero-test edges as its only exits.
    """

    names: tuple[str, ...]
    owner: tuple[Player, ...]
    priority: tuple[int, ...]
    edges: tuple[Edge, ...]
    zero_edges: tuple[Edge, ...]
    initial: int

    COLUMNS = ("priority", "weight", "zero_edges")
    PAYOFF = "ocpg"


def fresh_namer(taken: Iterable[str]) -> Callable[[str], str]:
    """Name generator for vertices added by a reduction: `base` itself, or
    the first of `base_1`, `base_2`, ... that is neither in `taken` nor
    handed out before."""
    taken = set(taken)

    def fresh(base: str) -> str:
        name = base
        suffix = 0
        while name in taken:
            suffix += 1
            name = f"{base}_{suffix}"
        taken.add(name)
        return name

    return fresh


@dataclass(frozen=True)
class Interval:
    """One nonempty interval of the extended real line.

    Singletons have lo == hi with both endpoints closed.  Infinite
    endpoints are always open.
    """

    lo: ExtRational
    hi: ExtRational
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if isinstance(self.lo, Infinity) and not self.lo_open:
            raise EmptyInterval("infinite endpoints must be open")
        if isinstance(self.hi, Infinity) and not self.hi_open:
            raise EmptyInterval("infinite endpoints must be open")
        if self.lo == PLUS_INF or self.hi == MINUS_INF:
            raise EmptyInterval(f"empty interval {self}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise EmptyInterval(f"empty interval {self}")
        if not self.lo == self.hi and not self.lo < self.hi:
            raise EmptyInterval(f"empty interval {self}")

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def width(self) -> ExtRational:
        """hi - lo; PLUS_INF when either endpoint is infinite."""
        if isinstance(self.lo, Infinity) or isinstance(self.hi, Infinity):
            return PLUS_INF
        return self.hi - self.lo

    def contains(self, x: ExtRational) -> bool:
        if x == PLUS_INF:
            return self.hi == PLUS_INF
        if x == MINUS_INF:
            return self.lo == MINUS_INF
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def intersects_closed(self, lo: ExtRational, hi: ExtRational) -> bool:
        """Does this interval meet the closed interval [lo, hi]?"""
        if self.lo > hi or (self.lo == hi and self.lo_open):
            return False
        if self.hi < lo or (self.hi == lo and self.hi_open):
            return False
        return True

    def __repr__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{format_ext(self.lo)},{format_ext(self.hi)}{rb}"


def _merges_with(cur: Interval, nxt: Interval) -> bool:
    # sorted by lo; they merge when overlapping or touching with at least
    # one closed endpoint at the touch point, e.g. [0,1] + (1,2] -> [0,2]
    if nxt.lo < cur.hi:
        return True
    if nxt.lo == cur.hi:
        return not (nxt.lo_open and cur.hi_open)
    return False


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical ordered union of pairwise disjoint intervals.

    Construction sorts and merges adjacent intervals whose set union is
    itself an interval, so every union has a unique representation and the
    interval count is well defined.
    """

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        ivs = sorted(
            self.intervals,
            key=lambda j: (
                (j.lo == MINUS_INF and -1) or 0,
                j.lo if not isinstance(j.lo, Infinity) else 0,
                j.lo_open,
            ),
        )
        merged: list[Interval] = []
        for j in ivs:
            if merged and _merges_with(merged[-1], j):
                cur = merged[-1]
                hi, hi_open = cur.hi, cur.hi_open
                if j.hi > hi or (j.hi == hi and not j.hi_open):
                    hi, hi_open = j.hi, j.hi_open
                merged[-1] = Interval(cur.lo, hi, cur.lo_open, hi_open)
            else:
                merged.append(j)
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def has_singleton_interval(self) -> bool:
        return any(j.is_singleton for j in self.intervals)

    @property
    def has_singleton_gap(self) -> bool:
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.hi == b.lo and a.hi_open and b.lo_open:
                return True
        return False

    @property
    def inf(self) -> Optional[ExtRational]:
        return self.intervals[0].lo if self.intervals else None

    @property
    def sup(self) -> Optional[ExtRational]:
        return self.intervals[-1].hi if self.intervals else None

    def negate(self) -> "IntervalUnion":
        """Mirror through 0: each [a,b] becomes [-b,-a], flags swapped."""
        return IntervalUnion(
            tuple(Interval(-j.hi, -j.lo, j.hi_open, j.lo_open) for j in self.intervals)
        )

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(repr(j) for j in self.intervals)


def contains(iu: IntervalUnion, x: ExtRational) -> bool:
    """Exact membership.  PLUS_INF is in the union iff some interval is
    right-unbounded, MINUS_INF iff some interval is left-unbounded."""
    return any(j.contains(x) for j in iu.intervals)


def complement_intervals(iu: IntervalUnion) -> IntervalUnion:
    """Canonical complement of the union in the real line."""
    pieces = []
    lo: ExtRational = MINUS_INF
    lo_open = True
    for j in iu.intervals:
        # gap ends where j begins; it contains the boundary iff j does not
        hi, hi_open = j.lo, not j.lo_open
        nonempty = lo < hi or (lo == hi and not lo_open and not hi_open)
        if nonempty:
            pieces.append(Interval(lo, hi, lo_open, hi_open))
        lo, lo_open = j.hi, not j.hi_open
    if lo != PLUS_INF:
        pieces.append(Interval(lo, PLUS_INF, lo_open, True))
    elif not iu.intervals:
        pieces.append(Interval(MINUS_INF, PLUS_INF, True, True))
    return IntervalUnion(tuple(pieces))


@dataclass(frozen=True)
class Objective:
    payoff: Payoff
    intervals: IntervalUnion
    lam: Optional[Fraction] = None

    def __post_init__(self):
        if self.payoff is Payoff.DISCOUNTED:
            if self.lam is None:
                raise LambdaOutOfRange("discounted objective needs a discount factor")
            if not (0 < self.lam < 1):
                raise LambdaOutOfRange(f"discount factor {self.lam} not in (0,1)")
        elif self.lam is not None:
            raise MalformedDocument("discount factor given for a non-discounted payoff")


@dataclass(frozen=True)
class Regions:
    """Solved partition of the vertex set, with optional positional
    strategies (vertex index -> chosen edge index)."""

    win_eve: frozenset[int]
    win_adam: frozenset[int]
    unknown: frozenset[int] = frozenset()
    eve_strategy: Optional[Mapping[int, int]] = None
    adam_strategy: Optional[Mapping[int, int]] = None

    def check_partition(self, n: int) -> None:
        total = len(self.win_eve) + len(self.win_adam) + len(self.unknown)
        assert total == n, "regions do not cover the vertex set"
        assert not (self.win_eve & self.win_adam)
        assert not (self.win_eve & self.unknown)
        assert not (self.win_adam & self.unknown)

    def verdict(self, v: int) -> Verdict:
        if v in self.win_eve:
            return Verdict.EVE
        if v in self.win_adam:
            return Verdict.ADAM
        return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# documents

_PAYOFF_BY_NAME = {p.value: p for p in Payoff}
_ARENA_BY_PAYOFF = {cls.PAYOFF: cls for cls in (ParityGame, OneCounterParityGame)}
_OWNER_BY_NAME = {p.value: p for p in Player}


def _expect_keys(obj: dict, required: Sequence[str], context: str) -> None:
    for key in required:
        if key not in obj:
            raise MalformedDocument(f"{context}: missing key {key!r}")


def _expect_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise MalformedDocument(f"{context} must be a list, got {value!r}")
    return value


def _read_vertices(entries, with_priority: bool):
    names: list[str] = []
    owners: list[Player] = []
    priorities: list[int] = []
    for entry in _expect_list(entries, "vertices"):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"bad vertex entry {entry!r}")
        _expect_keys(entry, ("id", "owner"), "vertex")
        name = entry["id"]
        if not isinstance(name, str):
            raise MalformedDocument(f"vertex id {name!r} is not a string")
        owner = entry["owner"]
        if owner not in ("eve", "adam"):
            raise MalformedDocument(f"vertex {name!r}: owner must be 'eve' or 'adam'")
        names.append(name)
        owners.append(_OWNER_BY_NAME[owner])
        if with_priority:
            if entry.get("priority") is None:
                raise MalformedDocument(f"vertex {name!r}: missing priority")
            priorities.append(entry["priority"])
    return names, owners, priorities


def _read_edges(entries, index_of: Mapping[str, int], weighted: bool, what: str) -> list[Edge]:
    """Edges of a document; a weight is required on `weighted` edges and
    ignored, once checked, on the others."""
    edges: list[Edge] = []
    for entry in _expect_list(entries, what + "s"):
        if not isinstance(entry, dict):
            raise MalformedDocument(f"bad {what} entry {entry!r}")
        _expect_keys(entry, ("src", "dst"), what)
        try:
            src = index_of[entry["src"]]
            dst = index_of[entry["dst"]]
        except KeyError as exc:
            raise UnknownVertexReference(f"{what} references unknown vertex {exc.args[0]!r}")
        except TypeError:
            raise MalformedDocument(f"{what} {entry!r}: vertex ids must be strings")
        weight = entry.get("weight")
        if weight is None:
            if weighted:
                raise MalformedDocument(f"{what} {entry!r}: missing weight")
            weight = 0
        elif type(weight) is not int:
            raise MalformedDocument(f"{what} {entry!r}: weight must be an integer")
        edges.append(Edge(src, dst, weight if weighted else 0))
    return edges


def _read_flag(entry: dict, key: str, default: bool) -> bool:
    value = entry.get(key, default)
    if not isinstance(value, bool):
        raise MalformedDocument(f"interval {key} {value!r} is not a boolean")
    return value


def _read_interval(entry) -> Interval:
    if not isinstance(entry, dict):
        raise MalformedDocument(f"bad interval entry {entry!r}")
    _expect_keys(entry, ("lo", "hi"), "interval")
    lo = parse_ext(entry["lo"])
    hi = parse_ext(entry["hi"])
    lo_open = _read_flag(entry, "lo_open", isinstance(lo, Infinity))
    hi_open = _read_flag(entry, "hi_open", isinstance(hi, Infinity))
    return Interval(lo, hi, lo_open, hi_open)


def _read_objective(obj: dict, payoff_name: str) -> Objective:
    if payoff_name not in _PAYOFF_BY_NAME:
        raise MalformedDocument(f"unknown payoff {payoff_name!r}")
    payoff = _PAYOFF_BY_NAME[payoff_name]
    lam = None
    if payoff is Payoff.DISCOUNTED:
        _expect_keys(obj, ("lambda",), "discounted objective")
        lam = parse_rational(obj["lambda"])
    elif "lambda" in obj:
        raise MalformedDocument("'lambda' is only meaningful for the discounted payoff")
    intervals = _expect_list(obj.get("intervals", []), "intervals")
    return Objective(
        payoff=payoff,
        intervals=IntervalUnion(tuple(_read_interval(e) for e in intervals)),
        lam=lam,
    )


def read_document(
    text: str,
) -> Union[tuple[GameGraph, Objective], ParityGame, OneCounterParityGame]:
    """Decode and validate a document, dispatching on its payoff.

    Payoff "parity" gives a ParityGame (edge weights are ignored), "ocpg"
    a OneCounterParityGame, and every `Payoff` value a game graph with its
    objective.  A malformed document raises a DocumentError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("document root must be an object")
    _expect_keys(doc, ("vertices", "edges", "initial", "objective"), "game document")
    obj = doc["objective"]
    if not isinstance(obj, dict):
        raise MalformedDocument("objective must be an object")
    _expect_keys(obj, ("payoff",), "objective")
    payoff_name = obj["payoff"]
    if not isinstance(payoff_name, str):
        raise MalformedDocument(f"payoff {payoff_name!r} is not a string")
    cls = _ARENA_BY_PAYOFF.get(payoff_name, GameGraph)
    objective = _read_objective(obj, payoff_name) if cls is GameGraph else None

    names, owners, priorities = _read_vertices(doc["vertices"], "priority" in cls.COLUMNS)
    index_of = {name: i for i, name in enumerate(names)}
    initial = doc["initial"]
    if not isinstance(initial, str):
        raise MalformedDocument(f"initial vertex {initial!r} is not a vertex id")
    if initial not in index_of:
        raise UnknownVertexReference(f"initial vertex {initial!r} not listed")
    columns = {
        "names": tuple(names),
        "owner": tuple(owners),
        "edges": tuple(_read_edges(doc["edges"], index_of, "weight" in cls.COLUMNS, "edge")),
        "initial": index_of[initial],
    }
    if "priority" in cls.COLUMNS:
        columns["priority"] = tuple(priorities)
    if "zero_edges" in cls.COLUMNS:
        zero_edges = _read_edges(doc.get("zero_edges", []), index_of, False, "zero edge")
        columns["zero_edges"] = tuple(zero_edges)
    game = cls(**columns)
    return game if objective is None else (game, objective)


def parse_game(text: str) -> tuple[GameGraph, Objective]:
    """Parse and validate a payoff game document; parity and one-counter
    documents, read by `read_document`, are rejected as unsupported."""
    parsed = read_document(text)
    if isinstance(parsed, Arena):
        raise UnsupportedObjective(f"{parsed.PAYOFF} documents are not payoff games")
    return parsed


def _interval_to_doc(j: Interval) -> dict:
    return {
        "lo": format_ext(j.lo),
        "hi": format_ext(j.hi),
        "lo_open": j.lo_open,
        "hi_open": j.hi_open,
    }


def write_document(
    game: Arena, objective: Optional[Objective] = None, comment: Optional[str] = None
) -> str:
    """Document text of a game, read back by `read_document`.

    Only the columns the game's type has are written; a game graph's
    document takes its payoff and intervals from `objective`.
    """
    names = game.names
    doc: dict = {} if comment is None else {"comment": comment}
    doc["vertices"] = [{"id": name, "owner": owner.value} for name, owner in zip(names, game.owner)]
    if "priority" in game.COLUMNS:
        for entry, prio in zip(doc["vertices"], game.priority):
            entry["priority"] = prio
    doc["edges"] = [{"src": names[e.src], "dst": names[e.dst]} for e in game.edges]
    if "weight" in game.COLUMNS:
        for entry, e in zip(doc["edges"], game.edges):
            entry["weight"] = e.weight
    if "zero_edges" in game.COLUMNS:
        doc["zero_edges"] = [{"src": names[z.src], "dst": names[z.dst]} for z in game.zero_edges]
    doc["initial"] = names[game.initial]
    if objective is None:
        doc["objective"] = {"payoff": game.PAYOFF}
    else:
        doc["objective"] = {"payoff": objective.payoff.value}
        if objective.lam is not None:
            doc["objective"]["lambda"] = format_rational(objective.lam)
        doc["objective"]["intervals"] = [_interval_to_doc(j) for j in objective.intervals.intervals]
    return json.dumps(doc, indent=2) + "\n"


def serialize_game(g: GameGraph, o: Objective, comment: Optional[str] = None) -> str:
    return write_document(g, o, comment)


# ---------------------------------------------------------------------------
# operations

def normalize(g: GameGraph, o: Objective) -> tuple[GameGraph, Objective]:
    """Rewrite sup-style payoffs as their inf counterpart.

    Negating every weight and mirroring every interval preserves the
    winner; inf-style and discounted objectives are returned unchanged.
    """
    if o.payoff not in _SUP_TO_INF:
        return g, o
    return g.negate_weights(), Objective(
        payoff=_SUP_TO_INF[o.payoff],
        intervals=o.intervals.negate(),
        lam=None,
    )


def max_abs_weight(g: GameGraph) -> int:
    return max((abs(e.weight) for e in g.edges), default=0)
