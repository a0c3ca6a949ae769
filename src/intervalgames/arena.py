"""Core data model: weighted game graphs, interval unions, objectives.

Everything here is exact: weights are integers, all other numeric data
(interval endpoints, thresholds, discount factors) are `fractions.Fraction`.
Floating point never participates in a decision.

All types are immutable after construction and safe to share between
concurrent tasks; the operations in this module are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import KW_ONLY, InitVar, dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain
from operator import itemgetter, neg
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, NoReturn, Optional
from typing import Sequence, Union


class GameError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DocumentError(GameError):
    """A document could not be parsed or validated."""


class MalformedDocument(DocumentError):
    pass


class UnknownVertexReference(DocumentError):
    pass


class DeadEndVertexError(DocumentError):
    """A vertex has no outgoing edge (zero-test edges count as exits)."""


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


# `normalize`'s table: each sup-style payoff's inf counterpart
_SUP_TO_INF = {
    Payoff.LIMSUP: Payoff.LIMINF,
    Payoff.MP_SUP: Payoff.MP_INF,
    Payoff.TOTAL_SUP: Payoff.TOTAL_INF,
}


@total_ordering
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
        # Fraction would expand an exponent such as "1e100000000" digit by digit
        if "e" in text.lower():
            raise MalformedDocument(f"bad rational {text!r}: exponent notation")
        s = text.strip()
        # Fraction accepts digit separators from Python 3.11, spaces around
        # the slash from 3.12 and any Unicode digit; the format is ASCII,
        # the same on every version
        if "_" in s or s.split() != [s] or not s.isascii():
            raise MalformedDocument(f"bad rational {text!r}")
        try:
            return Fraction(s)
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


def predecessors(succ: Sequence[Iterable[int]]) -> list[list[int]]:
    """For each vertex v, every u with v in succ[u], once for each time v
    is listed there.  Successor lists repeat a vertex once per parallel
    edge, and so do these lists, which is what an attractor's edge
    countdown needs: each edge counts down once."""
    pred: list[list[int]] = [[] for _ in succ]
    for u, out in enumerate(succ):
        for v in out:
            pred[v].append(u)
    return pred


@dataclass(frozen=True)
class Arena:
    """Shared core of the graph types: named vertices with owners, edges
    and an initial vertex, one validator and the adjacency views.

    Vertex identifiers are strings in documents; internally vertices are
    dense indices in document order, which is also the universal tie-break
    order for strategy choices.  Edge k runs from src[k] to dst[k] with
    weight weight[k], three columns of ints (parity and zero-test edges
    weigh 0).  Subclasses are frozen dataclasses that add their fields;
    `COLUMNS` names the optional columns a type writes ("priority",
    "weight", "zero_edges") and `PAYOFF` the payoff of its documents, None
    where documents carry a separate objective.  A reader passes `checked`
    for edge columns it has checked, as does a game built from the columns
    of one already built; the validator then checks only the vertices, the
    priorities and the dead ends, and otherwise walks the edges once first.
    """

    names: tuple[str, ...]
    owner: tuple[Player, ...]
    src: tuple[int, ...]
    dst: tuple[int, ...]
    weight: tuple[int, ...]
    _: KW_ONLY
    checked: InitVar[bool] = False

    COLUMNS: ClassVar[tuple[str, ...]] = ()
    PAYOFF: ClassVar[Optional[str]] = None

    def __post_init__(self, checked: bool):
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
        if type(self.initial) is not int:
            raise MalformedDocument(f"initial vertex index {self.initial!r} is not an integer")
        if not 0 <= self.initial < n:
            raise UnknownVertexReference(f"initial vertex index {self.initial}")
        if not len(self.src) == len(self.dst) == len(self.weight):
            raise MalformedDocument("edge columns differ in length")
        zero = getattr(self, "zero_edges", ())
        if not checked:
            self._walk_edges(zero)
        # every source is now an index in range, so a missing one is a
        # dead end
        srcs = set(self.src).union(z[0] for z in zero)
        if len(srcs) < n:
            name = self.names[min(set(range(n)) - srcs)]
            raise DeadEndVertexError(f"vertex {name!r} has no outgoing edge")

    def _walk_edges(self, zero: Iterable[Edge]) -> None:
        """Raise for the first edge, in edge-list order and then the
        zero-test edges, with a non-integer index, out of range or with a
        non-integer weight; an index is tested by its type, where 1.0 or
        True would pass as an equal int."""
        n = self.n
        for e in chain(map(Edge, self.src, self.dst, self.weight), zero):
            if not (type(e.src) is int and type(e.dst) is int):
                raise MalformedDocument(f"edge {e} has a vertex index that is not an integer")
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise UnknownVertexReference(f"edge {e} references a missing vertex")
            if type(e.weight) is not int:
                raise MalformedDocument(f"edge weight {e.weight!r} is not an integer")

    @classmethod
    def from_edges(cls, names, owner, edges: Iterable[Edge], *fields, **named):
        """The game with `edges`, in order, as its edge columns, and every
        other field given as to the constructor."""
        src, dst, weight = tuple(zip(*edges)) or ((), (), ())
        return cls(names, owner, src, dst, weight, *fields, **named)

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edge columns as `Edge` tuples, for readers of whole edges."""
        return tuple(map(Edge, self.src, self.dst, self.weight))

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by source, in edge-list order."""
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for i, v in enumerate(self.src):
            buckets[v].append(i)
        return tuple(map(tuple, buckets))

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """Successors of each vertex, one per edge in edge-list order."""
        at = self.dst.__getitem__
        return tuple(tuple(map(at, out)) for out in self.out_edges)

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, predecessors(self.succ)))


@dataclass(frozen=True)
class GameGraph(Arena):
    """Finite arena with integer-weighted edges."""

    initial: int

    COLUMNS = ("weight",)


@dataclass(frozen=True)
class ParityGame(Arena):
    """Min-parity game: a priority per vertex, unweighted edges."""

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

    priority: tuple[int, ...]
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
        if not (
            self.lo < self.hi
            or self.lo == self.hi and not (self.lo_open or self.hi_open)
        ):
            raise EmptyInterval(f"empty interval {self}")

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
        # Fraction defers to Infinity's reflected comparison
        ivs = sorted(self.intervals, key=lambda j: (j.lo, j.lo_open))
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
    def endpoints(self) -> tuple[ExtRational, ...]:
        """lo, hi of each interval in order: two neighbours bound an interval
        or a gap, and only the first and the last may be infinite."""
        return tuple(x for j in self.intervals for x in (j.lo, j.hi))

    @property
    def has_singleton(self) -> bool:
        """Whether an interval or a gap is one point: two neighbouring
        endpoints are equal (intervals that touch merge unless both ends
        there are open)."""
        ends = self.endpoints
        return any(a == b for a, b in zip(ends, ends[1:]))

    @property
    def inf(self) -> Optional[ExtRational]:
        return self.intervals[0].lo if self.intervals else None

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
    return IntervalUnion(tuple(pieces))


def check_discount(lam: Fraction) -> None:
    """Raise unless the discount factor lies strictly between 0 and 1."""
    if not 0 < lam < 1:
        raise LambdaOutOfRange(f"discount factor {lam} not in (0,1)")


@dataclass(frozen=True)
class Objective:
    payoff: Payoff
    intervals: IntervalUnion
    lam: Optional[Fraction] = None

    def __post_init__(self):
        if self.payoff is Payoff.DISCOUNTED:
            if self.lam is None:
                raise LambdaOutOfRange("discounted objective needs a discount factor")
            check_discount(self.lam)
        elif self.lam is not None:
            raise MalformedDocument("discount factor given for a non-discounted payoff")


@dataclass(frozen=True)
class Regions:
    """Solved partition of a vertex set into the two players' winning
    regions and the vertices left undecided."""

    win_eve: frozenset[int]
    win_adam: frozenset[int]
    unknown: frozenset[int] = frozenset()

    def check_partition(self, vertices: frozenset[int]) -> None:
        """The three regions partition `vertices`: together they cover it
        and hold no other vertex, and with sizes summing to its size no
        vertex can lie in two of them.  Raises `AssertionError` explicitly,
        so the check also runs under `python -O`."""
        total = len(self.win_eve) + len(self.win_adam) + len(self.unknown)
        if total != len(vertices):
            raise AssertionError("region sizes do not sum to the vertex count")
        if self.win_eve | self.win_adam | self.unknown != vertices:
            raise AssertionError("regions do not cover exactly the vertex set")

    def verdict(self, v: int) -> Verdict:
        if v in self.win_eve:
            return Verdict.EVE
        if v in self.win_adam:
            return Verdict.ADAM
        return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# documents

_PAYOFF_BY_NAME = {p.value: p for p in Payoff}
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
    """Columns of the vertex entries: ids, owners and, if asked for,
    priorities (checked by the game's validator)."""
    entries = _expect_list(entries, "vertices")
    try:
        names = [entry["id"] for entry in entries]
        owners = [_OWNER_BY_NAME[entry["owner"]] for entry in entries]
        priorities = [entry["priority"] for entry in entries] if with_priority else []
    except (KeyError, TypeError):
        pass
    else:
        if set(map(type, names)) <= {str} and None not in priorities:
            return names, owners, priorities
    _raise_for_bad_vertex(entries, with_priority)


def _raise_for_bad_vertex(entries: list, with_priority: bool) -> NoReturn:
    """Raise for the first vertex entry, in list order, that
    `_read_vertices` could not read."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise MalformedDocument(f"bad vertex entry {entry!r}")
        _expect_keys(entry, ("id", "owner"), "vertex")
        name = entry["id"]
        if not isinstance(name, str):
            raise MalformedDocument(f"vertex id {name!r} is not a string")
        if entry["owner"] not in ("eve", "adam"):
            raise MalformedDocument(f"vertex {name!r}: owner must be 'eve' or 'adam'")
        if with_priority and entry.get("priority") is None:
            raise MalformedDocument(f"vertex {name!r}: missing priority")
    raise AssertionError("vertex entries rejected in bulk are each readable")


_SRC_KEY, _DST_KEY, _WEIGHT_KEY = map(itemgetter, ("src", "dst", "weight"))


def _read_edges(
    entries, index_of: Mapping[str, int], weighted: bool
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The src, dst and weight columns of a document's edges, in range as
    `index_of` lookups and checked: a weight is required on `weighted`
    edges and ignored, once checked, on the others, which weigh 0."""
    entries = _expect_list(entries, "edges")
    index = index_of.__getitem__
    try:
        srcs = tuple(map(index, map(_SRC_KEY, entries)))
        dsts = tuple(map(index, map(_DST_KEY, entries)))
        if weighted:
            weights = tuple(map(_WEIGHT_KEY, entries))
            typed = set(map(type, weights)) <= {int}
        else:
            weights = (0,) * len(entries)
            typed = {type(entry.get("weight")) for entry in entries} <= {int, type(None)}
    except (KeyError, TypeError):
        pass
    else:
        if typed:
            return srcs, dsts, weights
    _raise_for_bad_edge(entries, index_of, weighted)


def _raise_for_bad_edge(entries: list, index_of: Mapping[str, int], weighted: bool) -> NoReturn:
    """Raise for the first edge entry, in list order, that `_read_edges`
    could not read."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise MalformedDocument(f"bad edge entry {entry!r}")
        _expect_keys(entry, ("src", "dst"), "edge")
        for end in (entry["src"], entry["dst"]):
            try:
                known = end in index_of
            except TypeError:
                raise MalformedDocument(f"edge {entry!r}: vertex ids must be strings")
            if not known:
                raise UnknownVertexReference(f"edge references unknown vertex {end!r}")
        weight = entry.get("weight")
        if weight is None:
            if weighted:
                raise MalformedDocument(f"edge {entry!r}: missing weight")
        elif type(weight) is not int:
            raise MalformedDocument(f"edge {entry!r}: weight must be an integer")
    raise AssertionError("edge entries rejected in bulk are each readable")


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


def read_document(text: str) -> tuple[Arena, Optional[Objective]]:
    """Decode and validate a document into (game, objective), dispatching
    on its payoff.

    Payoff "parity" gives a ParityGame (edge weights are ignored) with
    objective None, and every `Payoff` value a game graph with its
    objective: the two kinds of game that commands solve.  Payoff "ocpg",
    which `write_document` writes for a one-counter game, is refused by
    its name with `UnsupportedObjective` before any vertex or edge is read.
    So `write_document(*read_document(text))` writes back any document
    this reader accepts.  A malformed document raises a DocumentError.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's
        # digit limit; RecursionError, nesting deeper than the stack
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
    if payoff_name == OneCounterParityGame.PAYOFF:
        raise UnsupportedObjective(
            "one-counter documents are reduction outputs and cannot be solved directly"
        )
    cls = ParityGame if payoff_name == ParityGame.PAYOFF else GameGraph
    objective = _read_objective(obj, payoff_name) if cls is GameGraph else None

    names, owners, priorities = _read_vertices(doc["vertices"], "priority" in cls.COLUMNS)
    index_of = {name: i for i, name in enumerate(names)}
    initial = doc["initial"]
    if not isinstance(initial, str):
        raise MalformedDocument(f"initial vertex {initial!r} is not a vertex id")
    if initial not in index_of:
        raise UnknownVertexReference(f"initial vertex {initial!r} not listed")
    src, dst, weight = _read_edges(doc["edges"], index_of, "weight" in cls.COLUMNS)
    columns = {"initial": index_of[initial]}
    if "priority" in cls.COLUMNS:
        columns["priority"] = tuple(priorities)
    game = cls(tuple(names), tuple(owners), src, dst, weight, **columns, checked=True)
    return game, objective


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
    """Document text of a game, read back by `read_document` unless it is
    a one-counter game's.

    Only the columns the game's type has are written; a game graph's
    document takes its payoff and intervals from `objective`, which is
    required for a game graph and refused for a type with its own payoff.
    """
    if (objective is None) != (game.PAYOFF is not None):
        raise BadParameters("a document has an objective exactly when its game is a game graph")
    names = game.names
    doc: dict = {} if comment is None else {"comment": comment}
    doc["vertices"] = [{"id": name, "owner": owner.value} for name, owner in zip(names, game.owner)]
    if "priority" in game.COLUMNS:
        for entry, prio in zip(doc["vertices"], game.priority):
            entry["priority"] = prio
    doc["edges"] = [{"src": names[s], "dst": names[d]} for s, d in zip(game.src, game.dst)]
    if "weight" in game.COLUMNS:
        for entry, w in zip(doc["edges"], game.weight):
            entry["weight"] = w
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
    """Rewrite a sup-style payoff as its inf counterpart on the mirrored
    intervals and a copy of `g` with every weight negated, which preserves
    the winner; inf-style and discounted objectives come back as the same
    objects."""
    payoff = _SUP_TO_INF.get(o.payoff)
    if payoff is None:
        return g, o
    negated = replace(g, weight=tuple(map(neg, g.weight)), checked=True)
    return negated, Objective(payoff=payoff, intervals=o.intervals.negate())


def max_abs_weight(g: GameGraph) -> int:
    return max(map(abs, g.weight), default=0)
