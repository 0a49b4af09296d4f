"""Finite posets as dense order matrices: construction, covers, intervals, duals.

Elements are nonempty strings kept in canonical (sorted) order, so every
derived output of the package is deterministic.  The order relation lives in
a read-only boolean matrix, and the cover relation in another.  A cover list
is read in one pass: each up-set is a Python int, built by peeling sinks, and
an edge that a longer path implies is refused, so the covers are the edges.
Intervals, whose order is already closed, get their covers by reduction.
A chain of names is a plain tuple, checked in one place: `Poset._row`.
The cover edges by index, `_cover_index`, are read off the cover matrix once.
Chain walks read `_view`: upper covers, rank order and heights by index, built once.
"""

from __future__ import annotations

import json
import operator
from itertools import chain, compress, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    NotAChainError,
    NotPrimeIntervalError,
    PosetConstructionError,
    PreconditionError,
    SizeLimitError,
    UnknownElementError,
)

# Largest poset built, checked by `_check_size`.  On a 2000-element chain (subprocess,
# shared 2-vCPU machine) `semilat validate`, which builds no join table, takes
# 0.26-0.27 s and 47 MiB, about 0.2 s of it interpreter and numpy start-up;
# `semilat project`, whose oracle builds the n x n table, takes 0.62-0.67 s and 66 MiB.
ELEMENT_LIMIT = 2000


def _check_size(counts: Iterable[int], limit: int = ELEMENT_LIMIT,
                refusal: str = "posets are limited to {} elements") -> None:
    """The one size guard: `counts` increase to the size, by default a poset's element count.
    The first past `limit` raises SizeLimitError; one more is read to tell whether it was the last."""
    counts = iter(counts)
    for size in counts:
        if size > limit:
            got = size if next(counts, None) is None else f"more than {size}"
            raise SizeLimitError(f"{refusal.format(limit)}, got {got}")


def _bool_square(a: np.ndarray) -> np.ndarray:
    # float32 path counts cannot wrap to 0 as a small integer type would: a
    # sum of non-negative terms is > 0 exactly when one term is.
    f = a.astype(np.float32)
    return (f @ f) > 0


def _reflexive_transitive_closure(succ: list[list[int]]) -> tuple[np.ndarray, list, bool]:
    """The reach matrix of a digraph, its edges that longer paths imply, and
    whether it has a cycle.  Sinks are peeled first (Kahn's algorithm): v's
    strict up-set is an int, bit u set for each u above v; an edge (v, u) is implied
    when u is above another successor of v.  Nodes never peeled reach a cycle;
    the same rule is swept over them to a fixpoint, in the order a search back
    from each meets them."""
    n = len(succ)
    pred: list[list[int]] = [[] for _ in range(n)]
    for v, heads in enumerate(succ):
        for u in heads:
            pred[u].append(v)
    left = list(map(len, succ))
    above, implied = [0] * n, []
    ready = [v for v in range(n) if not left[v]]
    for v in ready:   # grows as the loop peels
        up = bits = 0
        for u in succ[v]:
            up |= above[u]
            bits |= 1 << u
        if up & bits:
            implied += [(v, u) for u in succ[v] if up >> u & 1]
        above[v] = up | bits
        for w in pred[v]:
            left[w] -= 1
            if not left[w]:
                ready.append(w)
    order, k = [], 0
    for s in compress(range(n), left):   # search back from each node never peeled or met
        left[s] = 0
        order.append(s)
        while k < len(order):
            for w in pred[order[k]]:
                if left[w]:
                    left[w] = 0
                    order.append(w)
            k += 1
    while order:   # sweeps in turns forward and backward
        before = above[:]
        for v in order:
            for u in succ[v]:
                above[v] |= above[u] | 1 << u
        order = order[::-1] if above != before else []
    rows = np.frombuffer(b"".join([a.to_bytes((n + 7) // 8, "little") for a in above]), np.uint8)
    leq = np.unpackbits(rows.reshape(n, -1), axis=1, count=n, bitorder="little").view(bool)
    np.fill_diagonal(leq, True)
    return leq, implied, len(ready) < n


def _transitive_reduction(leq: np.ndarray) -> np.ndarray:
    """Cover matrix of a partial order given as a reflexive leq matrix."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    return strict & ~_bool_square(strict)


class Poset:
    """Immutable finite poset over string element names.

    Instances are constructed through :meth:`from_cover_list`, :meth:`interval`
    or :meth:`dual`, or from an order a caller has already closed (the
    subnormal lattice); after construction everything is a pure read, so posets
    can be shared freely between threads.  Derived tables (the cover index, joins,
    meets, semimodularity, heights, bottom and top) are cached on first use; each
    cache entry is written exactly once, so concurrent readers see either
    nothing or the finished table.
    """

    def __init__(self, name: str, elements: tuple[str, ...], leq: np.ndarray,
                 covers: np.ndarray):
        # Internal constructor: callers guarantee `elements` is sorted and the
        # matrices describe a genuine partial order / its reduction.
        self.name = name
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        leq.flags.writeable = False
        covers.flags.writeable = False
        self._leq = leq
        self._covers = covers
        self._cache: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_cover_list(cls, name: str, elements: Iterable[str],
                        covers: Iterable[Sequence[str]]) -> "Poset":
        """Build a poset from its elements and its cover edges.

        Each edge is a list or tuple of two names, and the edges must be
        exactly the covers of the order they generate: an edge implied by
        others is refused, so a DAG is reduced to its covers before it is
        read.  More than ELEMENT_LIMIT elements raise SizeLimitError before
        any matrix is built.
        """
        elems = list(elements)
        if not elems:
            raise PosetConstructionError("empty posets are not supported")
        _check_size([len(elems)])
        seen = set()
        for e in elems:
            if not isinstance(e, str) or not e:
                raise PosetConstructionError(f"element names must be nonempty strings, got {e!r}")
            if e in seen:
                raise PosetConstructionError(f"duplicate element {e!r}")
            seen.add(e)
        ordered = tuple(sorted(elems))
        index = {e: i for i, e in enumerate(ordered)}
        n = len(ordered)

        succ: list[list[int]] = [[] for _ in range(n)]
        get = index.get
        for pair in covers:
            # Not any two-item iterable: a string "ab" or a set's hash order is no cover.
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise PosetConstructionError(f"cover {pair!r} is not two names")
            a, b = pair
            i = get(a) if isinstance(a, str) else None   # no hash of a non-string
            j = get(b) if isinstance(b, str) else None
            if i is None or j is None:
                x = a if i is None else b
                raise PosetConstructionError(f"unknown endpoint {x!r} in cover ({a}, {b})")
            if i == j:
                raise PosetConstructionError(f"cycle: self-cover ({a}, {b})")
            succ[i].append(j)
        leq, implied, cyclic = _reflexive_transitive_closure(succ)
        if cyclic:
            i, j = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))[0]
            raise PosetConstructionError(
                f"cycle detected through {ordered[i]!r} and {ordered[j]!r}")
        if implied:
            i, j = min(implied)
            raise PosetConstructionError(f"non-cover edge ({ordered[i]}, {ordered[j]})")
        edges = np.zeros(n * n, dtype=bool)   # checked above: the edges are the covers
        edges[np.repeat(np.arange(0, n * n, n), list(map(len, succ)))
              + np.fromiter(chain.from_iterable(succ), dtype=np.intp)] = True
        return cls(name, ordered, leq, edges.reshape(n, n))

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Poset({self.name!r}, {len(self)} elements)"

    def __eq__(self, other) -> bool:
        """Same carrier and same order; the name is presentation only."""
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self._leq, other._leq)

    __hash__ = None  # mutable caches; identity hashing would mislead

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except (KeyError, TypeError):   # TypeError: an unhashable value
            raise UnknownElementError(
                f"element {element!r} is not in poset {self.name!r}") from None

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def leq(self, a: str, b: str) -> bool:
        """True iff a <= b."""
        return bool(self._leq[self.index(a), self.index(b)])

    def is_cover(self, a: str, b: str) -> bool:
        """True iff b covers a (a < b with nothing strictly between)."""
        return bool(self._covers[self.index(a), self.index(b)])

    def cover_pairs(self) -> list[tuple[str, str]]:
        """All cover edges (lower, upper), lexicographically sorted."""
        lo, hi = self._cover_index()
        return [(self.elements[i], self.elements[j]) for i, j in zip(lo.tolist(), hi.tolist())]

    def _cover_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The cover edges (lower, upper) by index in row-major order, read flat; cached."""
        if "cover_index" not in self._cache:
            self._cache["cover_index"] = np.divmod(np.flatnonzero(self._covers), len(self))
        return self._cache["cover_index"]

    def upper_covers(self, a: str) -> list[str]:
        return [self.elements[j] for j in self._view()[0][self.index(a)]]

    def _view(self) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        """Upper-cover index lists, the rank order (each element after those below
        it), and the heights: longest cover paths from a minimal element."""
        if "view" not in self._cache:
            below, above = self._cover_index()   # row by row, so each row's covers are a slice
            ends = np.bincount(below, minlength=len(self)).cumsum().tolist()
            above = above.tolist()
            ups = [above[a:b] for a, b in zip([0, *ends], ends)]
            order = np.argsort(self._leq.sum(axis=0), kind="stable")
            h = [0] * len(self)
            for i in order.tolist():   # each height is final before it is read
                up = h[i] + 1
                for u in ups[i]:
                    if h[u] < up:
                        h[u] = up
            self._cache["view"] = ups, order, np.array(h, dtype=np.intp)
        return self._cache["view"]

    # -- bounds and height ---------------------------------------------------

    def _bound(self, kind: str, axis: int) -> str | None:
        if kind not in self._cache:
            found = np.flatnonzero(self._leq.all(axis=axis))
            self._cache[kind] = self.elements[found[0]] if len(found) else None
        return self._cache[kind]

    def bottom(self) -> str | None:
        """The unique minimum, or None."""
        return self._bound("bottom", axis=1)

    def top(self) -> str | None:
        """The unique maximum, or None."""
        return self._bound("top", axis=0)

    def height(self) -> int:
        """Length of a longest chain (element count minus one)."""
        return int(self._view()[2].max())

    # -- derived posets ------------------------------------------------------

    def interval(self, x: str, y: str) -> "Poset":
        """Subposet {z : x <= z <= y} with covers recomputed inside it, built anew on each call."""
        ix, iy = self.index(x), self.index(y)
        if not self._leq[ix, iy]:
            raise PosetConstructionError(f"{x!r} is not below {y!r}; empty interval")
        keep = np.flatnonzero(self._leq[ix] & self._leq[:, iy])
        sub = self._leq[np.ix_(keep, keep)].copy()
        return Poset(f"{self.name}[{x},{y}]", tuple(self.elements[i] for i in keep), sub,
                     _transitive_reduction(sub))

    def dual(self) -> "Poset":
        """Same carrier with the order reversed; an involution.

        Memoized both ways, so dual(dual(p)) is p itself.
        """
        cached = self._cache.get("dual")
        if cached is None:
            if self.name.startswith("dual(") and self.name.endswith(")"):
                name = self.name[5:-1]
            else:
                name = f"dual({self.name})"
            cached = Poset(name, self.elements, self._leq.T.copy(), self._covers.T.copy())
            cached._cache["dual"] = self
            self._cache["dual"] = cached
        return cached

    # -- chains --------------------------------------------------------------

    def _row(self, elements) -> list[int]:
        """The one check of a chain of names: the index row of `elements`, strictly increasing."""
        elems = _chain_names(elements)
        if not elems:
            raise NotAChainError("a chain needs at least one element")
        row = [self.index(e) for e in elems]
        for a, b, i, j in zip(elems, elems[1:], row, row[1:]):
            if i == j or not self._leq[i, j]:
                raise NotAChainError(f"not strictly increasing at ({a}, {b})")
        return row

    def chain(self, elements: Iterable[str]) -> tuple[str, ...]:
        """`elements`, checked by `_row`, as a tuple of names."""
        return tuple(map(self.elements.__getitem__, self._row(elements)))

    def _pairs(self, what: str, first, second) -> list[list[int]]:
        """The one check of pairs of names: both as index pairs, each checked as two names first."""
        message = "{} must be two names each: {}, {}"
        ends = [_sequence(v, NotPrimeIntervalError, message, what, first, second)
                for v in (first, second)]
        if any(len(v) != 2 for v in ends):
            raise NotPrimeIntervalError(message.format(what, first, second))
        return [[self.index(e) for e in v] for v in ends]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "elements": list(self.elements),
            "covers": [[a, b] for a, b in self.cover_pairs()],
        }


def _sequence(value, error: type, message: str, *args) -> tuple:
    """The one sequence test: `value` as a tuple, else `error(message.format(*args))`."""
    try:
        return tuple(value)
    except TypeError:
        raise error(message.format(*args)) from None


def _chain_names(chain) -> tuple:
    """The one iterable test of a chain argument: `chain` as a tuple, else NotAChainError."""
    return _sequence(chain, NotAChainError, "a chain must be iterable, got {}", type(chain).__name__)


def _poset(p) -> Poset:
    """The one check of a poset argument, where each public function first reads it."""
    if not isinstance(p, Poset):
        raise PreconditionError(f"the poset must be a Poset, got {type(p).__name__}")
    return p


def _int(value, what: str) -> int:
    """`value` as an int, if it is an integer (anything `operator.index` takes)."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None


# The longest numeral read from text: Python's default limit on reading an int
# from a string (sys.int_info.default_max_str_digits), so every numeral int() reads
# by default is read as before, and a longer one is refused in the package's words.
_NUMERAL_DIGITS = 4300


def _numeral(text: str) -> int:
    """The one reader of a number in text, in argv and in edge lists: an
    optional minus sign, then 1 to _NUMERAL_DIGITS ASCII digits; anything
    else raises ValueError."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    if len(digits) > _NUMERAL_DIGITS:
        raise ValueError(f"integers are limited to {_NUMERAL_DIGITS} digits, got {len(digits)}")
    return int(text)


def _fields(data, what: str, error: type, *fields: str) -> list:
    """The one check of a JSON object from a file: the values of a string "name" and `fields`."""
    if not isinstance(data, dict):
        raise error(f"{what} JSON must be an object")
    for field in ("name", *fields):
        if field not in data:
            raise error(f"{what} JSON lacks field {field!r}")
    if not isinstance(data["name"], str):
        raise error("field 'name' must be a string")
    return [data[field] for field in ("name", *fields)]


_PAIRS = "field 'covers' must be an array of [lower, upper] pairs"


def from_dict(data: dict) -> Poset:
    """Inverse of Poset.to_dict; validates the JSON object shape.

    The covers are walked once, by the build.  A cover that is not a list of
    two items is the first error reported, so any failure of the build looks
    for one before it is raised (JSON has no tuples, so the build refuses
    exactly those covers)."""
    name, elements, covers = _fields(data, "poset", PosetConstructionError, "elements", "covers")
    if not isinstance(elements, list):
        raise PosetConstructionError("field 'elements' must be an array of strings")
    if not isinstance(covers, list):
        raise PosetConstructionError(_PAIRS)
    try:
        return Poset.from_cover_list(name, elements, covers)
    except (PosetConstructionError, SizeLimitError):
        if not all(isinstance(c, list) and len(c) == 2 for c in covers):
            raise PosetConstructionError(_PAIRS) from None
        raise


def load_poset(path: str) -> Poset:
    with open(path, encoding="utf-8") as fh:
        return from_dict(json.load(fh))


_encode_str = json.encoder.encode_basestring_ascii
_fallback = json.JSONEncoder(indent=2, sort_keys=True)
# Writers of the values json prints on one line, by exact type: a bool is no int.
_SCALARS = {str: _encode_str, int: int.__repr__, bool: lambda b: "true" if b else "false",
            type(None): lambda _: "null"}


class _Rows(NamedTuple):
    """A JSON array whose items are already text: `items`, written for the
    depth of the array's items and joined by commas, is written as is."""

    items: str

    @staticmethod
    def text(value, depth: int) -> str:
        """The JSON text of `value` for a slot on a line `depth` levels deep."""
        return _json_text(value, "\n" + "  " * depth)


def _json_text(obj, nl: str = "\n") -> str:
    """The text ``json.dumps`` writes with ``indent=2, sort_keys=True``, byte
    for byte; inside a document, as if on a line opened by `nl` (a newline
    and the line's indentation).

    ``indent=`` makes ``json`` use its pure-Python encoder; this writer walks
    plain dicts, lists, tuples, strings, ints, booleans and None itself and
    hands anything else (floats, subclasses, non-string keys, empty
    containers) to ``json``.
    A list of ints is written by one join, and a `_Rows` as its text.
    """
    out: list[str] = []

    def write(o, nl: str) -> None:  # nl: a newline and the current indentation
        t = type(o)
        scalar = _SCALARS.get(t)
        if scalar is not None:
            out.append(scalar(o))
            return
        inner = nl + "  "
        if t is _Rows:
            out.extend(("[", inner, o.items, nl, "]") if o.items else ("[]",))   # no copy
            return
        if (t is list or t is tuple) and o:
            if type(o[0]) is int and set(map(type, o)) == {int}:
                out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
                return
            brackets, items = "[]", zip(repeat(""), o)
        elif t is dict and o and all(type(k) is str for k in o):
            brackets, items = "{}", ((_encode_str(k) + ": ", v) for k, v in sorted(o.items()))
        else:
            out.append(_fallback.encode(o).replace("\n", nl))
            return
        sep = brackets[0] + inner
        for prefix, v in items:
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                out.append(sep + prefix)
                write(v, inner)
            else:
                out.append(sep + prefix + scalar(v))
            sep = "," + inner
        out.append(nl + brackets[1])

    write(obj, nl)
    return "".join(out)


def _save_json(payload, path: str) -> None:
    """The one writer of JSON files: poset and group files and `semilat gen`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload) + "\n")


def save_poset(p: Poset, path: str) -> None:
    _save_json(_poset(p).to_dict(), path)
