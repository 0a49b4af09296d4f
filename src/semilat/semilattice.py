"""Joins, meets, the semimodularity law, and maximal chains walked, counted
and tested by index, with element names built only for the chains returned.

Joins are computed only where they are read.  Up-set i is kept once per
poset as packed words in rank order, and i ∨ j is the rank-least common
upper bound of i and j when its up-set is all of theirs.  `_join_of` reads
index arrays from the n x n join table when that is cached, small or
cheaper than the reads, and from the packed up-sets otherwise; scalar
`join` reads Python-int up-sets, and `meet` reads one join of the dual.
Beyond that, only the oracle and the failure paths below build the table.

Being a join semilattice is decided locally: a finite poset is a join
semilattice iff every two upper covers of one element have a join, and
every two minimal elements have a join.  Proof: adjoin a bottom ⊥, whose
upper covers are the minimal elements, and use downward induction on a
common lower bound z of i and j.  Take covers u ≤ i and v ≤ j of z.  If
u = v, apply the induction at u.  Otherwise w = u∨v, p = i∨w (common lower
bound u > z), q = j∨w (common lower bound v > z) and r = p∨q exist.  Every
common upper bound of i and j lies above u, v, w, p, q and r, so r = i∨j.
The semimodularity law is decided on the same pairs of upper covers
(Birkhoff's local form).  Only when either test fails is the table built,
to name the same first offending pair, or the first counterexample by a
scan of every (cover pair, element) entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (InternalInvariantError, MissingBoundsError, NoJoinError,
                     NotJoinSemilatticeError, NotMaximalChainError, PreconditionError,
                     SizeLimitError, UnknownElementError)
from .poset import Poset, _chain_names, _int, _poset

# Sentinels inside the bound tables.
_NONE = -1        # no common bound at all
_AMBIGUOUS = -2   # several minimal/maximal common bounds

# On a shared 2-vCPU machine (subprocess wall time): the 49,770 series pairs
# of Z2xZ2xZ2xZ2 take 1.6-1.9 s in `group composition --json`, 0.5 s of it
# in composition_analysis; the 32,400 chain pairs of Pi5 take 0.29-0.31 s in
# `verify --all-pairs --json` (46 MiB peak).
PAIR_LIMIT = 50_000

# Most maximal chains walked: in-process `semilat chains --json` on a shared 2-vCPU
# machine lists the 90,720 of chain_product([2]*5 + [3, 3]) in 0.74 s at 167 MiB peak
# (22 MB written), and the 181,440 of chain_product([2]*7 + [3]) in 1.48 s at 306 MiB.
CHAIN_LIMIT = 100_000

# The one bound, in entries, on the numpy temporaries of each block of the join
# table, of `_join_of` on the packed up-sets, of the counterexample scan (run only
# when the law fails), the matcher and the oracle's cell scan.  The table is read
# by the oracle, by the failure paths, and by `_join_of` when it is small or
# cheaper than the reads.  At 2^16 the table and the scan took
# 1.35-1.6x as long on Pi6, C4x4x4x4 and C300, and the matcher and the cell
# scan stayed within 5% (medians of 15 runs, shared 2-vCPU Xeon).
_BLOCK = 2 ** 14

# The most pairs of a join table built as soon as a join is read (n <= 90): such a
# table takes at most about 0.2 ms (B6, 2,080 pairs: 0.09 ms), about what a job's
# few `_join_of` calls on the packed up-sets cost at 16 us each before their reads,
# while C5x5x5's 7,875 pairs take 0.48 ms (in-process, shared 2-vCPU machine).
_SMALL_TABLE = 2 ** 12


def _up_words(p: Poset) -> np.ndarray:
    """Up-set i of p as row i of uint64 words, bit r set when the r-th element
    by rank is above i; cached, and read by the table and by `_join_of`."""
    words = p._cache.get("up_words")
    if words is None:
        n, w = len(p), -(-len(p) // 64)
        by_rank = np.zeros((n, 64 * w), dtype=bool)   # C order, whole words
        by_rank[:, :n] = p._leq.take(p._view()[1], axis=1)
        words = np.packbits(by_rank, axis=1, bitorder="little").view("<u8")
        p._cache["up_words"] = words
    return words


def _table(p: Poset) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The least-upper-bound table of p, cached, as an n x n int32 array
    (sentinels where the lub does not exist), and the first pair, row-major
    over the upper triangle, at which it fails.

    Of the common upper bounds of i and j, the first in the rank order is the
    lub exactly when its up-set is all of them.  One AND per word of two
    `_up_words` rows gives a block of pairs popcounts to sum and a lowest set
    bit to find first.
    """
    if "join" in _poset(p)._cache:
        return p._cache["join"]
    words, order = _up_words(p), p._view()[1]
    n, w = words.shape[0], words.shape[1]
    up_size = p._leq.sum(axis=1)
    table = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK // n)
    for s in range(0, n, step):   # rows s:s+step against rows s:, then mirrored
        count = np.zeros((min(step, n - s), n - s), dtype=np.intp)
        first = np.ones_like(count, dtype=np.uint64)   # the first nonzero word
        at = np.zeros_like(count)                       # and its index
        for k in reversed(range(w)):
            both = words[s:s + step, None, k] & words[None, s:, k]
            count += np.bitwise_count(both)
            nonzero = both != 0
            np.copyto(first, both, where=nonzero)
            np.copyto(at, k, where=nonzero)
        cand = order[64 * at + np.bitwise_count(first ^ (first - 1)) - 1]
        block = np.where(count == up_size[cand], cand, _AMBIGUOUS)
        block[count == 0] = _NONE
        table[s:s + step, s:] = block
        table[s:, s:s + step] = block.T
    bad = np.triu(table < 0)
    p._cache["join"] = table, (divmod(int(bad.argmax()), n) if bad.any() else None)
    return p._cache["join"]


def _table_is_cheaper(p: Poset, reads: int) -> bool:
    """Whether building the join table costs less than `reads` joins off the
    packed up-sets: it is small, n(n+1)/2 <= _SMALL_TABLE, or the reads reach
    half its pairs, since a packed join costs 1.3-1.8x a table entry
    (C4x4x4x4 to C2000, measured on a shared 2-vCPU machine)."""
    pairs = len(p) * (len(p) + 1) // 2
    return pairs <= _SMALL_TABLE or 2 * reads >= pairs


def _join_of(p: Poset, a, b, reads: int | None = None) -> np.ndarray:
    """The joins a ∨ b of the index arrays a and b, broadcast together, as
    int32 with the table's sentinels.

    Gathered from the table when it is cached, and built first when that is
    cheaper than `reads` (by default the broadcast size) packed joins.
    Otherwise each pair's rank-least common upper bound is read off the AND
    of its two `_up_words` rows, in blocks of about _BLOCK words, and kept
    when its own row equals that AND.
    """
    cached = p._cache.get("join")
    if cached is None:
        if not _table_is_cheaper(p, reads or np.broadcast(a, b).size):
            a, b = np.broadcast_arrays(a, b)
            return _packed_joins(p, a.ravel(), b.ravel()).reshape(a.shape)
        cached = _table(p)
    return cached[0].ravel().take(a * len(p) + b)   # one flat gather; a * n + b < 2000^2


def _packed_joins(p: Poset, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_join_of` on the packed up-sets, for flat index arrays a and b."""
    words, order = _up_words(p), p._view()[1]
    out = np.empty(len(a), dtype=np.int32)
    step = max(1, _BLOCK // words.shape[1])
    for s in range(0, len(a), step):
        both = words[a[s:s + step]] & words[b[s:s + step]]
        rows = np.arange(len(both))
        at = (both != 0).argmax(axis=1)   # the first nonzero word, 0 if none
        first = both[rows, at]
        found = first != 0   # a common upper bound; else the rank read below is dropped
        first[~found] = 1
        cand = order[64 * at + np.bitwise_count(first ^ (first - 1)) - 1]
        lub = (words[cand] == both).all(axis=1)
        out[s:s + step] = np.where(found, np.where(lub, cand, _AMBIGUOUS), _NONE)
    return out


def _up_ints(p: Poset) -> tuple[list[int], list[int]]:
    """The `_up_words` rows of p as Python ints, and the rank order; cached."""
    if "up_ints" not in p._cache:
        words = _up_words(p)
        rows = words.view(f"V{8 * words.shape[1]}").ravel().tolist()   # a bytes object per row
        p._cache["up_ints"] = (list(map(int.from_bytes, rows, repeat("little"))),
                               p._view()[1].tolist())
    return p._cache["up_ints"]


def _no_join(p: Poset, a: str, b: str, sentinel: int) -> NoJoinError:
    what = "no common upper bound" if sentinel == _NONE else "several minimal common upper bounds"
    return NoJoinError(f"{what} for ({a}, {b}) in {p.name!r}")


def _joins(p: Poset) -> np.ndarray:
    """The join table of p by index, for the oracle's whole-row reads.  Raises
    NoJoinError for the first failing pair unless p is a join semilattice, so
    no caller reads a sentinel as an element."""
    table, first_bad = _table(p)
    if first_bad is not None:
        i, j = first_bad
        raise _no_join(p, p.elements[i], p.elements[j], table[i, j])
    return table


def join(p: Poset, a: str, b: str) -> str:
    """Least upper bound of a and b."""
    ups, order = _up_ints(_poset(p))
    common = ups[p.index(a)] & ups[p.index(b)]
    if not common:
        raise _no_join(p, a, b, _NONE)
    v = order[(common & -common).bit_length() - 1]
    if ups[v] != common:
        raise _no_join(p, a, b, _AMBIGUOUS)
    return p.elements[v]


def meet(p: Poset, a: str, b: str) -> str | None:
    """Greatest lower bound of a and b, or None when it does not exist.

    Meets are optional in a join semilattice, so absence is a value here,
    never an error.
    """
    v = int(_join_of(_poset(p).dual(), p.index(a), p.index(b)))
    return None if v < 0 else p.elements[v]


def _cover_joins(p: Poset) -> tuple[np.ndarray, np.ndarray]:
    """Every two upper covers of one element, each pair once, as the rows of an
    (m, 2) index array, and their joins by `_join_of`; cached.

    The rows are those of `combinations(ups, 2)` over each element's upper
    covers in turn, listed from the row-major cover index by array work: the
    edge at position k pairs with each edge after it on its row."""
    if "cover_joins" not in p._cache:
        lo, hi = p._cover_index()
        ends = np.bincount(lo, minlength=len(p)).cumsum()
        after = ends[lo] - np.arange(len(lo)) - 1   # edges after edge k on its row
        k = np.repeat(np.arange(len(lo)), after)   # each pair's first edge
        t = np.arange(len(k)) - np.repeat(after.cumsum() - after, after)   # its place among k's
        pairs = np.column_stack([hi[k], hi[k + 1 + t]])
        p._cache["cover_joins"] = pairs, _join_of(p, pairs[:, 0], pairs[:, 1])
    return p._cache["cover_joins"]


def is_join_semilattice(p: Poset) -> tuple[bool, tuple[str, str] | None]:
    """Whether every pair has a join; on failure also the first offending pair,
    row-major over the join table; cached.

    Decided on every two upper covers of one element and every two minimal
    elements (see the module docstring).  Only a failure builds the table, to
    name the pair, and a failure the table does not see raises
    InternalInvariantError.
    """
    cached = _poset(p)._cache.get("join_semilattice")
    if cached is not None:
        return cached
    minimal = np.flatnonzero(p._view()[2] == 0)   # height 0
    if (_cover_joins(p)[1] >= 0).all() and (len(minimal) < 2 or (
            _join_of(p, *minimal[np.vstack(np.triu_indices(len(minimal), 1))]) >= 0).all()):
        first_bad = None
    else:
        first_bad = _table(p)[1]
        if first_bad is None:
            raise InternalInvariantError(f"{p.name!r} lacks a join of two upper covers or of "
                                         "two minimal elements, yet every pair has a join")
    names = None if first_bad is None else (p.elements[first_bad[0]], p.elements[first_bad[1]])
    p._cache["join_semilattice"] = first_bad is None, names
    return p._cache["join_semilattice"]


@dataclass(frozen=True)
class SemimodularityReport:
    """Outcome of the semimodularity check.

    When the law fails, `counterexample` is the first triple (a, b, c), in
    canonical scan order, with a covered by b but join(a,c) neither equal to
    nor covered by join(b,c).
    """

    holds: bool
    counterexample: tuple[str, str, str] | None = None


def is_semimodular(p: Poset) -> SemimodularityReport:
    """Check the covering law: a ⋖ b implies join(a,c) ⪯ join(b,c) for all c.

    Decided by Birkhoff's local form: any two upper covers b, c of one element
    are both covered by join(b,c).  Each principal filter of a finite join
    semilattice is a finite lattice with the same covers and joins, where the
    two forms agree, so they agree here, with or without a bottom.  Only when
    the local form fails are the cover pairs (a, b) scanned against every c,
    to name the first counterexample; the a = b case of the law is vacuous.
    """
    cached = _poset(p)._cache.get("semimodular")
    if cached is not None:
        return cached
    ok, pair = is_join_semilattice(p)
    if not ok:
        raise NotJoinSemilatticeError(pair)
    pairs, bc = _cover_joins(p)
    b, c = pairs.T   # two upper covers of one element, each pair once
    holds = bool((p._covers[b, bc] & p._covers[c, bc]).all())
    triple = None if holds else _counterexample(p)
    if not holds and triple is None:
        raise InternalInvariantError(f"{p.name!r} breaks Birkhoff's covering condition, "
                                     "yet no triple breaks the covering law")
    p._cache["semimodular"] = SemimodularityReport(holds, triple)
    return p._cache["semimodular"]


def _counterexample(p: Poset) -> tuple[str, str, str] | None:
    """The first triple (a, b, c) breaking the law, cover pairs (a, b) in row-major
    order against every c in turn, in blocks of at most _BLOCK entries, or None.
    It reads the definition off the join table, for `is_semimodular` and the oracle."""
    n, table = len(p), _table(p)[0]
    lo, hi = p._cover_index()
    covers = p._covers.ravel()   # covers[u * n + v]: one flat gather; u * n + v < n^2 fits int32
    step = max(1, _BLOCK // n)
    # Gathers by `take`: B6 scans in 28 us, against 63 us by fancy indexing (in-process).
    for start in range(0, len(lo), step):
        u, v = (table.take(ends[start:start + step], axis=0) for ends in (lo, hi))
        bad = (u != v) & ~covers.take(u * n + v)
        if bad.any():
            k, ic = divmod(int(bad.argmax()) + start * n, n)
            return p.elements[lo[k]], p.elements[hi[k]], p.elements[ic]
    return None


# -- maximal chains ---------------------------------------------------------


def _require_bounds(p: Poset) -> tuple[int, int]:
    bottom, top = _poset(p).bottom(), p.top()
    if bottom is None or top is None:
        raise MissingBoundsError(f"poset {p.name!r} lacks a bottom or top element")
    return p.index(bottom), p.index(top)


def _maximal_rows(p: Poset, X) -> np.ndarray:
    """The one maximality test: which rows of X, element indices of shape
    (P, m), run from the bottom to the top of p by covers (none if m = 0)."""
    bottom, top = _require_bounds(p)
    X = np.asarray(X, dtype=np.intp)
    if not X.shape[1]:
        return np.zeros(len(X), dtype=bool)
    steps = p._covers.ravel().take(X[:, :-1] * len(p) + X[:, 1:])
    return (X[:, 0] == bottom) & (X[:, -1] == top) & steps.all(1)


def _is_int_array(X, ndim: int) -> bool:
    """The one integer-array test: X is an integer numpy array with `ndim` axes."""
    return isinstance(X, np.ndarray) and X.dtype.kind in "iu" and X.ndim == ndim


def _check_index_arrays(C, D, same_shape: bool = True) -> None:
    """PreconditionError unless C and D are integer 2-D arrays of width >= 1,
    and, if `same_shape`, of one shape."""
    if not (all(_is_int_array(X, 2) and X.shape[1] for X in (C, D))
            and (C.shape == D.shape or not same_shape)):
        raise PreconditionError("C and D must be integer arrays of one shape (P, n+1), n >= 0")


def _check_indices(p: Poset, X: np.ndarray, label: str) -> None:
    """UnknownElementError for the first row of X, indices of shape (P, m),
    holding an index outside p, named `label`."""
    if not X.size or (X.min() >= 0 and X.max() < len(p)):
        return
    outside = ((X < 0) | (X >= len(p))).any(1)
    if outside.any():
        raise UnknownElementError(f"{label} {X[outside.argmax()].tolist()} holds an index "
                                  f"outside 0..{len(p) - 1} of {p.name!r}")


def _check_rows(p: Poset, X: np.ndarray, label: str) -> None:
    """The one raising row check: the first row of X, indices of shape (P, m), outside p
    (UnknownElementError) or not a maximal chain of p (NotMaximalChainError), named `label`."""
    _check_indices(p, X, label)
    maximal = _maximal_rows(p, X)
    if not maximal.all():
        names = [p.elements[i] for i in X[maximal.argmin()]]
        raise NotMaximalChainError(f"{label} {names} is not maximal in {p.name!r}")


def is_maximal_chain(p: Poset, chain: Iterable[str]) -> bool:
    """True iff the sequence runs from bottom to top through covers only."""
    _require_bounds(p)   # before any name is looked up
    return bool(_maximal_rows(p, [[p.index(e) for e in _chain_names(chain)]])[0])


def maximal_chains(p: Poset, limit: int | None = None) -> list[tuple[str, ...]]:
    """All maximal chains in lexicographic element order, optionally truncated.
    Raises SizeLimitError before the walk if it would list more than CHAIN_LIMIT."""
    return [tuple(map(p.elements.__getitem__, row)) for row in _chain_rows(p, limit)]


def _chain_rows(p: Poset, limit: int | None = None) -> Iterator[tuple[int, ...]]:
    """`maximal_chains` as index rows, one at a time, so no list of them is held."""
    bottom, top = _require_bounds(p)
    limit = None if limit is None else _int(limit, "limit")
    if ((limit is None or limit > CHAIN_LIMIT)
            and (count := count_maximal_chains(p)) > CHAIN_LIMIT):
        raise SizeLimitError(f"listing is limited to <= {CHAIN_LIMIT} maximal chains, got {count}")
    ups, found = p._view()[0], 0
    # Partial index chains from the bottom; pushing the extensions in reverse
    # order pops them in lexicographic order.
    stack = [(bottom,)]
    while stack and (limit is None or found < limit):
        path = stack.pop()
        if path[-1] == top:
            found += 1
            yield path
        else:
            stack.extend(path + (u,) for u in reversed(ups[path[-1]]))


def count_maximal_chains(p: Poset) -> int:
    """Number of maximal chains (bottom-to-top cover paths)."""
    bottom, top = _require_bounds(p)
    ups, order, _ = p._view()
    counts = [0] * len(p)
    # Every upper cover comes later in the rank order, so it is counted first.
    for x in reversed(order.tolist()):
        counts[x] = 1 if x == top else sum(map(counts.__getitem__, ups[x]))
    return counts[bottom]


def _check_pair_count(count: int) -> None:
    if count > PAIR_LIMIT:
        raise SizeLimitError(f"matching is limited to <= {PAIR_LIMIT} chain pairs, got {count}")
