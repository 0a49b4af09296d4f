"""Joins, meets, the semimodularity law, and maximal-chain machinery."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    MissingBoundsError,
    NoJoinError,
    NotJoinSemilatticeError,
)
from .poset import Chain, Poset

# Sentinels inside the bound tables.
_NONE = -1        # no common bound at all
_AMBIGUOUS = -2   # several minimal/maximal common bounds


def _bounds_table(leq: np.ndarray) -> tuple[list[list[int]], tuple[int, int] | None]:
    """Least-upper-bound table for the order `leq`.

    Returns the n x n table (sentinels where the lub does not exist) and the
    first pair, in canonical scan order, at which it fails.
    """
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    table = [[0] * n for _ in range(n)]
    first_bad: tuple[int, int] | None = None
    for i in range(n):
        row_i = leq[i]
        for j in range(i, n):
            ub = row_i & leq[j]
            idxs = np.flatnonzero(ub)
            if len(idxs) == 0:
                val = _NONE
            else:
                sub = strict[np.ix_(idxs, idxs)]
                minimal = idxs[~sub.any(axis=0)]
                val = int(minimal[0]) if len(minimal) == 1 else _AMBIGUOUS
            table[i][j] = table[j][i] = val
            if val < 0 and first_bad is None:
                first_bad = (i, j)
    return table, first_bad


def _join_table(p: Poset) -> tuple[list[list[int]], tuple[int, int] | None]:
    cached = p._cache.get("join")
    if cached is None:
        cached = _bounds_table(p._leq)
        p._cache["join"] = cached
    return cached


def _meet_table(p: Poset) -> tuple[list[list[int]], tuple[int, int] | None]:
    cached = p._cache.get("meet")
    if cached is None:
        cached = _bounds_table(p._leq.T.copy())
        p._cache["meet"] = cached
    return cached


def join(p: Poset, a: str, b: str) -> str:
    """Least upper bound of a and b."""
    table, _ = _join_table(p)
    v = table[p.index(a)][p.index(b)]
    if v == _NONE:
        raise NoJoinError(f"no common upper bound for ({a}, {b}) in {p.name!r}")
    if v == _AMBIGUOUS:
        raise NoJoinError(f"several minimal common upper bounds for ({a}, {b}) in {p.name!r}")
    return p.elements[v]


def meet(p: Poset, a: str, b: str) -> str | None:
    """Greatest lower bound of a and b, or None when it does not exist.

    Meets are optional in a join semilattice, so absence is a value here,
    never an error.
    """
    table, _ = _meet_table(p)
    v = table[p.index(a)][p.index(b)]
    return None if v < 0 else p.elements[v]


def is_join_semilattice(p: Poset) -> tuple[bool, tuple[str, str] | None]:
    """Whether every pair has a join; on failure also the first offending pair."""
    _, first_bad = _join_table(p)
    if first_bad is None:
        return True, None
    i, j = first_bad
    return False, (p.elements[i], p.elements[j])


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

    Only cover pairs (a, b) are scanned; the a = b case of the law is vacuous.
    """
    cached = p._cache.get("semimodular")
    if cached is not None:
        return cached
    ok, pair = is_join_semilattice(p)
    if not ok:
        raise NotJoinSemilatticeError(pair)
    table, _ = _join_table(p)
    covers = p._covers
    report = SemimodularityReport(True)
    done = False
    for a, b in p.cover_pairs():
        ia, ib = p.index(a), p.index(b)
        for ic in range(len(p)):
            u, v = table[ia][ic], table[ib][ic]
            if u != v and not covers[u, v]:
                report = SemimodularityReport(False, (a, b, p.elements[ic]))
                done = True
                break
        if done:
            break
    p._cache["semimodular"] = report
    return report


# -- maximal chains ---------------------------------------------------------


def _require_bounds(p: Poset) -> tuple[str, str]:
    bottom, top = p.bottom(), p.top()
    if bottom is None or top is None:
        raise MissingBoundsError(f"poset {p.name!r} lacks a bottom or top element")
    return bottom, top


def is_maximal_chain(p: Poset, chain: Chain | Sequence[str]) -> bool:
    """True iff the sequence runs from bottom to top through covers only."""
    bottom, top = _require_bounds(p)
    elems = tuple(chain)
    for e in elems:
        p.index(e)
    if elems[0] != bottom or elems[-1] != top:
        return False
    return all(p.is_cover(a, b) for a, b in zip(elems, elems[1:]))


def maximal_chains(p: Poset, limit: int | None = None) -> list[Chain]:
    """All maximal chains in lexicographic element order, optionally truncated."""
    bottom, top = _require_bounds(p)
    out: list[Chain] = []
    path: list[str] = [bottom]
    # branches[i] yields the upper covers of path[i] not yet explored.
    branches: list = []
    while True:
        if path[-1] == top:
            out.append(Chain(tuple(path)))
            if limit is not None and len(out) >= limit:
                return out
            path.pop()
        else:
            branches.append(iter(p.upper_covers(path[-1])))
        while branches:
            nxt = next(branches[-1], None)
            if nxt is not None:
                path.append(nxt)
                break
            branches.pop()
            path.pop()
        else:
            return out


def count_maximal_chains(p: Poset) -> int:
    """Number of maximal chains (bottom-to-top cover paths)."""
    bottom, top = _require_bounds(p)
    heights = p.element_heights()
    counts: dict[str, int] = {}
    # Every upper cover is higher, so it is counted before the elements below it.
    for x in sorted(p.elements, key=heights.__getitem__, reverse=True):
        counts[x] = 1 if x == top else sum(counts[y] for y in p.upper_covers(x))
    return counts[bottom]


def extend_to_maximal_chain(p: Poset, partial: Chain | Iterable[str],
                            seed: int = 0) -> Chain:
    """Extend a chain to a maximal one, chosen deterministically from seed."""
    bottom, top = _require_bounds(p)
    part = partial if isinstance(partial, Chain) else p.chain(partial)
    rng = random.Random(seed)
    anchors = list(part.elements)
    if anchors[0] != bottom:
        anchors.insert(0, bottom)
    if anchors[-1] != top:
        anchors.append(top)
    out = [anchors[0]]
    for target in anchors[1:]:
        cur = out[-1]
        while cur != target:
            # Covers of cur inside [cur, target] are covers of p below target.
            options = [w for w in p.upper_covers(cur) if p.leq(w, target)]
            cur = options[rng.randrange(len(options))]
            out.append(cur)
    return Chain(tuple(out))
