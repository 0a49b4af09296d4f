"""Brute-force ground truth for the chain-matching theorem.

Everything here is deliberately dumb: witness existence for a relation cell
is decided by one exhaustive scan over every element x, read off the join
table, and uniqueness of the matching permutation by counting the consistent
permutations of the relation matrix.  The scan needs no y: a witness (x, y)
for [a, b] -> [c, d] has b∨x = y, so each x admits exactly one candidate y,
and testing every x with that y tests every pair (x, y).  `check_pairs`
checks a whole pair set in one pass: the preconditions once, each distinct
chain once, every cell the pairs need in one batch of scans, evaluated in
blocks, and each pair's relation read from that batch by chain index.
Cells are cached on the poset, which holds one table of them for every
caller.  The oracle reads only the `Poset` and its join table: it calls
neither the projectivity predicates nor the matcher's internals, so an
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLengthMismatchError, NotPrimeIntervalError, SizeLimitError
from .matching import jh_match_pairs
from .poset import Chain, Poset
from . import semilattice as sl

COUNTING_LIMIT = 20     # perfect-matching count with column-set memo
_MASK_BLOCK = 2 ** 16   # (cell, x) entries evaluated at once


@dataclass(frozen=True)
class ProjectivityRelation:
    """Boolean matrix of up-and-down projectivity between chain intervals.

    related[i-1][j-1] states whether interval i of the first chain has an
    up-and-down witness onto interval j of the second; witnesses holds the
    lexicographically first such pair where one exists.
    """

    n: int
    related: tuple[tuple[bool, ...], ...]
    witnesses: tuple[tuple[tuple[str, str] | None, ...], ...]


def _witnesses(p: Poset, cells: list[tuple[int, int, int, int]]) -> list:
    """The witness of each index cell (a, b, c, d) of two prime intervals
    [a, b] and [c, d]: the lexicographically first of all |p|^2 pairs (x, y)
    with x != y, a∨x = c∨x = x and b∨x = d∨x = y, as names, or None.

    For a given x, b∨x = y leaves one candidate, y = b∨x, so every x is
    tested with it: a∨x = c∨x = x, b∨x != x and d∨x = b∨x.  That covers
    every pair (x, y), and the first x that passes gives the first pair.

    This is the one gate to p's cell table: cells already in it are read,
    the others are checked to be prime steps, in the order given, evaluated
    once in blocks of about _MASK_BLOCK (cell, x) entries over the join
    table, and added to it.  Raises NoJoinError unless p is a join
    semilattice.
    """
    table = p._cache.setdefault("updown_cells", {})
    missing = list(dict.fromkeys(cell for cell in cells if cell not in table))
    if missing:
        todo = np.array(missing)
        intervals = todo.reshape(-1, 2)
        bad = np.flatnonzero(~p._covers[intervals[:, 0], intervals[:, 1]])
        if len(bad):
            lo, hi = (p.elements[i] for i in intervals[bad[0]])
            raise NotPrimeIntervalError(f"[{lo}, {hi}] is not a prime interval of {p.name!r}")
        J = sl._joins(p)
        names = p.elements
        xs = np.arange(len(p))
        step = max(1, _MASK_BLOCK // len(p))
        for start in range(0, len(missing), step):
            a, b, c, d = todo[start:start + step].T
            # Cell k, column x: every condition, with y = b∨x forced.
            y = J[b]
            mask = (J[a] == xs) & (J[c] == xs) & (y != xs) & (J[d] == y)
            first = mask.argmax(axis=1)
            rows = np.arange(len(a))
            hits, ys = mask[rows, first].tolist(), y[rows, first].tolist()
            for cell, x, hit, bx in zip(missing[start:start + step], first.tolist(), hits, ys):
                table[cell] = (names[x], names[bx]) if hit else None
    return list(map(table.__getitem__, cells))


def interval_updown_witness(p: Poset, source, target) -> tuple[str, str] | None:
    """The lexicographically first of all |p|^2 pairs (x, y) with x != y,
    a∨x = c∨x = x and b∨x = d∨x = y, for the prime intervals
    source = [a, b] and target = [c, d], or None.

    Found by the scan over x with y = b∨x forced, which is exhaustive: no
    other y can satisfy b∨x = y.  Raises NotPrimeIntervalError for the first
    of source and target that is not a prime interval, and NoJoinError
    unless p is a join semilattice.
    """
    return _witnesses(p, [(*map(p.index, source), *map(p.index, target))])[0]


def _steps(p: Poset, chain) -> list[tuple[int, int]]:
    """The steps of a chain of names, as index pairs."""
    c = list(map(p.index, chain))
    return list(zip(c, c[1:]))


def _found(p: Poset, cells: list[tuple[int, int, int, int]]) -> dict:
    """Step (a, b) -> step (c, d) -> the witness of the cell (a, b, c, d),
    for the given cells, read through `_witnesses`."""
    found: dict = {}
    for cell, w in zip(cells, _witnesses(p, cells)):
        found.setdefault(cell[:2], {})[cell[2:]] = w
    return found


def _relation(found: dict, c: list, d: list) -> ProjectivityRelation:
    """The relation between the chains with index steps c and d, from `_found`."""
    rows = tuple(tuple(map(found[s].__getitem__, d)) for s in c)
    related = tuple(tuple(w is not None for w in row) for row in rows)
    return ProjectivityRelation(len(c), related, rows)


def projectivity_relation(p: Poset, chain_a, chain_b) -> ProjectivityRelation:
    """Relation matrix between the prime intervals of two equal-length chains.

    Cells depend only on the two intervals, so they are cached on p: chain
    pairs with common steps reuse the searches.
    """
    C = tuple(chain_a)
    D = tuple(chain_b)
    if len(C) != len(D):
        raise ChainLengthMismatchError(
            f"chains of lengths {len(C) - 1} and {len(D) - 1}")
    c, d = _steps(p, C), _steps(p, D)
    return _relation(_found(p, [(*s, *t) for s in c for t in d]), c, d)


def count_consistent_permutations(rel: ProjectivityRelation) -> int:
    """Number of consistent permutations, via memoized perfect-matching count.

    check_theorem decides uniqueness with it for every n; guarded at n <= 20.
    """
    n = rel.n
    if n > COUNTING_LIMIT:
        raise SizeLimitError(f"permutation counting is limited to n <= {COUNTING_LIMIT}")
    memo: dict[int, int] = {}

    def count(i: int, used_cols: int) -> int:
        if i > n:
            return 1
        key = used_cols
        if key in memo:
            return memo[key]
        total = 0
        for j in range(n):
            if not used_cols >> j & 1 and rel.related[i - 1][j]:
                total += count(i + 1, used_cols | 1 << j)
        memo[key] = total
        return total

    return count(1, 0)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class TheoremReport:
    """Pass/fail per claim for one pair of maximal chains."""

    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_dict() for e in self.entries]}


def _poset_preconditions(p: Poset) -> str | None:
    """Why p is not a semimodular join semilattice with bounds, or None."""
    ok, pair = sl.is_join_semilattice(p)
    if not ok:
        return f"not a join semilattice: no join for {pair}"
    report = sl.is_semimodular(p)
    if not report.holds:
        return f"not semimodular: counterexample {report.counterexample}"
    if p.bottom() is None or p.top() is None:
        return "missing bottom or top"
    return None


def check_pairs(p: Poset, pairs) -> list[TheoremReport]:
    """`check_theorem` on every chain pair, in order, in one pass.

    The poset preconditions are checked once, and each distinct chain is
    checked for maximality and indexed once.  Every relation cell that the
    evaluable pairs (preconditions met, equal lengths) need is then
    evaluated in one batch, and each pair reads its relation from that batch
    by chain index.  Each distinct relation is counted once, and the
    evaluable pairs are matched in one `jh_match_pairs` call.
    Chains longer than COUNTING_LIMIT raise SizeLimitError before any cell
    is computed.
    """
    poset_failure = _poset_preconditions(p)
    maximal: dict[tuple[str, ...], bool] = {}
    entries: list[list[CheckEntry]] = []
    evaluable = []
    for chain_a, chain_b in pairs:
        C, D = tuple(chain_a), tuple(chain_b)
        pre_ok, pre_msg = poset_failure is None, poset_failure
        if pre_ok:
            pre_msg = "semimodular join semilattice; both chains maximal"
            for label, ch in (("first", C), ("second", D)):
                if ch not in maximal:
                    maximal[ch] = sl.is_maximal_chain(p, ch)
                if not maximal[ch]:
                    pre_ok, pre_msg = False, f"{label} chain is not maximal"
                    break
        lengths_equal = len(C) == len(D)
        entries.append([CheckEntry("preconditions", pre_ok, pre_msg),
                        CheckEntry("equal-length", lengths_equal,
                                   f"lengths {len(C) - 1} and {len(D) - 1}")])
        if not (pre_ok and lengths_equal):
            skipped = "not evaluated (preconditions failed)"
            entries[-1] += [CheckEntry("unique-permutation", False, skipped),
                            CheckEntry("maximality", False, skipped)]
        elif len(C) - 1 > COUNTING_LIMIT:
            raise SizeLimitError(f"permutation counting is limited to n <= {COUNTING_LIMIT}")
        else:
            evaluable.append((entries[-1], C, D))

    # Each chain left is maximal, so its steps are prime intervals.  A step
    # of a first chain meets every step of that chain's partners.
    chains: dict[tuple[str, ...], tuple[Chain, list[tuple[int, int]]]] = {}
    partners: dict[tuple[str, ...], dict] = {}
    for _, C, D in evaluable:
        for ch in (C, D):
            if ch not in chains:
                chains[ch] = p.chain(ch), _steps(p, ch)
        partners.setdefault(C, {}).update(dict.fromkeys(chains[D][1]))
    found = _found(p, list(dict.fromkeys(
        (*s, *t) for C, steps in partners.items() for s in chains[C][1] for t in steps)))

    matched = jh_match_pairs(p, [(chains[C][0], chains[D][0]) for _, C, D in evaluable]
                             ) if evaluable else []
    counts: dict[tuple, int] = {}  # equal relations have equal counts
    for (out, C, D), match in zip(evaluable, matched):
        n, pi = match.n, match.pi
        rel = _relation(found, chains[C][1], chains[D][1])
        related = rel.related
        if related not in counts:
            counts[related] = count_consistent_permutations(rel)
        count = counts[related]
        consistent = all(related[i][pi[i] - 1] for i in range(n))
        out.append(CheckEntry(
            "unique-permutation", count == 1 and consistent,
            f"matching count {count}; computed permutation consistent: {consistent}"))
        violations = [(i + 1, j + 1) for i in range(n) for j in range(n)
                      if related[i][j] and j >= pi[i]]
        out.append(CheckEntry(
            "maximality", not violations,
            "every related j satisfies j <= pi(i)" if not violations
            else f"violated at (i, j) pairs {violations}"))
    return [TheoremReport(tuple(e)) for e in entries]


def check_theorem(p: Poset, chain_a, chain_b) -> TheoremReport:
    """Verify all three claims for one chain pair against the brute-force
    relation: equal lengths, a unique consistent permutation equal to the
    constructive one, and maximality of that permutation.

    Precondition problems (non-semimodular poset, missing bounds, non-maximal
    chains) are reported as entries instead of raised, so negative controls
    produce evidence rather than crashes.  Chains longer than COUNTING_LIMIT
    raise SizeLimitError before any relation cell is computed.
    """
    return check_pairs(p, [(chain_a, chain_b)])[0]
