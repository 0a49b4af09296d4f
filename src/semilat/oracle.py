"""Brute-force ground truth for the chain-matching theorem.

Everything here is deliberately dumb: witness existence for a relation cell
is decided by one exhaustive mask over all element pairs (x, y), read off
the join table, and uniqueness of the matching permutation by counting the
consistent permutations of the relation matrix.  `check_pairs` checks a
whole pair set in one pass: the preconditions once, each distinct chain
once, and every cell the pairs need in one batch of masks, evaluated in
blocks.  The oracle reads only the `Poset` and its join table: it calls
neither the projectivity predicates nor the matcher's internals, so an
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLengthMismatchError, NotPrimeIntervalError, SizeLimitError
from .matching import jh_match
from .poset import Chain, Poset
from . import semilattice as sl

COUNTING_LIMIT = 20     # perfect-matching count with column-set memo
_MASK_BLOCK = 2 ** 20   # mask entries evaluated at once


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


def _evaluate_cells(p: Poset, cells: list[tuple[int, int, int, int]], cache: dict) -> None:
    """Set cache[(a, b, c, d)], for each index cell of two prime intervals
    [a, b] and [c, d], to the lexicographically first of all |p|^2 pairs
    (x, y) with x != y, a∨x = c∨x = x and b∨x = d∨x = y, as names, or None.

    The cells share one mask over the join table, in blocks of about
    _MASK_BLOCK entries.  Raises NoJoinError unless p is a join semilattice.
    """
    if not cells:
        return
    J = sl._joins(p)
    names, size = p.elements, len(p)
    xs = np.arange(size)
    step = max(1, _MASK_BLOCK // size ** 2)
    for start in range(0, len(cells), step):
        block = cells[start:start + step]
        a, b, c, d = np.array(block).T
        # Cell k, row x, column y: every condition, evaluated on every pair.
        mask = J[b][:, :, None] == xs
        mask &= J[d][:, :, None] == xs
        mask &= ((J[a] == xs) & (J[c] == xs))[:, :, None]
        mask &= xs[:, None] != xs
        mask = mask.reshape(len(block), -1)
        first = mask.argmax(axis=1)
        found = mask[np.arange(len(block)), first]
        for cell, f, hit in zip(block, first.tolist(), found.tolist()):
            cache[cell] = (names[f // size], names[f % size]) if hit else None


def _not_prime(p: Poset, lo: str, hi: str) -> NotPrimeIntervalError:
    return NotPrimeIntervalError(f"[{lo}, {hi}] is not a prime interval of {p.name!r}")


def interval_updown_witness(p: Poset, source, target) -> tuple[str, str] | None:
    """The lexicographically first of all |p|^2 pairs (x, y) with x != y,
    a∨x = c∨x = x and b∨x = d∨x = y, for the prime intervals
    source = [a, b] and target = [c, d].

    Raises NoJoinError unless p is a join semilattice.
    """
    for lo, hi in (source, target):
        if not p.is_cover(lo, hi):
            raise _not_prime(p, lo, hi)
    cell = (*map(p.index, source), *map(p.index, target))
    cache: dict = {}
    _evaluate_cells(p, [cell], cache)
    return cache[cell]


def projectivity_relation(p: Poset, chain_a, chain_b,
                          cache: dict | None = None) -> ProjectivityRelation:
    """Relation matrix between the prime intervals of two equal-length chains.

    `cache` may be shared across calls on the same poset: cells depend only on
    the two intervals, keyed by their indices (a, b, c, d), so chain pairs
    with common steps reuse the searches.  The cells missing from it are
    evaluated together.
    """
    C = tuple(chain_a)
    D = tuple(chain_b)
    if len(C) != len(D):
        raise ChainLengthMismatchError(
            f"chains of lengths {len(C) - 1} and {len(D) - 1}")
    n = len(C) - 1
    cache = {} if cache is None else cache
    c, d = list(map(p.index, C)), list(map(p.index, D))
    cells = [(a, b, e, f) for a, b in zip(c, c[1:]) for e, f in zip(d, d[1:])]
    missing = list(dict.fromkeys(cell for cell in cells if cell not in cache))
    for a, b, e, f in missing:
        for lo, hi in ((a, b), (e, f)):
            if not p._covers[lo, hi]:
                raise _not_prime(p, p.elements[lo], p.elements[hi])
    _evaluate_cells(p, missing, cache)
    witnesses = list(map(cache.__getitem__, cells))

    def square(flat: list) -> tuple:
        return tuple(tuple(flat[i * n:i * n + n]) for i in range(n))

    return ProjectivityRelation(n, square([w is not None for w in witnesses]), square(witnesses))


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


def check_pairs(p: Poset, pairs, cache: dict | None = None) -> list[TheoremReport]:
    """`check_theorem` on every chain pair, in order, in one pass.

    The poset preconditions are checked once, and each distinct chain is
    checked for maximality and indexed once.  Every relation cell that the
    evaluable pairs (preconditions met, equal lengths) need is then
    evaluated in one batch, so each pair reads its relation off the cache.
    Chains longer than COUNTING_LIMIT raise SizeLimitError before any cell
    is computed.
    """
    cache = {} if cache is None else cache
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
    chains: dict[tuple[str, ...], tuple[Chain, list[int]]] = {}
    partners: dict[tuple[str, ...], dict] = {}
    for _, C, D in evaluable:
        for ch in (C, D):
            if ch not in chains:
                chains[ch] = p.chain(ch), list(map(p.index, ch))
        d = chains[D][1]
        partners.setdefault(C, {}).update(dict.fromkeys(zip(d, d[1:])))
    needed: dict[tuple[int, int, int, int], None] = {}
    for C, steps in partners.items():
        c = chains[C][1]
        needed.update(dict.fromkeys((a, b, e, f) for a, b in zip(c, c[1:]) for e, f in steps))
    _evaluate_cells(p, [cell for cell in needed if cell not in cache], cache)

    for out, C, D in evaluable:
        rel = projectivity_relation(p, C, D, cache=cache)
        result = jh_match(p, chains[C][0], chains[D][0])
        n = rel.n
        count = count_consistent_permutations(rel)
        consistent = all(rel.related[i - 1][result.pi[i - 1] - 1] for i in range(1, n + 1))
        out.append(CheckEntry(
            "unique-permutation", count == 1 and consistent,
            f"matching count {count}; computed permutation consistent: {consistent}"))
        violations = [(i, j)
                      for i in range(1, n + 1)
                      for j in range(1, n + 1)
                      if rel.related[i - 1][j - 1] and j > result.pi[i - 1]]
        out.append(CheckEntry(
            "maximality", not violations,
            "every related j satisfies j <= pi(i)" if not violations
            else f"violated at (i, j) pairs {violations}"))
    return [TheoremReport(tuple(e)) for e in entries]


def check_theorem(p: Poset, chain_a, chain_b,
                  cache: dict | None = None) -> TheoremReport:
    """Verify all three claims for one chain pair against the brute-force
    relation: equal lengths, a unique consistent permutation equal to the
    constructive one, and maximality of that permutation.

    Precondition problems (non-semimodular poset, missing bounds, non-maximal
    chains) are reported as entries instead of raised, so negative controls
    produce evidence rather than crashes.  Chains longer than COUNTING_LIMIT
    raise SizeLimitError before any relation cell is computed.
    """
    return check_pairs(p, [(chain_a, chain_b)], cache=cache)[0]
