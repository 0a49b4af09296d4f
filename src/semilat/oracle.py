"""Brute-force ground truth for the chain-matching theorem.

Everything here is deliberately dumb: witness existence is decided by one
exhaustive mask over all element pairs (x, y), read off the join table, and
uniqueness of the matching permutation by counting the consistent
permutations of the relation matrix.  The oracle reads only the `Poset` and
its join table: it calls neither the projectivity predicates nor the
matcher's internals, so an agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainLengthMismatchError, NotPrimeIntervalError, SizeLimitError
from .matching import jh_match
from .poset import Poset
from . import semilattice as sl

ENUMERATION_LIMIT = 8   # full n! sweep
COUNTING_LIMIT = 20     # perfect-matching count with column-set memo


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


def interval_updown_witness(p: Poset, source, target) -> tuple[str, str] | None:
    """The lexicographically first of all |p|^2 pairs (x, y) with x != y,
    a∨x = c∨x = x and b∨x = d∨x = y, for the prime intervals
    source = [a, b] and target = [c, d].

    Raises NoJoinError unless p is a join semilattice.
    """
    for lo, hi in (source, target):
        if not p.is_cover(lo, hi):
            raise NotPrimeIntervalError(f"[{lo}, {hi}] is not a prime interval of {p.name!r}")
    (a, b), (c, d) = map(p.index, source), map(p.index, target)
    J = sl._joins(p)
    xs = np.arange(len(p))
    # Row x, column y: every condition, evaluated on every pair.
    mask = (((J[a] == xs) & (J[c] == xs))[:, None] & (J[b][:, None] == xs)
            & (J[d][:, None] == xs) & (xs[:, None] != xs))
    if not mask.any():
        return None
    x, y = divmod(int(mask.argmax()), len(p))
    return p.elements[x], p.elements[y]


def projectivity_relation(p: Poset, chain_a, chain_b,
                          cache: dict | None = None) -> ProjectivityRelation:
    """Relation matrix between the prime intervals of two equal-length chains.

    `cache` may be shared across calls on the same poset: cells depend only on
    the two intervals, so chain pairs with common steps reuse the searches.
    """
    C = tuple(chain_a)
    D = tuple(chain_b)
    if len(C) != len(D):
        raise ChainLengthMismatchError(
            f"chains of lengths {len(C) - 1} and {len(D) - 1}")
    n = len(C) - 1
    related = []
    witnesses = []
    for i in range(1, n + 1):
        src = (C[i - 1], C[i])
        rel_row = []
        wit_row = []
        for j in range(1, n + 1):
            tgt = (D[j - 1], D[j])
            if cache is not None and (src, tgt) in cache:
                w = cache[(src, tgt)]
            else:
                w = interval_updown_witness(p, src, tgt)
                if cache is not None:
                    cache[(src, tgt)] = w
            rel_row.append(w is not None)
            wit_row.append(w)
        related.append(tuple(rel_row))
        witnesses.append(tuple(wit_row))
    return ProjectivityRelation(n, tuple(related), tuple(witnesses))


def all_consistent_permutations(rel: ProjectivityRelation) -> list[tuple[int, ...]]:
    """Every permutation pi with related[i][pi(i)] for all i, by backtracking.

    Guarded at n <= 8; the result is sorted lexicographically.
    """
    n = rel.n
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(f"permutation enumeration is limited to n <= {ENUMERATION_LIMIT}")
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    used = [False] * (n + 1)

    def backtrack(i: int) -> None:
        if i > n:
            out.append(tuple(chosen))
            return
        for j in range(1, n + 1):
            if not used[j] and rel.related[i - 1][j - 1]:
                used[j] = True
                chosen.append(j)
                backtrack(i + 1)
                chosen.pop()
                used[j] = False

    backtrack(1)
    return out


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
    C = tuple(chain_a)
    D = tuple(chain_b)
    entries: list[CheckEntry] = []

    pre_ok, pre_msg = True, "semimodular join semilattice; both chains maximal"
    ok, pair = sl.is_join_semilattice(p)
    if not ok:
        pre_ok, pre_msg = False, f"not a join semilattice: no join for {pair}"
    else:
        report = sl.is_semimodular(p)
        if not report.holds:
            pre_ok, pre_msg = False, f"not semimodular: counterexample {report.counterexample}"
        elif p.bottom() is None or p.top() is None:
            pre_ok, pre_msg = False, "missing bottom or top"
        else:
            for label, ch in (("first", C), ("second", D)):
                if not sl.is_maximal_chain(p, ch):
                    pre_ok, pre_msg = False, f"{label} chain is not maximal"
                    break
    entries.append(CheckEntry("preconditions", pre_ok, pre_msg))

    lengths_equal = len(C) == len(D)
    entries.append(CheckEntry(
        "equal-length", lengths_equal,
        f"lengths {len(C) - 1} and {len(D) - 1}"))

    if not (pre_ok and lengths_equal):
        skipped = "not evaluated (preconditions failed)"
        entries.append(CheckEntry("unique-permutation", False, skipped))
        entries.append(CheckEntry("maximality", False, skipped))
        return TheoremReport(tuple(entries))

    if len(C) - 1 > COUNTING_LIMIT:
        raise SizeLimitError(f"permutation counting is limited to n <= {COUNTING_LIMIT}")
    rel = projectivity_relation(p, C, D, cache=cache)
    result = jh_match(p, p.chain(C), p.chain(D))
    n = rel.n

    count = count_consistent_permutations(rel)
    consistent = all(rel.related[i - 1][result.pi[i - 1] - 1] for i in range(1, n + 1))
    entries.append(CheckEntry(
        "unique-permutation", count == 1 and consistent,
        f"matching count {count}; computed permutation consistent: {consistent}"))

    violations = [(i, j)
                  for i in range(1, n + 1)
                  for j in range(1, n + 1)
                  if rel.related[i - 1][j - 1] and j > result.pi[i - 1]]
    entries.append(CheckEntry(
        "maximality", not violations,
        "every related j satisfies j <= pi(i)" if not violations
        else f"violated at (i, j) pairs {violations}"))
    return TheoremReport(tuple(entries))
