"""Brute-force ground truth for the chain-matching theorem.

Everything here is deliberately dumb: witness existence for a relation cell
is decided by one exhaustive mask over all element pairs (x, y), read off
the join table, and uniqueness of the matching permutation by counting the
consistent permutations of the relation matrix.  `check_pairs` checks a
whole pair set in one pass: the preconditions once, each distinct chain
once, and every cell the pairs need in one batch of masks, evaluated in
blocks.  Cells are cached on the poset, which holds one table of them for
every caller.  The oracle reads only the `Poset` and its join table: it calls
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


def _witnesses(p: Poset, cells: list[tuple[int, int, int, int]]) -> list:
    """The witness of each index cell (a, b, c, d) of two prime intervals
    [a, b] and [c, d]: the lexicographically first of all |p|^2 pairs (x, y)
    with x != y, a∨x = c∨x = x and b∨x = d∨x = y, as names, or None.

    This is the one gate to p's cell table: cells already in it are read,
    the others are checked to be prime steps, in the order given, evaluated
    once in blocks of about _MASK_BLOCK mask entries over the join table,
    and added to it.  Raises NoJoinError unless p is a join semilattice.
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
        names, size = p.elements, len(p)
        xs = np.arange(size)
        step = max(1, _MASK_BLOCK // size ** 2)
        for start in range(0, len(missing), step):
            a, b, c, d = todo[start:start + step].T
            # Cell k, row x, column y: every condition, evaluated on every pair.
            mask = J[b][:, :, None] == xs
            mask &= J[d][:, :, None] == xs
            mask &= ((J[a] == xs) & (J[c] == xs))[:, :, None]
            mask &= xs[:, None] != xs
            mask = mask.reshape(len(a), -1)
            first = mask.argmax(axis=1)
            found = mask[np.arange(len(a)), first]
            for cell, f, hit in zip(missing[start:start + step], first.tolist(), found.tolist()):
                table[cell] = (names[f // size], names[f % size]) if hit else None
    return list(map(table.__getitem__, cells))


def interval_updown_witness(p: Poset, source, target) -> tuple[str, str] | None:
    """The lexicographically first of all |p|^2 pairs (x, y) with x != y,
    a∨x = c∨x = x and b∨x = d∨x = y, for the prime intervals
    source = [a, b] and target = [c, d].

    Raises NoJoinError unless p is a join semilattice.
    """
    return _witnesses(p, [(*map(p.index, source), *map(p.index, target))])[0]


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
    n = len(C) - 1
    c, d = list(map(p.index, C)), list(map(p.index, D))
    witnesses = _witnesses(p, [(a, b, e, f) for a, b in zip(c, c[1:]) for e, f in zip(d, d[1:])])

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


def check_pairs(p: Poset, pairs) -> list[TheoremReport]:
    """`check_theorem` on every chain pair, in order, in one pass.

    The poset preconditions are checked once, and each distinct chain is
    checked for maximality and indexed once.  Every relation cell that the
    evaluable pairs (preconditions met, equal lengths) need is then
    evaluated in one batch, so each pair reads its relation off p's cells.
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
    chains: dict[tuple[str, ...], tuple[Chain, list[int]]] = {}
    partners: dict[tuple[str, ...], dict] = {}
    for _, C, D in evaluable:
        for ch in (C, D):
            if ch not in chains:
                chains[ch] = p.chain(ch), list(map(p.index, ch))
        d = chains[D][1]
        partners.setdefault(C, {}).update(dict.fromkeys(zip(d, d[1:])))
    needed = []
    for C, steps in partners.items():
        c = chains[C][1]
        needed += [(a, b, e, f) for a, b in zip(c, c[1:]) for e, f in steps]
    _witnesses(p, needed)

    for out, C, D in evaluable:
        rel = projectivity_relation(p, C, D)
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
