"""Brute-force ground truth for the chain-matching theorem.

Everything here is deliberately dumb: witness existence for a relation cell
is decided by one exhaustive scan over every element x, read off the order
and the join table, and uniqueness of the matching permutation by a
certificate: a consistent permutation is one perfect matching of the
relation, which has a second one exactly when its rows can pass their
columns round a cycle (an alternating cycle; Lovász and Plummer, *Matching
Theory*, 1986).  The scan
needs no y: a witness (x, y) for [a, b] -> [c, d] has b∨x = y, so each x
admits exactly one candidate y, and testing every x with that y tests every
pair (x, y).  Cells are index rows in and witness x's out; names appear only
in the witnesses of `interval_updown_witness` and `projectivity_relation`.
Two entries read their pairs and decide the preconditions, each row's
maximality and the work charge once per call: `check_index_pairs` on an
array of index chains and two arrays of row ids, `check_pairs` on chains of
names, one length group at a time; `check_theorem` checks one pair through
`check_pairs`.  Both hand their evaluable pairs to one core, `_evaluate`:
every distinct cell the pairs need in one batch of scans, evaluated in
blocks, and the relations and verdicts of all pairs as array work on the
step ids of their chains.  Uniqueness is read off maximality wherever it
can be: a consistent permutation with no maximality violation (the
maximality of pi; Czédli and Schmidt, Algebra Universalis 66, 2011) has no
alternating cycle, so only the pairs with a violation are searched for one.
Nothing is cached: each call evaluates its own cells.
The oracle reads only the `Poset`, its order and its join table: it calls
neither the projectivity predicates nor the matcher's internals, so an
agreement between the two is meaningful evidence.  The library functions
it calls read definitions: `semilattice._table` and `_joins` (each pair's
rank-least common upper bound, kept when its up-set is all of theirs)
decide the joins on every pair, and `semilattice._counterexample` the
covering law on every (cover, element) entry of that table, neither by a
local lemma; `_maximal_rows` reads bottom to top by covers, and
`_check_indices` and `_is_int_array` read shapes;
`match_index_chains` gives only the pi that is checked against the
relation; `is_join_semilattice` and `is_semimodular` only decide whether
`_charge_maximal_pairs` refuses a run early.  Reading uniqueness off
maximality is the oracle's own lemma, proved at `_evaluate` and tested
both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ChainLengthMismatchError, NotPrimeIntervalError, PreconditionError,
                     SizeLimitError)
from .matching import match_index_chains
from .poset import Poset, _poset, _sequence
from . import semilattice as sl

# Oracle work: n^2 relation cells of |p| scan steps each, summed over the evaluable
# pairs.  On a shared 2-vCPU machine `semilat verify` takes 0.75-0.9 s on
# chain_product([660]) (2.9 * 10^8) and 1.5-1.65 s on Pi6 with --samples 50000
# (2.5 * 10^8, 106 MiB peak), in a subprocess.
WORK_LIMIT = 300_000_000


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


def _witnesses(p: Poset, cells) -> np.ndarray:
    """For each index row (a, b, c, d) of two prime intervals [a, b] and
    [c, d], the x of the lexicographically first of all |p|^2 pairs (x, y)
    with x != y, a∨x = c∨x = x and b∨x = d∨x = y, or -1; its y is b∨x.

    For a given x, b∨x = y leaves one candidate, y = b∨x, so every x is
    tested with it: a∨x = c∨x = x, b∨x != x and d∨x = b∨x.  That covers
    every pair (x, y), and the first x that passes gives the first pair.
    The first three read the order, since a∨x = x exactly when a <= x: one
    boolean gather each, half the time of comparing join-table rows (Pi6,
    81,367 cells: 38-42 ms against 81-89 ms).

    The rows are checked to be prime steps, in the order given, then
    evaluated in blocks of about sl._BLOCK (cell, x) entries over the order
    and the join table.  Raises NoJoinError unless p is a join semilattice.
    """
    cells = np.asarray(cells, dtype=np.intp).reshape(-1, 4)
    intervals = cells.reshape(-1, 2)
    bad = np.flatnonzero(~p._covers.ravel().take(intervals[:, 0] * len(p) + intervals[:, 1]))
    if len(bad):
        lo, hi = (p.elements[i] for i in intervals[bad[0]])
        raise NotPrimeIntervalError(f"[{lo}, {hi}] is not a prime interval of {p.name!r}")
    found = np.full(len(cells), -1, dtype=np.intp)
    if not len(cells):
        return found
    J, leq = sl._joins(p), p._leq
    step = max(1, sl._BLOCK // len(p))
    for start in range(0, len(cells), step):
        a, b, c, d = cells[start:start + step].T
        # Cell k, column x: every condition, with y = b∨x forced.  Rows are
        # gathered by `take`: on B4's 1,024 cells, 2.2 us a gather against
        # 12.9 us by fancy indexing (in-process, shared 2-vCPU machine).
        mask = leq.take(a, axis=0)
        mask &= leq.take(c, axis=0)
        mask &= ~leq.take(b, axis=0)
        mask &= J.take(d, axis=0) == J.take(b, axis=0)
        first = mask.argmax(axis=1)
        hit = mask.ravel().take(np.arange(0, mask.size, len(p)) + first)
        found[start:start + step] = np.where(hit, first, -1)
    return found


def _named(p: Poset, b, x) -> list:
    """The witnesses (x, b∨x) of cells whose first steps end in b, as
    names, or None where x is -1."""
    names = p.elements
    y = sl._table(p)[0][b, x]
    return [(names[i], names[j]) if i >= 0 else None for i, j in zip(x.tolist(), y.tolist())]


def interval_updown_witness(p: Poset, source, target) -> tuple[str, str] | None:
    """The lexicographically first of all |p|^2 pairs (x, y) with x != y,
    a∨x = c∨x = x and b∨x = d∨x = y, for the prime intervals
    source = [a, b] and target = [c, d], or None.

    Found by the scan over x with y = b∨x forced, which is exhaustive: no
    other y can satisfy b∨x = y.  Raises what `Poset._pairs` raises for source
    and target, then NotPrimeIntervalError for the first of them that is not
    a prime interval, and NoJoinError unless p is a join semilattice.
    """
    cell = np.array(_poset(p)._pairs("source and target", source, target), dtype=np.intp).ravel()
    return _named(p, cell[1:2], _witnesses(p, cell))[0]


def projectivity_relation(p: Poset, chain_a, chain_b) -> ProjectivityRelation:
    """Relation matrix between the prime intervals of two equal-length chains."""
    C, D = _poset(p)._row(chain_a), p._row(chain_b)
    if len(C) != len(D):
        raise ChainLengthMismatchError(f"chains of lengths {len(C) - 1} and {len(D) - 1}")
    c, d = (list(zip(row, row[1:])) for row in (C, D))
    cells = np.array([(*s, *t) for s in c for t in d], dtype=np.intp).reshape(-1, 4)
    found = iter(_named(p, cells[:, 1], _witnesses(p, cells)))
    rows = tuple(tuple(next(found) for _ in d) for _ in c)
    related = tuple(tuple(w is not None for w in row) for row in rows)
    return ProjectivityRelation(len(c), related, rows)


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

    @cached_property
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
    """Why p is not a semimodular join semilattice with bounds, or None.
    Joins are decided on every pair, by the full join table, and the covering
    law on every (cover, element) entry of that table."""
    first_bad = sl._table(p)[1]
    if first_bad is not None:
        return f"not a join semilattice: no join for {tuple(p.elements[i] for i in first_bad)}"
    triple = sl._counterexample(p)
    if triple is not None:
        return f"not semimodular: counterexample {triple}"
    if p.bottom() is None or p.top() is None:
        return "missing bottom or top"
    return None


_SKIPPED = "not evaluated (preconditions failed)"


def _report(pre: str | None, n: int, m: int, count: str | None = None,
            consistent: bool = False, violations: tuple = ()) -> TheoremReport:
    """The report on a pair of chains of n and m steps whose preconditions
    fail with the message pre, or hold (pre is None).  count is None unless
    the pair was evaluated; then it is its matching count, "1", "at least 2"
    or "not decided", and violations are its (i, j) maximality violations."""
    entries = (CheckEntry("preconditions", pre is None,
                          pre or "semimodular join semilattice; both chains maximal"),
               CheckEntry("equal-length", n == m, f"lengths {n} and {m}"))
    if count is None:
        return TheoremReport(entries + (CheckEntry("unique-permutation", False, _SKIPPED),
                                        CheckEntry("maximality", False, _SKIPPED)))
    return TheoremReport(entries + (
        CheckEntry("unique-permutation", count == "1",
                   f"matching count {count}; computed permutation consistent: {consistent}"),
        CheckEntry("maximality", not violations,
                   f"violated at (i, j) pairs {list(violations)}" if violations
                   else "every related j satisfies j <= pi(i)")))


def check_pairs(p: Poset, pairs) -> list[TheoremReport]:
    """`check_theorem` on every chain pair, in order: the oracle's entry by
    name.

    The poset preconditions are checked once.  Each distinct chain is read
    into an index row and checked for maximality once, when a pair first
    needs it: a second chain only after a maximal first one.  The evaluable
    pairs (preconditions met, equal lengths) cost n^2 cells of |p| scan steps
    each; the first pair past WORK_LIMIT in all raises SizeLimitError, before
    any cell is computed.  The evaluable pairs of each length then go to
    `_evaluate` as the index rows of their distinct chains and two arrays of
    row ids, one call per length.  Pairs with equal outcomes share one
    frozen report.
    """
    pairs = _sequence(pairs, PreconditionError, "pairs must be iterable, got {}",
                      type(pairs).__name__)
    poset_failure = _poset_preconditions(p)
    rows: dict[tuple[str, ...], list[int] | None] = {}   # chain -> its index row if maximal
    # Each pair's outcome, as the arguments of its `_report`, or None if it is
    # evaluable; those of n steps are by_length[n], as (position, chain, chain).
    outcomes: list[tuple | None] = []
    by_length: dict[int, list[tuple[int, tuple, tuple]]] = {}
    work, size = 0, len(p)
    for k, pair in enumerate(pairs):
        try:
            C, D = map(tuple, pair)
            n, m = max(len(C) - 1, 0), max(len(D) - 1, 0)
            pre = poset_failure
            for label, chain in (("first", C), ("second", D)):
                if pre is None and chain not in rows:   # TypeError for an unhashable name
                    row = list(map(p.index, chain))
                    rows[chain] = row if sl._maximal_rows(p, [row])[0] else None
                if pre is None and rows[chain] is None:
                    pre = f"{label} chain is not maximal"
        except (TypeError, ValueError):
            raise PreconditionError(f"pair {k} is not two chains") from None
        evaluable = pre is None and n == m
        if evaluable:
            work = _charge(work, n * n * size, [k])
            by_length.setdefault(n, []).append((k, C, D))
        outcomes.append(None if evaluable else (pre, n, m))
    reports = {outcome: _report(*outcome) for outcome in set(outcomes) - {None}}
    out = [reports.get(outcome) for outcome in outcomes]
    for group in by_length.values():
        ks, C, D = zip(*group)
        ids: dict[tuple[str, ...], int] = {}   # chain -> its row of X
        first, second = ([ids.setdefault(chain, len(ids)) for chain in side] for side in (C, D))
        X = np.array([rows[chain] for chain in ids], dtype=np.intp)
        maximal = np.ones(len(X), dtype=bool)
        for k, report in zip(ks, _evaluate(p, X, maximal, np.array(first), np.array(second))):
            out[k] = report
    return out


def _charge(work: int, cost: int, at) -> int:
    """`work` plus one pair of `cost` scan steps at each position in `at`, in
    order; SizeLimitError names the first of them past WORK_LIMIT."""
    if work + len(at) * cost > WORK_LIMIT:
        raise SizeLimitError(f"the oracle is limited to <= {WORK_LIMIT} cell scan steps "
                             f"(n^2 * |p| summed over the pairs), exceeded at pair "
                             f"{at[(WORK_LIMIT - work) // cost]}")
    return work + len(at) * cost


def _charge_maximal_pairs(p: Poset, pairs: int) -> None:
    """Refuse `pairs` pairs of maximal chains of p before they are drawn, at the pair
    `check_pairs` would refuse: when the local tests (no join table) find the preconditions
    met, every maximal chain has p's height (Jordan-Dedekind), so each pair costs the same."""
    if (sl.is_join_semilattice(p)[0] and sl.is_semimodular(p).holds
            and p.bottom() is not None and p.top() is not None):
        _charge(0, p.height() ** 2 * len(p), range(pairs))


def _check_pair_ids(X, first, second) -> None:
    """PreconditionError unless X is an integer 2-D array of width >= 1, and
    first and second integer 1-D arrays of one length whose entries are row
    ids of X; the first bad pair is named."""
    if not (sl._is_int_array(X, 2) and X.shape[1]):
        raise PreconditionError("X must be an integer array of shape (R, n+1), n >= 0")
    if not (all(sl._is_int_array(k, 1) for k in (first, second)) and first.shape == second.shape):
        raise PreconditionError("first and second must be integer arrays of one shape (P,)")
    outside = (first < 0) | (first >= len(X)) | (second < 0) | (second >= len(X))
    if outside.any():
        raise PreconditionError(f"pair {int(outside.argmax())} names a row outside "
                                f"0..{len(X) - 1} of X")


# The unique-permutation verdicts of evaluated pairs, by code: pi outside the
# relation, pi inside it with no alternating cycle, and with one.
_COUNTS = ("not decided", "1", "at least 2")


def check_index_pairs(p: Poset, X, first, second) -> list[TheoremReport]:
    """`check_theorem` on the P pairs (row first[k] of X, row second[k] of X)
    of the integer array X of index chains, shape (R, n+1), in one pass: the
    oracle's entry by index.  Rows may repeat, and a row may serve many pairs.

    p must be a Poset; X an integer 2-D array, n >= 0, and first and second
    integer 1-D arrays of one length, of row ids of X (else
    PreconditionError); X must hold indices of p (else UnknownElementError
    for its first row outside).  Whether p is a semimodular join semilattice
    with bounds and whether each row is maximal are reported, not raised;
    each row is tested once.  The evaluable pairs (both chains maximal) cost
    n^2 cells of |p| scan steps each; past WORK_LIMIT in all, SizeLimitError
    names the first pair past it before any cell is computed.  The evaluable
    pairs then go to `_evaluate`.  Pairs with equal outcomes share one frozen
    report; only a pair with maximality violations has its own.
    """
    size = len(_poset(p))
    _check_pair_ids(X, first, second)
    sl._check_indices(p, X, "chain")
    P, n = len(first), X.shape[1] - 1
    pre = _poset_preconditions(p)
    if pre is not None:
        return [_report(pre, n, n)] * P
    X = X.astype(np.intp, copy=False)
    maximal = sl._maximal_rows(p, X)
    a, b = maximal[first], maximal[second]
    ev = np.flatnonzero(a & b)   # the evaluable pairs
    _charge(0, n * n * size, ev)
    evaluated = _evaluate(p, X, maximal, first[ev], second[ev])
    if len(ev) == P:
        return evaluated
    # By a: the first chain is not maximal, or else the second.
    reports = np.array([_report(f"{label} chain is not maximal", n, n)
                        for label in ("first", "second")], dtype=object).take(a)
    reports[ev] = evaluated
    return reports.tolist()


def _evaluate(p: Poset, X, maximal, fe, se) -> list[TheoremReport]:
    """The reports on the pairs (row fe[e] of X, row se[e] of X) of maximal
    index chains of n steps, the rows of X that `maximal` marks, on a
    semimodular join semilattice p with bounds: the one evaluation of pairs.

    Each pair is decided as arrays on the step ids of its chains: every
    relation cell the pairs need is evaluated in one batch into a
    step-by-step hit matrix, each pair's relation R is read from it, and the
    computed permutations come from one `match_index_chains` call.  Each pi
    is checked, not trusted: pi outside the relation is "not decided"; pi
    inside it is a perfect matching, and the relation has a second one
    exactly when rows can pass their columns round an alternating cycle ("at
    least 2"; else "1").  Maximality decides that cycle for most pairs: if no
    related j of any row i exceeds pi(i), a hand-on i -> l (i related to
    pi(l), l != i) has pi(l) <= pi(i), so pi(l) < pi(i), as pi is one to one;
    pi falls strictly along every hand-on, so no hand-ons close a cycle and
    the count is 1.  Only a consistent pair with a maximality violation is
    peeled for a cycle.
    """
    size, n = len(p), X.shape[1] - 1
    # The steps of the maximal rows, numbered: step s ends at ends[s].  The
    # pairs run along the last axis: cs[i, e] is the id of step i of pair e's
    # first chain, ds[j, e] that of step j of its second, and cells[i, j, e]
    # the position of their cell in the flat L x L matrix H.
    steps = X[:, :-1] * size + X[:, 1:]
    kept = steps[maximal]
    ends, ids = np.unique(kept, return_inverse=True)
    steps[maximal] = ids.reshape(kept.shape)
    cs, ds = steps.T.take(fe, axis=1), steps.T.take(se, axis=1)
    L, E = len(ends), len(fe)
    cells = (cs * L)[:, None] + ds

    # Every cell the pairs need, in one batch: H[s * L + t] is whether step
    # s has an up-and-down witness onto step t.
    H = np.zeros(L * L, dtype=bool)
    H[cells] = True
    hit = np.flatnonzero(H)
    (u, v), (lo, hi) = np.divmod(hit, L), np.divmod(ends, size)
    H[hit] = _witnesses(p, np.stack([lo.take(u), hi.take(u), lo.take(v), hi.take(v)], axis=1)) >= 0

    R = H.take(cells)   # R[i, j, e]: step i of pair e's first chain onto step j of its second
    pi = match_index_chains(p, X.take(fe, axis=0), X.take(se, axis=0))[0]
    # pi is consistent when it is a permutation and each R[i, pi(i) - 1, e]
    # holds; a pi outside 1..n is read clipped, and is no permutation.
    rows = np.arange(n)[:, None]
    inside = R.take((rows * n + pi.T - 1) * E + np.arange(E), mode="clip").all(axis=0)
    consistent = inside & (np.sort(pi.T, axis=0) == rows + 1).all(axis=0)
    late = R & (np.arange(1, n + 1)[:, None] > pi.T[:, None])   # j > pi(i), 1-indexed
    violated = late.reshape(n * n, E).any(axis=0)
    code = consistent.astype(np.intp)   # the verdict _COUNTS[code]
    # The consistent pairs with violations: a second matching exists exactly
    # when hand-ons close a cycle, that is, when rows survive peeling each
    # row with no live successor.  A[e, i, l]: i is related to pi(l), l != i.
    peel = np.flatnonzero(consistent & violated)
    A = R[rows, pi[peel, None, :] - 1, peel[:, None, None]]
    A[:, np.arange(n), np.arange(n)] = False
    live = np.ones((len(peel), n), dtype=bool)
    while (peeled := live & ~(A & live[:, None, :]).any(axis=2)).any():
        live &= ~peeled
    code[peel] += live.any(axis=1)
    codes = code.tolist()
    # Each verdict's outcome, as the arguments of its `_report`.
    outcomes = [(None, n, n, count, count != _COUNTS[0]) for count in _COUNTS]
    shared = {c: _report(*outcomes[c]) for c in set(codes)}
    reports = list(map(shared.__getitem__, codes))

    found: dict[tuple, TheoremReport] = {}
    for e in np.flatnonzero(violated).tolist():
        outcome = (*outcomes[codes[e]],
                   tuple(map(tuple, (np.argwhere(late[:, :, e]) + 1).tolist())))
        reports[e] = found.setdefault(outcome, _report(*outcome))
    return reports


def check_theorem(p: Poset, chain_a, chain_b) -> TheoremReport:
    """Verify all three claims for one chain pair against the brute-force
    relation: equal lengths, a unique consistent permutation equal to the
    constructive one, and maximality of that permutation.

    Precondition problems (non-semimodular poset, missing bounds, non-maximal
    chains) are reported as entries instead of raised, so negative controls
    produce evidence rather than crashes.  A pair past WORK_LIMIT raises
    SizeLimitError before any relation cell is computed.
    """
    return check_pairs(p, [(chain_a, chain_b)])[0]
