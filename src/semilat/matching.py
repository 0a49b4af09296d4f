"""Constructive matching of prime intervals between two maximal chains.

Given a semimodular join semilattice with bottom and top and two maximal
chains C = (c_0, ..., c_n) and D = (d_0, ..., d_n), `jh_match` computes the
unique permutation pi with [c_{i-1}, c_i] up-and-down projective to
[d_{pi(i)-1}, d_{pi(i)}] and a witness per index, both read off the join
matrix M[i][j] = c_i ∨ d_j (Grätzer and Nation): pi(i) is the least j with
c_i ≤ c_{i-1} ∨ d_j, the first column where row i equals row i-1, and the
witness is the step [M[i-1][j-1], M[i-1][j]] of row i-1.  No witness search
happens anywhere: M is checked by one rank law on the heights of its entries,
h(c_i ∨ d_j) = j + #{k <= i : pi(k) > j}, and every witness is re-verified by
index against both of its intervals.  The bottom is needed: a < c < t, b < t
is a semimodular join semilattice whose maximal chains have lengths 2 and 1.
So is semimodularity with equal lengths: in the hexagon 0 < a < b < 1,
0 < c < d < 1, the step [a, b] projects onto no step of (0, c, d, 1).

There is one matcher, `_match`, on a batch of index chain pairs whose join
matrices are one numpy array, and one way into it, `match_index_chains`, which
checks the poset and the index rows.  `jh_match` reads its two chains of names
into index rows by `Poset._row` and hands them to it, then adds `--trace`
frames and a name-level re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import ne

import numpy as np

from . import semilattice as sl
from .errors import InternalInvariantError, NotSemimodularError, PreconditionError
from .poset import Poset, _poset
from .projectivity import prime_up_projective

_STEP = np.array([-1, 0])   # a step [k-1, k] as offsets from k


@dataclass(frozen=True)
class RecursionFrame:
    """Level k of the induction on height, read off the join matrix M: c_k..c_n
    against row k of M with its repeats removed.  `lifted_chain` is row k+1 so
    reduced, a maximal chain above c_{k+1}; `l` is the 0-indexed step of row k
    that collapses in row k+1; `sigma` is the permutation the levels above
    compose, in this level's step numbering: pairs (i, sigma(i)), i = 2..n-k.
    """

    level: int
    l: int
    lifted_chain: tuple[str, ...]
    sigma: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "l": self.l,
            "lifted_chain": list(self.lifted_chain),
            "sigma": [list(pair) for pair in self.sigma],
        }


@dataclass(frozen=True)
class MatchingResult:
    """Permutation and witnesses matching the prime intervals of two chains.

    `pi` is 1-indexed to follow the usual numbering of chain steps:
    pi[i-1] == j means interval i of the first chain, [c_{i-1}, c_i], maps to
    interval j of the second, [d_{j-1}, d_j].  `witnesses[i-1]` is the middle
    interval certifying that up-and-down projectivity.
    """

    n: int
    pi: tuple[int, ...]
    witnesses: tuple[tuple[str, str], ...]
    trace: tuple[RecursionFrame, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pi": list(self.pi),
            "witnesses": [list(w) for w in self.witnesses],
            "trace": None if self.trace is None else [f.to_dict() for f in self.trace],
        }


@dataclass(frozen=True)
class MatchingCheck:
    """Outcome of re-verifying a MatchingResult; empty failures means valid."""

    ok: bool
    failures: tuple[str, ...]


def _match(p: Poset, C: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pi and the witnesses by index, shapes (P, n) and (P, n, 2), for the
    P pairs of maximal index chains of equal length n in the rows of C and
    D, shape (P, n+1), of a validated poset, so no join sentinel is read.
    The pairs are matched in blocks of about sl._BLOCK join-matrix entries,
    each join read through `sl._join_of`, which builds the join table only
    when that is cheaper than the batch's P (n+1)^2 join-matrix reads; the
    reads of M and of the order are flat `np.take` gathers.

    M is checked by one rank law: row 0 is d; row i starts at c_i, rises in
    the order from row i-1 and along itself, and has the heights
    h(c_i ∨ d_j) = j + #{k <= i : pi(k) > j} of the slim lattice of pi
    (Czédli and Schmidt), so its steps are covers or repeats and pi is a
    permutation.  The law is checked row by row, as
    h(c_i ∨ d_j) - h(c_{i-1} ∨ d_j) = [pi(i) > j]: the two forms agree on
    every row up to the first that breaks either, because row 0 is d and
    h(d_j) = j on a maximal chain of a graded poset, which a semimodular
    join semilattice with a bottom is.  The first (pair, row) failing a
    check or its witness raises InternalInvariantError, the checks of a row
    in the order listed below."""
    leq, h = p._leq.ravel(), p._view()[2]
    P, m = C.shape
    n, size = m - 1, len(p)
    pi = np.empty((P, n), dtype=np.intp)
    W = np.empty((P, n, 2), dtype=np.intp)
    cols = np.arange(m)[:, None]
    steps = np.arange(1, m)[:, None] + _STEP   # the steps of a chain, as (i-1, i)
    block = max(1, sl._BLOCK // (m * m))   # pairs
    for start in range(0, P, block):
        # The pairs run along the last axis, so every operation runs along
        # them: c[i, k] is c_i of pair k, and M[i, j, k] = c_i ∨ d_j.
        c, d = C[start:start + block].T, D[start:start + block].T
        B = c.shape[1]
        M = sl._join_of(p, c[:, None], d, reads=P * m * m)
        prev, row = M[:-1], M[1:]   # rows i-1 and i, for i = 1..n
        # pi(i), the least j with c_i <= c_{i-1} ∨ d_j, counted as the columns
        # before n where rows i and i-1 differ: a row that rises from row i-1
        # and keeps the rank law equals it exactly from column pi(i) on, and
        # one that does not fails the checks below for every j <= n.
        j = (row[:, :-1] != prev[:, :-1]).sum(axis=1)
        # The witness (x, y), entries j-1 and j of row i-1, and the steps it
        # meets, [c_{i-1}, c_i] and [d_{j-1}, d_j]; j = 0 reads one entry
        # early, but breaks the law first.
        at = (j[:, None] + _STEP[:, None]) * B + np.arange(B)   # d_{j-1} and d_j in the flat d
        xy = M.take(at + np.arange(0, n * m * B, m * B)[:, None, None])
        ab = c.take(steps, axis=0)
        ef = d.take(at)
        hM = h.take(M)
        first_row = M[0] != d   # c_0 is the bottom
        # For each check of row i, in order, the masks whose set entries fail
        # it, of shape (n, ..., B).
        checks = (
            # Row i starts at c_i and rises from row i-1 and along itself.
            (row[:, 0] != c[1:], ~leq.take(prev * size + row),
             ~leq.take(row[:, :-1] * size + row[:, 1:])),
            # The rank law, row by row: h(c_i ∨ d_j) - h(c_{i-1} ∨ d_j) = [pi(i) > j].
            (hM[1:] - hM[:-1] != (j[:, None] > cols),),
            # The witness (x, y) against both intervals: a∨x = e∨x = x, b∨x = f∨x = y.
            (xy[:, 0] == xy[:, 1],
             sl._join_of(p, np.stack([ab, ef], axis=1), xy[:, None, :1]) != xy[:, None]),
        )
        if np.count_nonzero(first_row) or any(map(np.count_nonzero, sum(checks, ()))):
            # The first failing (pair, row), row 0 first, and the first check it fails.
            fails = np.array([np.logical_or.reduce([mask.any(axis=tuple(range(1, mask.ndim - 1)))
                                                    for mask in masks]) for masks in checks])
            table = np.vstack([first_row.any(axis=0), fails.any(axis=0)])   # (m, B)
            k, i = divmod(int(table.T.argmax()), m)
            if i == 0:
                raise InternalInvariantError("row 0 of the join matrix is not the second chain")
            check, names = int(fails[:, i - 1, k].argmax()), p.elements
            if check == 0:
                raise InternalInvariantError(f"row {i} does not rise from c_{i} in the order")
            if check == 1:
                raise InternalInvariantError(f"row {i} breaks the rank law")
            (xn, yn), (an, bn), (en, fn) = ((names[v] for v in t[i - 1, :, k]) for t in (xy, ab, ef))
            raise InternalInvariantError(f"index {i}: witness ({xn}, {yn}) fails on "
                                         f"[{an}, {bn}] or [{en}, {fn}]")
        pi[start:start + block] = j.T
        W[start:start + block] = xy.transpose(2, 0, 1)
    return pi, W


def _frames(p: Poset, c: np.ndarray, d: np.ndarray, pi: tuple) -> tuple[RecursionFrame, ...]:
    """The `--trace` frames of one matched pair of index chains, read off
    its join matrix."""
    M = sl._join_of(p, c[:, None], d[None, :]).tolist()
    names = p.elements
    frames = []
    for k in range(len(c) - 2):
        # The steps of row k, repeats removed, numbered by the column they end at.
        step = list(accumulate(map(ne, M[k], M[k][1:]), initial=0))
        image = [step[j] for j in pi[k:]]
        frames.append(RecursionFrame(k, image[0] - 1, tuple(names[e] for e, _ in groupby(M[k + 1])),
                                     tuple(enumerate(image[1:], start=2))))
    return tuple(frames)


def match_index_chains(p: Poset, C, D) -> tuple[np.ndarray, np.ndarray]:
    """pi, 1-indexed, and the witnesses by index, shapes (P, n) and (P, n, 2),
    for the P pairs (row k of C, row k of D) of the integer arrays C and D of
    index chains, shape (P, n+1).

    The one check of the matcher's input, in this order: p is a semimodular
    join semilattice with bottom and top; C and D are integer 2-D arrays of
    width >= 1; each row of C, then of D, holds element indices (else
    UnknownElementError) and runs from the bottom to the top by covers (else
    NotMaximalChainError for the first such row); C and D have one shape.
    """
    report = sl.is_semimodular(p)   # raises NotJoinSemilatticeError first
    if not report.holds:
        raise NotSemimodularError(report.counterexample)
    sl._require_bounds(p)
    sl._check_index_arrays(C, D, same_shape=False)
    sl._check_rows(p, C, "first chain")
    sl._check_rows(p, D, "second chain")
    sl._check_index_arrays(C, D)
    return _match(p, C, D)


def jh_match(p: Poset, chain_a, chain_b, keep_trace: bool = False) -> MatchingResult:
    """Match the prime intervals of two maximal chains of p.

    Reads both chains of names into index rows by `Poset._row` (the first,
    then the second), hands them to `match_index_chains`, which checks p and
    the rows, and so reads the matching off their join matrix.  The result
    is re-verified with `verify_matching` before returning: pi is a
    permutation and every witness satisfies the up-projectivity checks
    against both chains, read by name.
    """
    C, D = (np.array([_poset(p)._row(ch)], dtype=np.intp) for ch in (chain_a, chain_b))
    pi, W = match_index_chains(p, C, D)
    pi, names = tuple(pi[0].tolist()), p.elements
    result = MatchingResult(len(pi), pi, tuple((names[x], names[y]) for x, y in W[0].tolist()),
                            _frames(p, C[0], D[0], pi) if keep_trace else None)
    check = verify_matching(p, *([names[i] for i in X[0].tolist()] for X in (C, D)), result)
    if not check.ok:
        raise InternalInvariantError("; ".join(check.failures))
    return result


def verify_matching(p: Poset, chain_a, chain_b, result: MatchingResult) -> MatchingCheck:
    """Re-check a MatchingResult: shape, bijectivity and witness validity.

    Maximality of pi needs the independent relation; `oracle.check_theorem`
    checks it."""
    C, D = _poset(p).chain(chain_a), p.chain(chain_b)
    if not isinstance(result, MatchingResult):
        raise PreconditionError(f"result must be a MatchingResult, got {type(result).__name__}")
    n = result.n
    if n != len(C) - 1 or n != len(D) - 1:
        return MatchingCheck(False, (f"result size {n} does not match chain lengths "
                                     f"{len(C) - 1} and {len(D) - 1}",))
    failures: list[str] = []
    pi = list(result.pi)
    if any(type(j) is not int for j in pi) or sorted(pi) != list(range(1, n + 1)):
        failures.append(f"pi is not a bijection on 1..{n}: {pi}")
    if len(result.witnesses) != n:
        failures.append(f"expected {n} witnesses, got {len(result.witnesses)}")
    for i, w in enumerate(result.witnesses[:n], start=1):
        j = pi[i - 1] if i <= len(pi) else None
        if not isinstance(w, (tuple, list)) or len(w) != 2:
            failures.append(f"index {i}: witness {w!r} is not two names")
        elif type(j) is int and 1 <= j <= n:
            src, tgt = C[i - 1:i + 1], D[j - 1:j + 1]
            if not prime_up_projective(p, src, w):
                failures.append(f"index {i}: witness {tuple(w)} fails on the source interval {src}")
            elif not prime_up_projective(p, tgt, w):
                failures.append(f"index {i}: witness {tuple(w)} fails on the target interval {tgt}")
    return MatchingCheck(not failures, tuple(failures))
