"""Constructive matching of prime intervals between two maximal chains.

Given a semimodular join semilattice with bottom and top and two maximal
chains C = (c_0, ..., c_n) and D = (d_0, ..., d_n), `jh_match` computes the
unique permutation pi with [c_{i-1}, c_i] up-and-down projective to
[d_{pi(i)-1}, d_{pi(i)}] and a witness per index, both read off the join
matrix M[i][j] = c_i ∨ d_j (Grätzer and Nation): pi(i) is the least j with
c_i ≤ c_{i-1} ∨ d_j, the first column where row i equals row i-1, and the
witness is the step [M[i-1][j-1], M[i-1][j]] of row i-1.  No witness search
happens anywhere: the structural facts about M are asserted and every
witness is re-verified against both of its intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import eq, not_
from typing import Sequence

from . import semilattice as sl
from .errors import (
    ChainLengthMismatchError,
    InternalInvariantError,
    NotMaximalChainError,
    NotSemimodularError,
)
from .poset import Chain, Poset
from .projectivity import prime_up_projective


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


def _validate_poset(p: Poset) -> None:
    """p is a semimodular join semilattice with bottom and top."""
    report = sl.is_semimodular(p)  # raises NotJoinSemilatticeError first
    if not report.holds:
        raise NotSemimodularError(report.counterexample)
    sl._require_bounds(p)


def _validate_inputs(p: Poset, chain_a, chain_b) -> tuple[Chain, Chain]:
    _validate_poset(p)
    C = chain_a if isinstance(chain_a, Chain) else p.chain(chain_a)
    D = chain_b if isinstance(chain_b, Chain) else p.chain(chain_b)
    for label, ch in (("first", C), ("second", D)):
        if not sl.is_maximal_chain(p, ch):
            raise NotMaximalChainError(f"{label} chain {list(ch)} is not maximal in {p.name!r}")
    if C.length != D.length:
        raise ChainLengthMismatchError(
            f"maximal chains of lengths {C.length} and {D.length}; "
            f"equal length is guaranteed for valid inputs, so a precondition is broken")
    return C, D


def _match(p: Poset, c: Sequence[int], d: Sequence[int], keep_trace: bool
           ) -> tuple[list[int], list[tuple[int, int]], tuple[RecursionFrame, ...] | None]:
    """pi, the witnesses by index and (with keep_trace) the frames, read off
    the join matrix of two maximal index chains of equal length of a
    validated poset, so no join sentinel is read."""
    J = sl._join_rows(p)
    covers, names = p._covers, p.elements
    n = len(c) - 1
    M = [[J[ci][j] for j in d] for ci in c]
    flat = [list(map(eq, row, row[1:])) for row in M]  # flat[i][k-1]: row i repeats at column k
    if M[0] != list(d):  # c_0 is the bottom
        raise InternalInvariantError("row 0 of the join matrix is not the second chain")
    pi, witnesses = [], []
    for i in range(1, n + 1):
        prev, row = M[i - 1], M[i]
        if row[0] != c[i] or row[n] != d[n]:
            raise InternalInvariantError(f"row {i} does not run from c_{i} to the top")
        # pi(i) is the least j with c_i <= c_{i-1} ∨ d_j.  From j on row i is
        # row i-1, and it repeats where row i-1 does and at j, so pi is a
        # permutation: the repeats only grow, by one new column per row.
        j = list(map(eq, row, prev)).index(True)
        if (j == 0 or flat[i - 1][j - 1] or row[j:] != prev[j:]
                or flat[i] != flat[i - 1][:j - 1] + [True] + flat[i - 1][j:]):
            raise InternalInvariantError(f"row {i} does not add exactly one collapse, at {j}")
        # Steps past j are those of row i-1, and row 0 is the maximal chain d.
        for u, v in zip(row, row[1:j]):
            if u != v and not covers[u, v]:
                raise InternalInvariantError(f"row {i} steps {names[u]} -> {names[v]}, no cover")
        x, y = prev[j - 1], prev[j]
        a, b, e, f = c[i - 1], c[i], d[j - 1], d[j]
        if x == y or J[a][x] != x or J[b][x] != y or J[e][x] != x or J[f][x] != y:
            raise InternalInvariantError(f"index {i}: witness ({names[x]}, {names[y]}) fails on "
                                         f"[{names[a]}, {names[b]}] or [{names[e]}, {names[f]}]")
        pi.append(j)
        witnesses.append((x, y))
    if not keep_trace:
        return pi, witnesses, None
    frames = []
    for k in range(n - 1):
        # The steps of row k, repeats removed, numbered by the column they end at.
        step = list(accumulate(map(not_, flat[k]), initial=0))
        image = [step[j] for j in pi[k:]]
        frames.append(RecursionFrame(k, image[0] - 1, tuple(names[e] for e, _ in groupby(M[k + 1])),
                                     tuple(enumerate(image[1:], start=2))))
    return pi, witnesses, tuple(frames)


def jh_match(p: Poset, chain_a, chain_b, keep_trace: bool = False) -> MatchingResult:
    """Match the prime intervals of two maximal chains of p.

    Validates that p is a semimodular join semilattice with bottom and top
    and that both chains are maximal of equal length, then reads the matching
    off the join matrix of the chains.  The result is re-verified with
    `verify_matching` before returning: pi is a permutation and every witness
    satisfies the up-projectivity checks against both chains.
    """
    C, D = _validate_inputs(p, chain_a, chain_b)
    pi, witnesses, trace = _match(p, list(map(p.index, C)), list(map(p.index, D)), keep_trace)
    result = MatchingResult(n=C.length, pi=tuple(pi), trace=trace, witnesses=tuple(
        (p.elements[x], p.elements[y]) for x, y in witnesses))
    check = verify_matching(p, C, D, result)
    if not check.ok:
        raise InternalInvariantError("; ".join(check.failures))
    return result


def verify_matching(p: Poset, chain_a, chain_b, result: MatchingResult) -> MatchingCheck:
    """Re-check a MatchingResult: shape, bijectivity and witness validity.

    Maximality of pi needs the independent relation; `oracle.check_theorem`
    checks it."""
    C = chain_a if isinstance(chain_a, Chain) else p.chain(chain_a)
    D = chain_b if isinstance(chain_b, Chain) else p.chain(chain_b)
    failures: list[str] = []
    n = result.n
    if n != C.length or n != D.length:
        failures.append(f"result size {n} does not match chain lengths "
                        f"{C.length} and {D.length}")
        return MatchingCheck(False, tuple(failures))
    if sorted(result.pi) != list(range(1, n + 1)):
        failures.append(f"pi is not a bijection on 1..{n}: {list(result.pi)}")
    if len(result.witnesses) != n:
        failures.append(f"expected {n} witnesses, got {len(result.witnesses)}")
    for i in range(1, min(n, len(result.witnesses)) + 1):
        w = result.witnesses[i - 1]
        j = result.pi[i - 1]
        if not (1 <= j <= n):
            continue
        src = (C.elements[i - 1], C.elements[i])
        tgt = (D.elements[j - 1], D.elements[j])
        if not prime_up_projective(p, src, w):
            failures.append(f"index {i}: witness {tuple(w)} fails on the source interval {src}")
        elif not prime_up_projective(p, tgt, w):
            failures.append(f"index {i}: witness {tuple(w)} fails on the target interval {tgt}")
    return MatchingCheck(not failures, tuple(failures))
