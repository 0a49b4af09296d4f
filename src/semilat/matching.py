"""Constructive matching of prime intervals between two maximal chains.

Given a semimodular join semilattice with bottom and top and two maximal
chains C = (c_0, ..., c_n) and D = (d_0, ..., d_n), `jh_match` computes the
unique permutation pi with [c_{i-1}, c_i] up-and-down projective to
[d_{pi(i)-1}, d_{pi(i)}], together with an explicit witness per index, by
induction on height.  The induction runs as one loop over the levels, on the
given poset itself: no sub-posets are built and nothing recurses.  No witness
search happens anywhere: every witness is produced constructively and
re-verified before being returned, so each run doubles as a check of the
structural facts the induction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import semilattice as sl
from .errors import (
    ChainLengthMismatchError,
    InternalInvariantError,
    MissingBoundsError,
    NotMaximalChainError,
    NotSemimodularError,
)
from .poset import Chain, Poset
from .projectivity import prime_up_projective


@dataclass(frozen=True)
class RecursionFrame:
    """One level of the induction: the split index and the lifted chain.

    `l` is the largest index with c_1 not below d_l.  `lifted_chain` is the
    deduplicated sequence of joins of c_1 with the d_j (the collapse at l
    removed), a maximal chain of the interval above c_1.  `sigma` records the
    permutation that the levels above compose, already translated to this
    level's indices: pairs (i, sigma(i)) for i = 2..n.
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

    def image_of(self, i: int) -> int:
        """pi(i) with 1-indexed i."""
        return self.pi[i - 1]

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


def _validate_inputs(p: Poset, chain_a, chain_b) -> tuple[Chain, Chain]:
    report = sl.is_semimodular(p)  # raises NotJoinSemilatticeError first
    if not report.holds:
        raise NotSemimodularError(report.counterexample)
    if p.bottom() is None or p.top() is None:
        raise MissingBoundsError(f"poset {p.name!r} lacks a bottom or top element")
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
           ) -> tuple[list[int], list[tuple[str, str]], tuple[RecursionFrame, ...] | None]:
    # Level k matches c_k..c_n against d lifted into the up-set of c_k.  Joins
    # of two elements of an up-set are the same there as in p, and its covers
    # are covers of p, so every level reads p's join table by index (a join
    # semilattice, as _validate_inputs has checked: no sentinel is read).
    J = sl._join_rows(p)
    covers, names = p._covers, p.elements
    n = len(c) - 1
    splits: list[int] = []
    witnesses: list[tuple[str, str]] = []
    lifted_chains: list[list[int]] = []
    for k in range(n):
        c1 = c[k + 1]
        m = len(d) - 1
        row = J[c1]
        lifted = [row[j] for j in d]
        # c_1 <= d_j exactly when c_1 ∨ d_j = d_j.
        not_below = [j for j in range(m + 1) if lifted[j] != d[j]]
        if not not_below or len(not_below) == m + 1:
            raise InternalInvariantError("c_1 must be above d_0 and below d_m")
        l = not_below[-1]

        # Past l the lifted chain is d itself, by the choice of l.
        if lifted[0] != c1 or lifted[l] != d[l + 1]:
            raise InternalInvariantError("lifted chain does not collapse onto the tail of d")
        collapses = [j for j in range(m) if lifted[j] == lifted[j + 1]]
        if collapses != [l]:
            raise InternalInvariantError(f"expected the unique collapse at {l}, found {collapses}")
        dedup = lifted[: l + 1] + lifted[l + 2 :]
        for u, v in zip(dedup, dedup[1:]):
            if not covers[u, v]:
                raise InternalInvariantError(f"lifted step ({names[u]}, {names[v]}) is not a cover")
        # It starts at c_1 and climbs by covers, so reaching the top is
        # exactly maximality in the up-set of c_1.
        if dedup[-1] != c[-1]:
            raise InternalInvariantError("lifted chain is not maximal above c_1")

        splits.append(l)
        witnesses.append((names[d[l]], names[d[l + 1]]))
        if keep_trace:
            lifted_chains.append(dedup)
        d = dedup

    # Compose pi from the top level down: position s of the lifted chain at
    # level k names interval s of that level's d when s <= l_k, and s+1 past
    # the collapse.
    pi: list[int] = []
    frames: list[RecursionFrame] = []
    for k in reversed(range(n)):
        l = splits[k]
        sigma = [s + (s > l) for s in pi]
        if keep_trace and sigma:
            frames.append(RecursionFrame(k, l, tuple(names[i] for i in lifted_chains[k]),
                                         tuple(enumerate(sigma, start=2))))
        pi = [l + 1] + sigma
    return pi, witnesses, tuple(reversed(frames)) if keep_trace else None


def jh_match(p: Poset, chain_a, chain_b, keep_trace: bool = False) -> MatchingResult:
    """Match the prime intervals of two maximal chains of p.

    Validates that p is a semimodular join semilattice with bottom and top
    and that both chains are maximal of equal length, then runs the inductive
    construction.  The result is re-verified with `verify_matching` before
    returning: pi is a permutation and every witness satisfies the
    up-projectivity checks against both chains.
    """
    C, D = _validate_inputs(p, chain_a, chain_b)
    pi, witnesses, trace = _match(p, list(map(p.index, C)), list(map(p.index, D)), keep_trace)
    result = MatchingResult(n=C.length, pi=tuple(pi), witnesses=tuple(witnesses), trace=trace)
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
