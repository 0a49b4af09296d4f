"""Reference pair pass: the claims of `check_theorem` decided one pair at a time.

`oracle.check_pairs` decides a whole pair set at once on chain ids.  This is
the pass it replaced: a relation, a count and a list scan per pair, and four
fresh entries per report, so the tests can compare the two report by report.
It reads the poset preconditions and the matcher's index entry through the
`oracle` module, so a test that patches them there patches both passes.
"""

from __future__ import annotations

import numpy as np

from semilat import (
    CheckEntry,
    SizeLimitError,
    TheoremReport,
    count_consistent_permutations,
    is_maximal_chain,
    projectivity_relation,
)
from semilat import oracle


def pairwise_reports(p, pairs) -> list[TheoremReport]:
    """The report of every chain pair, in order, as `check_pairs` gives it."""
    poset_failure = oracle._poset_preconditions(p)
    maximal: dict[tuple[str, ...], bool] = {}
    entries: list[list[CheckEntry]] = []
    evaluable = []
    for chain_a, chain_b in pairs:
        C, D = tuple(chain_a), tuple(chain_b)
        n, m = max(len(C) - 1, 0), max(len(D) - 1, 0)
        pre_ok, pre_msg = poset_failure is None, poset_failure
        if pre_ok:
            pre_msg = "semimodular join semilattice; both chains maximal"
            for label, ch in (("first", C), ("second", D)):
                if ch not in maximal:
                    maximal[ch] = is_maximal_chain(p, ch)
                if not maximal[ch]:
                    pre_ok, pre_msg = False, f"{label} chain is not maximal"
                    break
        entries.append([CheckEntry("preconditions", pre_ok, pre_msg),
                        CheckEntry("equal-length", n == m, f"lengths {n} and {m}")])
        if not (pre_ok and n == m):
            skipped = "not evaluated (preconditions failed)"
            entries[-1] += [CheckEntry("unique-permutation", False, skipped),
                            CheckEntry("maximality", False, skipped)]
        elif n > oracle.COUNTING_LIMIT:
            raise SizeLimitError(f"permutation counting is limited to n <= {oracle.COUNTING_LIMIT}")
        else:
            evaluable.append((entries[-1], C, D))

    for out, C, D in evaluable:
        rows = (np.array([[p.index(e) for e in ch]]) for ch in (C, D))
        pi = oracle.match_index_chains(p, *rows)[0][0].tolist()
        n = len(pi)
        rel = projectivity_relation(p, C, D)
        related = rel.related
        count = count_consistent_permutations(rel)
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
