"""Reference pair pass: the claims of `check_theorem` decided one pair at a time.

`oracle.check_pairs` decides a whole pair set at once on chain ids.  This is
the pass it replaced: a relation, a count and a list scan per pair, and four
fresh entries per report, so the tests can compare the two report by report.
Uniqueness is read off the reference count of `enumeration`, not off a
certificate: a pi that is a permutation inside the relation makes the count
"1" or "at least 2", any other pi leaves it "not decided".
It reads the poset preconditions and the matcher's index entry through the
`oracle` module, so a test that patches them there patches both passes.
"""

from __future__ import annotations

import numpy as np

from semilat import CheckEntry, TheoremReport, is_maximal_chain, projectivity_relation
from semilat import oracle

from enumeration import count_consistent_permutations


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
        else:
            evaluable.append((entries[-1], C, D))

    for out, C, D in evaluable:
        rows = (np.array([[p.index(e) for e in ch]]) for ch in (C, D))
        pi = oracle.match_index_chains(p, *rows)[0][0].tolist()
        n = len(pi)
        rel = projectivity_relation(p, C, D)
        related = rel.related
        consistent = sorted(pi) == list(range(1, n + 1)) and all(
            related[i][pi[i] - 1] for i in range(n))
        count = count_consistent_permutations(rel)
        matchings = "not decided" if not consistent else "1" if count == 1 else "at least 2"
        out.append(CheckEntry(
            "unique-permutation", matchings == "1",
            f"matching count {matchings}; computed permutation consistent: {consistent}"))
        violations = [(i + 1, j + 1) for i in range(n) for j in range(n)
                      if related[i][j] and j >= pi[i]]
        out.append(CheckEntry(
            "maximality", not violations,
            "every related j satisfies j <= pi(i)" if not violations
            else f"violated at (i, j) pairs {violations}"))
    return [TheoremReport(tuple(e)) for e in entries]
