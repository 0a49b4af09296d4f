"""Reference pair pass: the claims of `check_theorem` decided one pair at a time.

`oracle.check_pairs` decides a whole pair set at once on chain ids.  This is
the pass it replaced: a relation, a count and a list scan per pair, and four
fresh entries per report, so the tests can compare the two report by report.
It reads the poset preconditions and the matcher through the `oracle` module,
so a test that patches them there patches both passes.
"""

from __future__ import annotations

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
        pre_ok, pre_msg = poset_failure is None, poset_failure
        if pre_ok:
            pre_msg = "semimodular join semilattice; both chains maximal"
            for label, ch in (("first", C), ("second", D)):
                if ch not in maximal:
                    maximal[ch] = is_maximal_chain(p, ch)
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
        elif len(C) - 1 > oracle.COUNTING_LIMIT:
            raise SizeLimitError(f"permutation counting is limited to n <= {oracle.COUNTING_LIMIT}")
        else:
            evaluable.append((entries[-1], C, D))

    matched = oracle.jh_match_pairs(p, [(C, D) for _, C, D in evaluable]) if evaluable else []
    for (out, C, D), match in zip(evaluable, matched):
        n, pi = match.n, match.pi
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
