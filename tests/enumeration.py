"""Reference enumeration of the consistent permutations of a relation.

`oracle.count_consistent_permutations` decides uniqueness by counting; this
backtracking sweep lists the permutations themselves, so the tests can check
the count against it on small relations.
"""

from __future__ import annotations

from semilat import ProjectivityRelation, SizeLimitError

ENUMERATION_LIMIT = 8   # full n! sweep


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
