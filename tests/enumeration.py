"""Reference counts of the consistent permutations of a relation.

`oracle.check_pairs` decides uniqueness by a certificate: it checks the
matcher's pi against the relation and looks for an alternating cycle.
`count_consistent_permutations` counts the perfect matchings of the relation
with a bitmask memo, and `all_consistent_permutations` lists them by
backtracking, so the tests can check the certificate against the count and
the count against the list on small relations.
"""

from __future__ import annotations

from semilat import ProjectivityRelation, SizeLimitError

COUNTING_LIMIT = 20     # perfect-matching count with column-set memo
ENUMERATION_LIMIT = 8   # full n! sweep


def count_consistent_permutations(rel: ProjectivityRelation) -> int:
    """Number of permutations pi with related[i][pi(i)] for all i, by a
    perfect-matching count memoized on the set of used columns.

    Guarded at n <= COUNTING_LIMIT.
    """
    n, related = rel.n, rel.related
    if n > COUNTING_LIMIT:
        raise SizeLimitError(f"permutation counting is limited to n <= {COUNTING_LIMIT}")
    memo: dict[int, int] = {}

    def count(i: int, used_cols: int) -> int:
        if i > n:
            return 1
        if used_cols not in memo:
            memo[used_cols] = sum(count(i + 1, used_cols | 1 << j) for j in range(n)
                                  if not used_cols >> j & 1 and related[i - 1][j])
        return memo[used_cols]

    return count(1, 0)


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
