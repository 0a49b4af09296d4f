"""The matcher's row loop on one chain pair, kept as the reference for the
batched `matching._match`.

`scalar_match` reads the join matrix M[i][j] = c_i ∨ d_j of one pair of
index chains row by row and returns pi and the witnesses by index.  It keeps
the checks that `_match` made before it checked M by one rank law: each row
runs from c_i to the top, adds exactly one collapse, and steps by covers
before it.  The witness check is the same in both.  Where this reference
raises, `_match` raises too, though perhaps at another (pair, row) and with
another message; `_match` also refuses some tables this reference lets pass.
"""

from __future__ import annotations

from operator import eq

from semilat import InternalInvariantError
from semilat import semilattice as sl


def scalar_match(p, c: list[int], d: list[int]) -> tuple[list[int], list[list[int]]]:
    J = sl._joins(p).tolist()
    covers, names = p._covers, p.elements
    n = len(c) - 1
    M = [[J[ci][j] for j in d] for ci in c]
    flat = [list(map(eq, row, row[1:])) for row in M]  # flat[i][k-1]: row i repeats at column k
    if M[0] != list(d):
        raise InternalInvariantError("row 0 of the join matrix is not the second chain")
    pi, witnesses = [], []
    for i in range(1, n + 1):
        prev, row = M[i - 1], M[i]
        if row[0] != c[i] or row[n] != d[n]:
            raise InternalInvariantError(f"row {i} does not run from c_{i} to the top")
        j = list(map(eq, row, prev)).index(True)
        if (j == 0 or flat[i - 1][j - 1] or row[j:] != prev[j:]
                or flat[i] != flat[i - 1][:j - 1] + [True] + flat[i - 1][j:]):
            raise InternalInvariantError(f"row {i} does not add exactly one collapse, at {j}")
        for u, v in zip(row, row[1:j]):
            if u != v and not covers[u, v]:
                raise InternalInvariantError(f"row {i} steps {names[u]} -> {names[v]}, no cover")
        x, y = prev[j - 1], prev[j]
        a, b, e, f = c[i - 1], c[i], d[j - 1], d[j]
        if x == y or J[a][x] != x or J[b][x] != y or J[e][x] != x or J[f][x] != y:
            raise InternalInvariantError(f"index {i}: witness ({names[x]}, {names[y]}) fails on "
                                         f"[{names[a]}, {names[b]}] or [{names[e]}, {names[f]}]")
        pi.append(j)
        witnesses.append([x, y])
    return pi, witnesses
