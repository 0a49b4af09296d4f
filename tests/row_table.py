"""Row-by-row reference for `semilattice._table`, which builds the join table
from packed up-set words: one numpy pass per element i over the up-set of i,
with the same rule, the same sentinels and the same first failing pair.
"""

from __future__ import annotations

import numpy as np

from semilat.semilattice import _AMBIGUOUS, _NONE


def row_by_row_table(p) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The join table of p and its first failing pair (i <= j, row-major), one
    row at a time and uncached: of the common upper bounds of i and j, the
    first in the rank order is the lub exactly when its up-set is all of them."""
    leq, order = p._leq, p._view()[1]
    n = len(p)
    by_rank = leq[:, order]   # columns from the smallest down-set upwards
    up_size = leq.sum(axis=1)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        cols = np.flatnonzero(by_rank[i])   # the up-set of i, by rank
        ub = by_rank[i:, cols]              # row k: common upper bounds of i, i+k
        first = ub.argmax(axis=1)
        cand = order[cols[first]]
        row = np.where(np.count_nonzero(ub, axis=1) == up_size[cand], cand, _AMBIGUOUS)
        row[~ub[np.arange(n - i), first]] = _NONE
        table[i, i:] = row
        table[i:, i] = row
    bad = np.triu(table < 0)
    return table, (divmod(int(bad.argmax()), n) if bad.any() else None)
