"""Reference witness search over every element pair (x, y).

`oracle._witnesses` scans x alone, with y = b∨x forced; this mask tests every
condition on all |p|^2 pairs, so the tests can check the scan against it.
"""

from __future__ import annotations

import numpy as np

from semilat import Poset
from semilat import semilattice as sl

MASK_BLOCK = 2 ** 20   # mask entries evaluated at once


def mask_witnesses(p: Poset, cells: list[tuple[int, int, int, int]]) -> list:
    """For each index cell (a, b, c, d), the lexicographically first pair
    (x, y) with x != y, a∨x = c∨x = x and b∨x = d∨x = y, as names, or None.

    Every cell is evaluated, in blocks of about MASK_BLOCK entries; nothing is
    cached and the steps are not checked to be prime.
    """
    J = sl._joins(p)
    names, size = p.elements, len(p)
    xs = np.arange(size)
    step = max(1, MASK_BLOCK // size ** 2)
    out = []
    for start in range(0, len(cells), step):
        a, b, c, d = np.array(cells[start:start + step]).T
        # Cell k, row x, column y: every condition, evaluated on every pair.
        mask = J[b][:, :, None] == xs
        mask &= J[d][:, :, None] == xs
        mask &= ((J[a] == xs) & (J[c] == xs))[:, :, None]
        mask &= xs[:, None] != xs
        mask = mask.reshape(len(a), -1)
        first = mask.argmax(axis=1)
        found = mask[np.arange(len(a)), first]
        out += [(names[f // size], names[f % size]) if hit else None
                for f, hit in zip(first.tolist(), found.tolist())]
    return out


def cover_cells(p: Poset) -> list[tuple[int, int, int, int]]:
    """Every cell (a, b, c, d) of two cover pairs of p, by index."""
    covers = [(p.index(lo), p.index(hi)) for lo, hi in p.cover_pairs()]
    return [(*s, *t) for s in covers for t in covers]
