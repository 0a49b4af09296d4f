"""Reference build of a poset from a cover list by float32 matrix squaring.

`Poset.from_cover_list` closes the order in one pass that peels sinks, with
up-sets as int bitsets.  This module keeps the matrix form, O(n^3 log n): the
relation is squared to a fixpoint, the cycle pair is the first mutual pair in
row-major order, and the covers are the transitive reduction.  The tests check
the one-pass build against it, matrices and error messages alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from semilat import PosetConstructionError
from semilat.poset import _bool_square, _transitive_reduction


def matmul_closure(rel: np.ndarray) -> np.ndarray:
    """The reflexive transitive closure of a boolean relation matrix."""
    reach = rel | np.eye(rel.shape[0], dtype=bool)
    while True:
        nxt = _bool_square(reach)   # reach is reflexive, so its square contains it
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def reference_build(elements: Sequence[str],
                    covers: Sequence[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """The order and cover matrices of the poset the edges generate, over the
    sorted names, or the PosetConstructionError for a cycle or an implied edge.

    The edges must be pairs of distinct known names; those checks are not
    repeated here.
    """
    ordered = sorted(elements)
    index = {e: i for i, e in enumerate(ordered)}
    n = len(ordered)
    rel = np.zeros((n, n), dtype=bool)
    for a, b in covers:
        rel[index[a], index[b]] = True
    leq = matmul_closure(rel)
    mutual = leq & leq.T & ~np.eye(n, dtype=bool)
    if mutual.any():
        i, j = np.argwhere(mutual)[0]
        raise PosetConstructionError(
            f"cycle detected through {ordered[i]!r} and {ordered[j]!r}")
    reduction = _transitive_reduction(leq)
    extra = np.argwhere(rel & ~reduction)
    if len(extra):
        i, j = extra[0]
        raise PosetConstructionError(f"non-cover edge ({ordered[i]}, {ordered[j]})")
    return leq, reduction
