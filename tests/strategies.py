"""Hypothesis strategies for generated posets and lattices.

`posets` draws arbitrary finite posets, so most of them lack some joins and
some have pairs with several minimal upper bounds.  `closure_lattices` draws
lattices: a family of subsets of a small ground set, closed under
intersection and holding the whole set, ordered by inclusion.  Many of those
are not semimodular.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st

from semilat import Poset

# Derandomized so the suite draws the same examples on every run.
GENERATED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def posets(draw, max_size: int = 10) -> Poset:
    """A random poset: a random DAG on shuffled names, read in lenient mode.

    Edges only run from a lower to a higher position of one drawn order, and
    the element names are a random permutation of it, so index order is not
    a linear extension.
    """
    n = draw(st.integers(1, max_size))
    names = draw(st.permutations([f"e{k:02d}" for k in range(n)]))
    density = draw(st.integers(1, 3))
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.integers(0, 7)) < density]
    return Poset.from_cover_list("generated", names, edges, mode="lenient")


@st.composite
def closure_lattices(draw, max_ground: int = 5) -> Poset:
    """A random lattice of subsets closed under intersection."""
    k = draw(st.integers(2, max_ground))
    full = (1 << k) - 1
    sets = set(draw(st.lists(st.integers(0, full), min_size=k, max_size=3 * k))) | {full}
    while True:
        closed = sets | {a & b for a in sets for b in sets}
        if closed == sets:
            break
        sets = closed
    names = {s: format(s, f"0{k}b") for s in sets}
    edges = [(names[a], names[b]) for a in sets for b in sets
             if a != b and a & b == a]
    return Poset.from_cover_list("closure", list(names.values()), edges, mode="lenient")
