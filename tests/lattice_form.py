"""The lattice form of up-projectivity, kept as the reference that
`projectivity.prime_up_projective`, the join-only form, is checked against.

[a, b] is up-projective to [x, y] when meet(b, x) = a and join(b, x) = y.
It needs meet(b, x) to exist, so it applies to lattices only; every poset
the tests give it has a bottom and all joins, hence all meets.
"""

from __future__ import annotations

from semilat import Poset
from semilat import semilattice as sl


def lattice_up_projective(p: Poset, ab, xy) -> bool:
    """meet(b, x) == a and join(b, x) == y, for source and witness read as two
    names each by `Poset._pairs`, as the prime form reads them."""
    a, b, x, y = (p.elements[i] for pair in p._pairs("source and witness", ab, xy) for i in pair)
    m = sl.meet(p, b, x)
    assert m is not None, f"meet({b}, {x}) does not exist in {p.name!r}"
    return m == a and sl.join(p, b, x) == y
