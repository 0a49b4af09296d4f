"""Up-projectivity of prime intervals.

For a prime interval [a, b] the lattice definition of [a,b] up-projective to
[x,y] (meet(b,x) = a and join(b,x) = y) is equivalent to the join-only form
x != y, join(a,x) = x, join(b,x) = y, which is the one that makes sense in a
join semilattice.  Both are exposed; property tests pin their agreement.
Both check their source and witness as two names each by `Poset._pairs`.
`prime_up_projective` checks one given witness through two `join` calls.
The search for an up-and-down witness between two prime intervals is
`oracle.interval_updown_witness`.
"""

from __future__ import annotations

from . import semilattice as sl
from .errors import NoMeetError, NotPrimeIntervalError
from .poset import Poset


def lattice_up_projective(p: Poset, ab, xy) -> bool:
    """Lattice form: meet(b, x) == a and join(b, x) == y.

    Works for general intervals; requires meet(b, x) to exist.
    """
    a, b, x, y = (p.elements[i] for pair in p._pairs("source and witness", ab, xy) for i in pair)
    m = sl.meet(p, b, x)
    if m is None:
        raise NoMeetError(f"meet({b}, {x}) does not exist in {p.name!r}")
    return m == a and sl.join(p, b, x) == y


def prime_up_projective(p: Poset, ab, xy) -> bool:
    """Join-only form for a prime source interval: x != y, a∨x = x, b∨x = y.

    Raises NoJoinError when one of the two joins it reads does not exist.
    """
    a, b, x, y = (p.elements[i] for pair in p._pairs("source and witness", ab, xy) for i in pair)
    if not p._covers[p.index(a), p.index(b)]:
        raise NotPrimeIntervalError(f"[{a}, {b}] is not a prime interval of {p.name!r}")
    return x != y and sl.join(p, a, x) == x and sl.join(p, b, x) == y
