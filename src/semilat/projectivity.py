"""Up-projectivity of prime intervals, in its join-only form.

For a prime interval [a, b], [a, b] is up-projective to [x, y] when x != y,
join(a, x) = x and join(b, x) = y: the form that makes sense in a join
semilattice, where meets need not exist.  On a lattice it agrees with the
lattice form meet(b, x) = a, join(b, x) = y, which the tests keep as the
reference it is checked against.
`prime_up_projective` checks its source and witness as two names each by
`Poset._pairs`, and one given witness through two `join` calls.
The search for an up-and-down witness between two prime intervals is
`oracle.interval_updown_witness`.
"""

from __future__ import annotations

from . import semilattice as sl
from .errors import NotPrimeIntervalError
from .poset import Poset, _poset


def prime_up_projective(p: Poset, ab, xy) -> bool:
    """Join-only form for a prime source interval: x != y, a∨x = x, b∨x = y.

    Raises NoJoinError when one of the two joins it reads does not exist.
    """
    (i, j), (k, l) = _poset(p)._pairs("source and witness", ab, xy)
    a, b, x, y = (p.elements[v] for v in (i, j, k, l))
    if not p._covers[i, j]:
        raise NotPrimeIntervalError(f"[{a}, {b}] is not a prime interval of {p.name!r}")
    return x != y and sl.join(p, a, x) == x and sl.join(p, b, x) == y
