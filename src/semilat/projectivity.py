"""Up-, down-, and up-and-down projectivity of prime intervals.

For a prime interval [a, b] the lattice definition of [a,b] up-projective to
[x,y] (meet(b,x) = a and join(b,x) = y) is equivalent to the join-only form
x != y, join(a,x) = x, join(b,x) = y, which is the one that makes sense in a
join semilattice.  Both are exposed; property tests pin their agreement.
`prime_up_projective` checks one given witness through two `join` calls.
`updown_projective` resolves names once and tests every x at once on rows of
the join table; it raises NoJoinError on a poset that is not a join
semilattice.
"""

from __future__ import annotations

import numpy as np

from . import semilattice as sl
from .errors import NoMeetError, NotPrimeIntervalError
from .poset import Poset


def _require_prime(p: Poset, interval) -> tuple[int, int]:
    """Indices of the endpoints of a prime interval of p."""
    lo, hi = interval
    i, j = p.index(lo), p.index(hi)
    if not p._covers[i, j]:
        raise NotPrimeIntervalError(f"[{lo}, {hi}] is not a prime interval of {p.name!r}")
    return i, j


def lattice_up_projective(p: Poset, ab, xy) -> bool:
    """Lattice form: meet(b, x) == a and join(b, x) == y.

    Works for general intervals; requires meet(b, x) to exist.
    """
    a, b = ab
    x, y = xy
    m = sl.meet(p, b, x)
    if m is None:
        raise NoMeetError(f"meet({b}, {x}) does not exist in {p.name!r}")
    return m == a and sl.join(p, b, x) == y


def prime_up_projective(p: Poset, ab, xy) -> bool:
    """Join-only form for a prime source interval: x != y, a∨x = x, b∨x = y.

    Raises NoJoinError when one of the two joins it reads does not exist.
    """
    _require_prime(p, ab)
    (a, b), (x, y) = ab, xy
    return x != y and sl.join(p, a, x) == x and sl.join(p, b, x) == y


def updown_projective(p: Poset, source, target) -> tuple[str, str] | None:
    """First witness (x, y), in lexicographic pair order, with both
    prime_up_projective(source, (x,y)) and prime_up_projective(target, (x,y)).

    Directional: this realizes source-to-target, not the converse.  Raises
    NoJoinError unless p is a join semilattice.
    """
    a, b = _require_prime(p, source)
    c, d = _require_prime(p, target)
    J = sl._joins(p)
    # For a fixed x the only y that can satisfy the source side is join(b, x),
    # so the first x passing the test gives the lexicographically least pair.
    xs = np.arange(len(p))
    y = J[b]
    hits = np.flatnonzero((J[a] == xs) & (J[c] == xs) & (y != xs) & (J[d] == y))
    if not len(hits):
        return None
    x = hits[0]
    return p.elements[x], p.elements[y[x]]
