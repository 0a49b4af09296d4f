"""Finite groups as Cayley tables: subgroup enumeration, subnormality, the
subnormal-subgroup lattice, and composition-series matching.

The subnormal lattice is dually semimodular, so the chain-matching algorithm
runs on its dual; indices and factors are mapped back afterwards.  Factor
"isomorphism" is checked as order equality, which is exact for the small
solvable test corpus where all composition factors are cyclic of prime order.
"""

from __future__ import annotations

import json
import math
from collections.abc import Collection
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import semilattice as sl
from .errors import (
    GroupValidationError,
    InternalInvariantError,
    NotMaximalChainError,
    PreconditionError,
    SizeLimitError,
    UnknownNameError,
)
from .matching import _match, _validate_poset, jh_match
from .poset import Chain, Poset

SUBGROUP_ORDER_LIMIT = 60
# Validating a table takes about 0.09 s at order 120 and 0.7 s at order 240.
GROUP_ORDER_LIMIT = 120


@dataclass(frozen=True)
class Subgroup:
    """Sorted element-index set, closed under the ambient group's product."""

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in set(self.members)

    @property
    def name(self) -> str:
        return ".".join(str(m) for m in self.members)


class Group:
    """Finite group given by an n x n Cayley table with the identity at 0."""

    def __init__(self, name: str, table: list[list[int]]):
        self.name = name
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.table[a].index(0)

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order {self.order})"

    def to_dict(self) -> dict:
        return {"name": self.name, "order": self.order,
                "table": [list(row) for row in self.table]}


def group_from_table(name: str, table) -> Group:
    """Validate a Cayley table: Latin square, identity at index 0, inverses,
    and full associativity (O(n^3), n^2 triples per numpy step).  Orders
    above GROUP_ORDER_LIMIT are refused before any of that."""
    _check_order(len(table))
    if not all(isinstance(r, (list, tuple)) for r in table):
        raise GroupValidationError("table rows must be arrays")
    rows = [list(r) for r in table]
    n = len(rows)
    if n == 0:
        raise GroupValidationError("empty table")
    full = list(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GroupValidationError(f"row {i} has length {len(row)}, expected {n}")
        # 1.0 == True == 1 would pass the Latin test; numpy reads booleans as a mask.
        if any(type(x) is not int for x in row):
            raise GroupValidationError("table entries must be integers")
        if sorted(row) != full:
            raise GroupValidationError(f"not a Latin square: row {i} is not a permutation")
    T = np.array(rows)
    for j in range(n):
        if sorted(rows[i][j] for i in range(n)) != full:
            raise GroupValidationError(f"not a Latin square: column {j} is not a permutation")
    if any(rows[0][j] != j for j in range(n)) or any(rows[i][0] != i for i in range(n)):
        raise GroupValidationError("identity not at index 0")
    for i in range(n):
        j = rows[i].index(0)
        if rows[j][i] != 0:
            raise GroupValidationError(f"element {i} has no two-sided inverse")
    for a in range(n):
        # Entry (b, c) of T[T[a]] is (ab)c and of T[a][T] is a(bc).
        bad = T[T[a]] != T[a][T]
        if bad.any():
            b, c = divmod(int(bad.argmax()), n)
            raise GroupValidationError(f"associativity fails at ({a}, {b}, {c})")
    return Group(name, rows)


def _check_order(order: int) -> None:
    if order > GROUP_ORDER_LIMIT:
        raise SizeLimitError(
            f"group tables are limited to order <= {GROUP_ORDER_LIMIT}, got {order}")


# -- builtin corpus ----------------------------------------------------------


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    # Index s*n + r encodes t^s rho^r with t rho t = rho^{-1}.
    def mul(x, y):
        s1, r1 = divmod(x, n)
        s2, r2 = divmod(y, n)
        r = (r2 - r1 if s2 else r1 + r2) % n
        return ((s1 + s2) % 2) * n + r
    return [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]


def _perm_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        table.append([index[tuple(p[q[k]] for k in range(len(p)))] for q in perms])
    return table


def _symmetric_perms(n: int) -> list[tuple[int, ...]]:
    from itertools import permutations
    return sorted(permutations(range(n)))


def _is_even(p: tuple[int, ...]) -> bool:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


_QUATERNION_AXES = "eijk"
_QUATERNION_RULES = {
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def _quaternion_table() -> list[list[int]]:
    # Elements 1, -1, i, -i, j, -j, k, -k in that order.
    def unpack(idx):
        return (1 if idx % 2 == 0 else -1), _QUATERNION_AXES[idx // 2]

    def pack(sign, axis):
        return _QUATERNION_AXES.index(axis) * 2 + (0 if sign == 1 else 1)

    def mul(x, y):
        sx, ax = unpack(x)
        sy, ay = unpack(y)
        if ax == "e":
            return pack(sx * sy, ay)
        if ay == "e":
            return pack(sx * sy, ax)
        if ax == ay:
            return pack(-sx * sy, "e")
        sign, axis = _QUATERNION_RULES[(ax, ay)]
        return pack(sign * sx * sy, axis)

    return [[mul(i, j) for j in range(8)] for i in range(8)]


def _direct_product(g: Group, h: Group, name: str) -> Group:
    n, m = g.order, h.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for (a, b), (c, d) in product(product(range(n), range(m)), repeat=2):
        table[a * m + b][c * m + d] = g.mul(a, c) * m + h.mul(b, d)
    return Group(name, table)


def _builtin_atom(name: str) -> Group:
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if not 1 <= n <= 60:
            raise UnknownNameError(f"cyclic groups are limited to Z1..Z60, got {name}")
        return Group(name, _cyclic_table(n))
    if name.startswith("D") and name[1:].isdigit():
        n = int(name[1:])
        if not 1 <= n <= 12:
            raise UnknownNameError(f"dihedral groups are limited to D1..D12, got {name}")
        return Group(name, _dihedral_table(n))
    if name in ("S3", "S4"):
        return Group(name, _perm_table(_symmetric_perms(int(name[1]))))
    if name == "A4":
        return Group(name, _perm_table([p for p in _symmetric_perms(4) if _is_even(p)]))
    if name == "Q8":
        return Group(name, _quaternion_table())
    raise UnknownNameError(f"unknown builtin group {name!r}")


def builtin_group(name: str) -> Group:
    """Builtin corpus: Zn (n <= 60), Dn (order 2n, n <= 12), S3, S4, A4, Q8,
    and x-joined direct products such as Z2xZ2 or S3xZ2."""
    atoms = [_builtin_atom(part) for part in name.split("x")]
    _check_order(math.prod(atom.order for atom in atoms))
    group = atoms[0]
    for atom in atoms[1:]:
        group = _direct_product(group, atom, name)
    group.name = name
    # Builtins go through the same validation as user tables.
    return group_from_table(name, group.table)


# -- serialization -----------------------------------------------------------


def group_from_dict(data: dict) -> Group:
    if not isinstance(data, dict):
        raise GroupValidationError("group JSON must be an object")
    for field in ("name", "order", "table"):
        if field not in data:
            raise GroupValidationError(f"group JSON lacks field {field!r}")
    if not isinstance(data["name"], str):
        raise GroupValidationError("field 'name' must be a string")
    if not isinstance(data["order"], int) or isinstance(data["order"], bool):
        raise GroupValidationError("field 'order' must be an integer")
    table = data["table"]
    if not isinstance(table, list) or len(table) != data["order"]:
        raise GroupValidationError("field 'table' must be an order x order array")
    return group_from_table(data["name"], table)


def load_group(path: str) -> Group:
    with open(path, encoding="utf-8") as fh:
        return group_from_dict(json.load(fh))


def save_group(g: Group, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(g.to_dict(), indent=2, sort_keys=True) + "\n")


# -- subgroups ---------------------------------------------------------------


def _close(g: Group, seed: Collection[int]) -> frozenset[int]:
    """The subgroup generated by `seed`: the identity closed under right
    multiplication by the seed elements.  In a finite group the monoid they
    generate is already the subgroup."""
    members = {0}
    frontier = [0]
    for x in frontier:
        row = g.table[x]
        for s in seed:
            z = row[s]
            if z not in members:
                members.add(z)
                frontier.append(z)
    return frozenset(members)


def all_subgroups(g: Group) -> list[Subgroup]:
    """Every subgroup, by breadth-first closure of one-element extensions.

    Each subgroup keeps the generators it was reached by.  <H, hx> = <H, x>
    for h in H, so H is extended once per right coset Hx.
    """
    if g.order > SUBGROUP_ORDER_LIMIT:
        raise SizeLimitError(
            f"subgroup enumeration is limited to order <= {SUBGROUP_ORDER_LIMIT}")
    trivial = frozenset({0})
    gens = {trivial: ()}
    frontier = [trivial]
    while frontier:
        fresh = []
        for H in frontier:
            done = set(H)
            for x in range(g.order):
                if x in done:
                    continue
                done.update(g.table[h][x] for h in H)
                seed = gens[H] + (x,)
                extended = _close(g, seed)
                if extended not in gens:
                    gens[extended] = seed
                    fresh.append(extended)
        frontier = fresh
    return sorted((Subgroup(tuple(sorted(H))) for H in gens),
                  key=lambda s: (len(s.members), s.members))


def normal_closure(g: Group, sub: Subgroup, ambient: Subgroup) -> Subgroup:
    """Smallest subgroup of `ambient` containing `sub` and closed under
    conjugation by `ambient`."""
    if not set(sub.members) <= set(ambient.members):
        raise PreconditionError(f"{sub.name} is not contained in {ambient.name}")
    conjugators = [(g.table[k], g.inv(k)) for k in ambient.members]
    members = frozenset(sub.members)
    while True:
        conjugates = {g.table[row[h]][k_inv] for row, k_inv in conjugators for h in members}
        grown = _close(g, members | conjugates)
        if grown == members:
            return Subgroup(tuple(sorted(members)))
        members = grown


def is_subnormal(g: Group, sub: Subgroup) -> bool:
    """Iterated normal closure from the full group; subnormal iff the
    descending fixpoint equals the subgroup itself."""
    current = Subgroup(tuple(range(g.order)))
    while True:
        nxt = normal_closure(g, sub, current)
        if nxt.members == current.members:
            return current.members == sub.members
        current = nxt


def subnormal_lattice(g: Group) -> Poset:
    """Poset of subnormal subgroups under inclusion, named by member lists.

    The dual of this poset must be semimodular; a failure is reported as a
    broken-theorem sentinel, not as bad input.  The lattice is built once per
    group and cached on it.
    """
    cached = g._cache.get("subnormal")
    if cached is not None:
        return cached
    subs = [s for s in all_subgroups(g) if is_subnormal(g, s)]
    sets = {s.name: set(s.members) for s in subs}
    strictly_below = [(a, b) for a in sets for b in sets if sets[a] < sets[b]]
    # Lenient mode reduces the strict order to its covers.
    lattice = Poset.from_cover_list(f"subnormal({g.name})", list(sets), strictly_below,
                                    mode="lenient")
    report = sl.is_semimodular(lattice.dual())
    if not report.holds:
        raise InternalInvariantError(
            f"dual of the subnormal lattice of {g.name} is not semimodular: "
            f"counterexample {report.counterexample}")
    g._cache["subnormal"] = lattice
    return lattice


# -- composition series ------------------------------------------------------


@dataclass(frozen=True)
class SeriesPair:
    """Matching of one ordered pair of composition series."""

    index_a: int
    index_b: int
    pi: tuple[int, ...]
    factor_pairs: tuple[tuple[int, int], ...]

    @property
    def factors_equal(self) -> bool:
        return all(x == y for x, y in self.factor_pairs)

    def to_dict(self) -> dict:
        return {"series_a": self.index_a, "series_b": self.index_b,
                "pi": list(self.pi),
                "factor_pairs": [list(p) for p in self.factor_pairs],
                "factors_equal": self.factors_equal}


@dataclass(frozen=True)
class CompositionReport:
    """Composition-series analysis of a finite group."""

    group: str
    order: int
    length: int
    series: tuple[tuple[str, ...], ...]
    factor_multisets: tuple[tuple[int, ...], ...]
    pairs: tuple[SeriesPair, ...]

    @property
    def multiset_independent(self) -> bool:
        return len(set(self.factor_multisets)) <= 1

    @property
    def ok(self) -> bool:
        return self.multiset_independent and all(p.factors_equal for p in self.pairs)

    def to_dict(self) -> dict:
        return {"group": self.group, "order": self.order, "length": self.length,
                "series": [list(s) for s in self.series],
                "factor_multisets": [list(m) for m in self.factor_multisets],
                "pairs": [p.to_dict() for p in self.pairs],
                "factor_multiset_independent": self.multiset_independent,
                "ok": self.ok}


def _series_factors(series: tuple[str, ...]) -> list[int]:
    sizes = [s.count(".") + 1 for s in series]  # members are dot-joined
    return [b // a for a, b in zip(sizes, sizes[1:])]


def _ascending(pi) -> tuple[int, ...]:
    """A pi matched on the dual, in ascending-series indexing."""
    return tuple(len(pi) + 1 - j for j in reversed(pi))


def match_series(lattice: Poset, series_a: Chain, series_b: Chain) -> tuple[int, ...]:
    """Match two maximal chains of a dually semimodular lattice by running the
    chain matcher on the dual; returns pi in ascending-series indexing."""
    return _ascending(jh_match(lattice.dual(), series_a.reversed(), series_b.reversed()).pi)


def composition_analysis(g: Group, series_a=None, series_b=None) -> CompositionReport:
    """Check the classical composition-series facts on the subnormal lattice:
    equal lengths, order-matched factors under the computed permutation, and a
    chain-independent multiset of factor orders.

    With explicit series, only that ordered pair is matched; otherwise all
    maximal chains are enumerated and every ordered pair (i <= j) is checked.
    The dual lattice and the series are validated once; each pair runs the
    index matcher, which asserts its invariants and re-verifies its witnesses.
    """
    if (series_a is None) != (series_b is None):
        raise PreconditionError("provide both series or neither")
    lattice = subnormal_lattice(g)
    dual = lattice.dual()
    _validate_poset(dual)
    if series_a is not None:
        chains = [lattice.chain(series_a), lattice.chain(series_b)]
        for ch in chains:
            if not sl.is_maximal_chain(lattice, ch):
                raise NotMaximalChainError(
                    f"series {list(ch)} is not a maximal chain of {lattice.name!r}")
        pair_indices = [(0, 1)]
    else:
        chains = sl.maximal_chains(lattice)
        pair_indices = [(i, j) for i in range(len(chains))
                        for j in range(i, len(chains))]

    lengths = {ch.length for ch in chains}
    if len(lengths) != 1:
        raise InternalInvariantError(
            f"composition series of {g.name} have unequal lengths {sorted(lengths)}")

    factors = [_series_factors(ch.elements) for ch in chains]
    # Each series read top-down is a maximal chain of the dual.
    down = [[dual.index(e) for e in reversed(ch.elements)] for ch in chains]
    pairs = []
    for i, j in pair_indices:
        pi = _ascending(_match(dual, down[i], down[j], False)[0])
        fp = tuple((factors[i][k - 1], factors[j][pi[k - 1] - 1])
                   for k in range(1, len(pi) + 1))
        pairs.append(SeriesPair(i, j, pi, fp))

    return CompositionReport(
        group=g.name, order=g.order, length=lengths.pop(),
        series=tuple(ch.elements for ch in chains),
        factor_multisets=tuple(tuple(sorted(f)) for f in factors),
        pairs=tuple(pairs))
